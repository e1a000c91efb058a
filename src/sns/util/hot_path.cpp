#include "sns/util/hot_path.hpp"

#include <cstring>

namespace sns::util::hotpath {

namespace {

std::atomic<Marker*>& registrySlot() {
  static std::atomic<Marker*> head{nullptr};
  return head;
}

/// Per-thread stack of active scopes. Plain array + depth counter so the
/// interposer path (called from inside operator new) never allocates.
struct ScopeStack {
  Scope* frames[Scope::kMaxDepth];
  std::size_t depth = 0;  ///< logical depth (may exceed kMaxDepth)
};

ScopeStack& tlsStack() {
  thread_local ScopeStack stack;
  return stack;
}

}  // namespace

Marker::Marker(const char* name_, const char* file_, int line_)
    : name(name_), file(file_), line(line_) {
  // Push-once CAS registration: function-local-static init guarantees this
  // ctor runs exactly once per site, but different sites may race here.
  std::atomic<Marker*>& head = registrySlot();
  Marker* expected = head.load(std::memory_order_relaxed);
  do {
    next = expected;
  } while (!head.compare_exchange_weak(expected, this,
                                       std::memory_order_release,
                                       std::memory_order_relaxed));
}

Marker* registryHead() {
  return registrySlot().load(std::memory_order_acquire);
}

Marker* findMarker(const char* name) {
  for (Marker* m = registryHead(); m != nullptr; m = m->next) {
    if (std::strcmp(m->name, name) == 0) return m;
  }
  return nullptr;
}

void resetCounters() {
  for (Marker* m = registryHead(); m != nullptr; m = m->next) {
    m->entries.store(0, std::memory_order_relaxed);
    m->allocs.store(0, std::memory_order_relaxed);
    m->alloc_bytes.store(0, std::memory_order_relaxed);
    m->exempt_allocs.store(0, std::memory_order_relaxed);
    m->last_alloc_entry.store(0, std::memory_order_relaxed);
  }
}

Scope::Scope(Marker* m) : marker_(m) {
  // Not a locked fetch_add: see Marker on why an undercount is acceptable.
  marker_->entries.store(marker_->entries.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  ScopeStack& stack = tlsStack();
  if (stack.depth < kMaxDepth) {
    stack.frames[stack.depth] = this;
    on_stack_ = true;
  }
  ++stack.depth;
}

Scope::~Scope() {
  ScopeStack& stack = tlsStack();
  --stack.depth;
  if (on_stack_) stack.frames[stack.depth] = nullptr;
  if (local_allocs_ == 0) return;
  if (exempt_) {
    marker_->exempt_allocs.fetch_add(local_allocs_, std::memory_order_relaxed);
  } else {
    marker_->allocs.fetch_add(local_allocs_, std::memory_order_relaxed);
    marker_->alloc_bytes.fetch_add(local_bytes_, std::memory_order_relaxed);
    marker_->last_alloc_entry.store(
        marker_->entries.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}

void noteAllocation(std::size_t bytes) {
  ScopeStack& stack = tlsStack();
  if (stack.depth == 0) return;
  std::size_t top = stack.depth <= Scope::kMaxDepth ? stack.depth
                                                    : Scope::kMaxDepth;
  Scope* s = stack.frames[top - 1];
  if (s == nullptr) return;
  ++s->local_allocs_;
  s->local_bytes_ += bytes;
}

void markInnermostBoundary() {
  ScopeStack& stack = tlsStack();
  if (stack.depth == 0) return;
  std::size_t top = stack.depth <= Scope::kMaxDepth ? stack.depth
                                                    : Scope::kMaxDepth;
  Scope* s = stack.frames[top - 1];
  if (s != nullptr) s->markBoundary();
}

bool inHotScope() { return tlsStack().depth > 0; }

bool innermostScopeInfo(ActiveScopeInfo& out) {
  ScopeStack& stack = tlsStack();
  if (stack.depth == 0) return false;
  std::size_t top = stack.depth <= Scope::kMaxDepth ? stack.depth
                                                    : Scope::kMaxDepth;
  Scope* s = stack.frames[top - 1];
  if (s == nullptr) return false;
  out.name = s->marker_->name;
  out.entry = s->marker_->entries.load(std::memory_order_relaxed);
  out.exempt = s->exempt_;
  return true;
}

}  // namespace sns::util::hotpath

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sns::util::hotpath {

/// One named hot-path site (DESIGN.md "Static contracts"). Markers are
/// function-local statics registered once into a global intrusive list —
/// no heap, no dynamic initialization order hazards — so the allocation
/// interposer (tests/support/alloc_guard) can attribute every heap
/// allocation that happens inside a marked scope to the site it occurred
/// in, and the steady-state contract test can assert, per site, that all
/// allocations happened during warm-up.
///
/// Counters are atomics only so concurrent harnesses (several simulators
/// on pool workers, each passing through marked scopes) stay defined.
/// Entry bumps `entries` with a relaxed load and store rather than a
/// locked read-modify-write, so two threads entering one site at once may
/// undercount it; the scheduler hot path itself is single-threaded. A
/// scope costs that bump plus a push and a pop of a thread-local stack.
struct Marker {
  const char* name;  ///< dotted contract name, e.g. "sched.decision"
  const char* file;
  int line;
  Marker* next = nullptr;  ///< intrusive registry chain

  std::atomic<std::uint64_t> entries{0};       ///< scope activations
  std::atomic<std::uint64_t> allocs{0};        ///< non-exempt allocations
  std::atomic<std::uint64_t> alloc_bytes{0};   ///< bytes of the above
  std::atomic<std::uint64_t> exempt_allocs{0}; ///< allocations inside
                                               ///< boundary-exempt entries
  /// `entries` value of the most recent entry that performed a non-exempt
  /// allocation — the steady-state gate: once warm, this stops moving.
  std::atomic<std::uint64_t> last_alloc_entry{0};

  Marker(const char* name_, const char* file_, int line_);
};

/// Head of the marker registry (push-once at static-local init, CAS'd so
/// markers first reached on different threads register safely).
Marker* registryHead();

/// Visit every registered marker (order is registration order, i.e.
/// first-execution order — deterministic for a single-threaded run).
template <typename Fn>
void forEachMarker(Fn&& fn) {
  for (Marker* m = registryHead(); m != nullptr; m = m->next) fn(*m);
}

/// Find a marker by contract name; null when the site was never reached.
Marker* findMarker(const char* name);

/// Reset every marker's counters (test isolation between runs).
void resetCounters();

/// Snapshot of the innermost active scope, for the interposer's optional
/// allocation-backtrace hook (SNS_ALLOC_TRACE_MIN_ENTRY): which contract
/// site is open, which activation this is, and whether it has already
/// been declared a boundary.
struct ActiveScopeInfo {
  const char* name;
  std::uint64_t entry;  ///< this activation's ordinal (1-based)
  bool exempt;
};

/// Fills `out` from the innermost active scope; false when none is open.
/// Never allocates (callable from inside operator new).
bool innermostScopeInfo(ActiveScopeInfo& out);

/// RAII scope: pushes its marker on a thread-local stack so the
/// allocation interposer can attribute allocations to the innermost
/// active site. Nesting deeper than kMaxDepth is counted but not
/// attributed (never allocates — this code runs under operator new).
class Scope {
 public:
  static constexpr std::size_t kMaxDepth = 16;

  explicit Scope(Marker* m);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Declare this activation a rate-boundary action: its allocations are
  /// tallied under `exempt_allocs` instead of advancing
  /// `last_alloc_entry`. The decision path calls this when a placement
  /// actually commits — a successful decision builds its Placement and is
  /// a boundary by definition; the steady-state contract covers the
  /// failure-dominated re-scoring and the settled-engine paths.
  void markBoundary() { exempt_ = true; }

 private:
  friend void noteAllocation(std::size_t bytes);
  friend bool innermostScopeInfo(ActiveScopeInfo& out);
  Marker* marker_;
  std::uint64_t local_allocs_ = 0;
  std::uint64_t local_bytes_ = 0;
  bool exempt_ = false;
  bool on_stack_ = false;
};

/// Called by the allocation interposer (when one is linked in) for every
/// global operator new. Attributes to the innermost active Scope of the
/// calling thread; cheap no-op when no scope is active. Must not allocate.
void noteAllocation(std::size_t bytes);

/// Scope::markBoundary for call sites that sit inside a marked scope but
/// outside its lexical block — a callee declaring "this activation is a
/// state-changing event". Used by memo warm-ups that live in other
/// modules (a solver-cache miss deriving a never-seen share)
/// and by append-only history writes (an event-log append): both allocate
/// by design, at event rate, and neither is per-decision scratch. No-op
/// when no scope is active.
void markInnermostBoundary();

/// True when the calling thread is currently inside any marked scope
/// (used by AllocGuard self-tests).
bool inHotScope();

}  // namespace sns::util::hotpath

/// Marks the enclosing scope as a named hot path. Place at the top of the
/// function (or block) the contract covers:
///
///   void ClusterSimulator::refreshRates(...) {
///     SNS_HOT_PATH("engine.refresh");
///     ...
///   }
///
/// `SNS_HOT_PATH_BOUNDARY()` later in the same block marks the current
/// activation as a rate-boundary action (see Scope::markBoundary). The
/// scope variable has a fixed name, so exactly one SNS_HOT_PATH per
/// lexical scope — which is also the contract: a hot-path function has
/// one identity.
/// snslint's hot-path-allocation and exception-escape-hot-path rules key
/// on the marker token: any allocating construct or `throw` lexically
/// inside a marked function is a finding.
#define SNS_HOT_PATH(name)                                            \
  static ::sns::util::hotpath::Marker sns_hot_path_marker{            \
      name, __FILE__, __LINE__};                                      \
  ::sns::util::hotpath::Scope sns_hot_path_scope { &sns_hot_path_marker }
#define SNS_HOT_PATH_BOUNDARY() sns_hot_path_scope.markBoundary()

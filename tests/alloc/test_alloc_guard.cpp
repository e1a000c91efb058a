// AllocGuard + hot-path marker self-tests. This binary links the global
// operator new/delete interposer (tests/support/alloc_interposer.cpp);
// the mirror-image "interposer absent" checks live in sns_tests
// (tests/util/test_alloc_guard_off.cpp), which does not link it.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "sns/util/hot_path.hpp"
#include "tests/support/alloc_guard.hpp"

namespace sns::testing {
namespace {

// An allocation whose pointer never escapes may be elided together with
// its delete (C++14 [expr.new]); gcc does so at -O3 with LTO. Feeding the
// pointer to an opaque asm with a memory clobber keeps the pair — and the
// interposer's count — in every build mode.
template <typename T>
void escape(T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

TEST(AllocGuard, InterposerIsLinkedIntoThisBinary) {
  EXPECT_TRUE(AllocGuard::interposerLinked());
}

TEST(AllocGuard, CountsAllocationsBytesAndFrees) {
  AllocGuard g;
  auto p = std::make_unique<std::byte[]>(1024);
  escape(p.get());
  EXPECT_GE(g.allocations(), 1u);
  EXPECT_GE(g.bytes(), 1024u);
  const std::uint64_t frees_before = g.frees();
  p.reset();
  EXPECT_EQ(g.frees(), frees_before + 1);
}

TEST(AllocGuard, ZeroForAllocationFreeCode) {
  // Warm a vector, then operate strictly within capacity.
  std::vector<int> v;
  v.reserve(64);
  AllocGuard g;
  for (int i = 0; i < 64; ++i) v.push_back(i);
  v.clear();
  EXPECT_EQ(g.allocations(), 0u);
  EXPECT_EQ(g.bytes(), 0u);
}

TEST(AllocGuard, ScopedResetRestartsTheWindow) {
  AllocGuard g;
  auto p = std::make_unique<int>(7);
  escape(p.get());
  EXPECT_GE(g.allocations(), 1u);
  g.reset();
  EXPECT_EQ(g.allocations(), 0u);
  EXPECT_EQ(g.bytes(), 0u);
  auto q = std::make_unique<int>(8);
  escape(q.get());
  EXPECT_GE(g.allocations(), 1u);
}

TEST(AllocGuard, GuardsNestIndependently) {
  AllocGuard outer;
  auto a = std::make_unique<int>(1);
  escape(a.get());
  const std::uint64_t outer_after_first = outer.allocations();
  AllocGuard inner;
  auto b = std::make_unique<int>(2);
  escape(b.get());
  EXPECT_GE(inner.allocations(), 1u);
  EXPECT_GE(outer.allocations(), outer_after_first + 1);
  // The inner guard never sees the allocation that preceded it.
  EXPECT_LT(inner.allocations(), outer.allocations());
}

TEST(HotPathMarker, AttributesAllocationsToInnermostScope) {
  util::hotpath::resetCounters();
  {
    SNS_HOT_PATH("test.attribution");
    EXPECT_TRUE(util::hotpath::inHotScope());
    auto p = std::make_unique<int>(3);
    escape(p.get());
  }
  EXPECT_FALSE(util::hotpath::inHotScope());
  util::hotpath::Marker* m = util::hotpath::findMarker("test.attribution");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->entries.load(), 1u);
  EXPECT_GE(m->allocs.load(), 1u);
  EXPECT_GE(m->alloc_bytes.load(), sizeof(int));
  EXPECT_EQ(m->exempt_allocs.load(), 0u);
  EXPECT_EQ(m->last_alloc_entry.load(), 1u);
}

TEST(HotPathMarker, BoundaryExemptActivationsDoNotAdvanceLastAllocEntry) {
  util::hotpath::resetCounters();
  for (int i = 0; i < 3; ++i) {
    SNS_HOT_PATH("test.boundary");
    SNS_HOT_PATH_BOUNDARY();
    auto p = std::make_unique<int>(i);
    escape(p.get());
  }
  util::hotpath::Marker* m = util::hotpath::findMarker("test.boundary");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->entries.load(), 3u);
  EXPECT_EQ(m->allocs.load(), 0u);
  EXPECT_GE(m->exempt_allocs.load(), 3u);
  EXPECT_EQ(m->last_alloc_entry.load(), 0u);
}

// Markers are per lexical site (one function-local static each), so
// re-entry tests must route every activation through the same site.
void touchWarmupSite(bool allocate) {
  SNS_HOT_PATH("test.warmup");
  if (allocate) {
    auto p = std::make_unique<int>(0);
    escape(p.get());
  }
}

TEST(HotPathMarker, SilentActivationsLeaveLastAllocEntryBehind) {
  util::hotpath::resetCounters();
  touchWarmupSite(true);  // warm-up: allocates on activation 1
  // Steady state: entries advance, the last-allocation ordinal stays
  // pinned at activation 1 — the shape the steady-state contract test
  // asserts on the real engine markers.
  for (int i = 0; i < 9; ++i) touchWarmupSite(false);
  util::hotpath::Marker* m = util::hotpath::findMarker("test.warmup");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->entries.load(), 10u);
  EXPECT_EQ(m->last_alloc_entry.load(), 1u);
}

// A callee (another module, another function) declaring the enclosing
// activation a boundary — the solver-cache miss / event-log append shape.
void calleeDeclaresBoundaryAndAllocates() {
  util::hotpath::markInnermostBoundary();
  auto p = std::make_unique<int>(5);
  escape(p.get());
}

TEST(HotPathMarker, CalleeCanMarkTheInnermostScopeAsBoundary) {
  util::hotpath::resetCounters();
  {
    SNS_HOT_PATH("test.callee_boundary");
    calleeDeclaresBoundaryAndAllocates();
  }
  util::hotpath::Marker* m =
      util::hotpath::findMarker("test.callee_boundary");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->allocs.load(), 0u);
  EXPECT_GE(m->exempt_allocs.load(), 1u);
  EXPECT_EQ(m->last_alloc_entry.load(), 0u);
  // Outside any scope it is a no-op, not a crash.
  util::hotpath::markInnermostBoundary();
}

TEST(HotPathMarker, NestedScopesAttributeOnlyInnermost) {
  util::hotpath::resetCounters();
  {
    SNS_HOT_PATH("test.outer");
    {
      SNS_HOT_PATH("test.inner");
      auto p = std::make_unique<int>(4);
      escape(p.get());
    }
  }
  util::hotpath::Marker* outer = util::hotpath::findMarker("test.outer");
  util::hotpath::Marker* inner = util::hotpath::findMarker("test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->allocs.load(), 0u);
  EXPECT_GE(inner->allocs.load(), 1u);
}

}  // namespace
}  // namespace sns::testing

#include "perf/microbench.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hdem::perf {
namespace {

TEST(Microbench, OverheadsArePositive) {
  const auto o = measure_sync_overheads(2, 200);
  EXPECT_EQ(o.threads, 2);
  EXPECT_GT(o.fork_join, 0.0);
  EXPECT_GT(o.parallel_for, 0.0);
  EXPECT_GT(o.barrier, 0.0);
  EXPECT_GT(o.critical, 0.0);
  EXPECT_GT(o.atomic_add, 0.0);
}

TEST(Microbench, SingleThreadCheap) {
  // A one-thread team runs regions inline; fork/join must be far below a
  // multi-thread team's cost.
  const auto solo = measure_sync_overheads(1, 500);
  const auto quad = measure_sync_overheads(4, 200);
  EXPECT_LT(solo.fork_join, quad.fork_join);
}

TEST(Microbench, PerBlockCostFormula) {
  SyncOverheads o;
  o.fork_join = 10e-6;
  o.barrier = 2e-6;
  EXPECT_DOUBLE_EQ(per_block_sync_cost(o, 2.0, 1.0), 22e-6);
}

TEST(Microbench, FormatMentionsUnits) {
  const auto o = measure_sync_overheads(1, 50);
  const std::string s = format(o);
  EXPECT_NE(s.find("fork_join"), std::string::npos);
  EXPECT_NE(s.find("us"), std::string::npos);
}

TEST(Microbench, TinyRepetitionWindowsStayMeasurable) {
  // One repetition undercuts the clock resolution on a fast host; the
  // doubling timing window must still produce positive, finite
  // per-episode costs (a zero here used to become NaN in downstream
  // fitted constants).
  const auto o = measure_sync_overheads(2, 1);
  for (const double v :
       {o.fork_join, o.parallel_for, o.barrier, o.critical, o.atomic_add}) {
    EXPECT_GT(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
  const auto k = measure_kernel_throughput(64, 1);
  EXPECT_GT(k.ns_per_link_scalar, 0.0);
  EXPECT_TRUE(std::isfinite(k.ns_per_link_simd));
}

TEST(Microbench, AtomicCheaperThanCritical) {
  // A CAS-loop accumulate should beat a mutex-protected section.  Both
  // sides are timed in the same interleaved rounds and compared at their
  // best rounds, so a slow stretch of the host cannot hit one side only.
  const auto o = measure_sync_overheads(4, 500);
  EXPECT_LT(o.atomic_add, o.critical * 5.0);
}

}  // namespace
}  // namespace hdem::perf

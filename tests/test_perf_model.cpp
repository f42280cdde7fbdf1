#include "perf/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "perf/machine.hpp"
#include "perf/paper_data.hpp"

namespace hdem::perf {
namespace {

RunMeasurement base_run() {
  RunMeasurement r;
  r.workload.D = 3;
  r.workload.n = 1000;
  r.iterations = 10;
  r.agg.force_evals = 10 * 5000;
  r.agg.position_updates = 10 * 1000;
  for (int i = 0; i < 5000; ++i) r.agg.record_link_gap(10);
  return r;
}

MachineSpec toy_machine() {
  MachineSpec m;
  m.name = "toy";
  m.cpus_per_node = 4;
  m.nodes = 2;
  m.t_pair = 1e-7;
  m.t_update = 1e-7;
  m.t_mem = 1e-7;
  m.cache_bytes = 1e6;
  m.mem_saturation = 0.5;
  m.t_atomic = 1e-6;
  m.t_fork = 1e-5;
  m.t_barrier = 1e-6;
  m.t_critical = 1e-6;
  m.reduction_bw = 1e9;
  m.lat_intra = 1e-6;
  m.bw_intra = 1e9;
  m.lat_inter = 1e-5;
  m.bw_inter = 1e8;
  return m;
}

TEST(CostModel, ComputeTermMatchesHandCalculation) {
  const auto r = base_run();
  const auto m = toy_machine();
  const auto b = CostModel::predict(m, r);
  // 5000 links * 1e-7 (+ t_pair3 = 0) + 1000 updates * 1e-7 per iteration.
  EXPECT_NEAR(b.compute, 5000 * 1e-7 + 1000 * 1e-7, 1e-12);
  EXPECT_EQ(b.atomic, 0.0);
  EXPECT_EQ(b.comm, 0.0);
  EXPECT_EQ(b.sync, 0.0);
}

TEST(CostModel, ThreadsDivideWorkTerms) {
  auto r = base_run();
  const auto m = toy_machine();
  const auto t1 = CostModel::predict(m, r);
  r.knobs.nthreads = 2;
  const auto t2 = CostModel::predict(m, r);
  EXPECT_NEAR(t2.compute, t1.compute / 2.0, 1e-15);
}

TEST(CostModel, MissProbabilityFollowsCacheSize) {
  const auto r = base_run();
  auto m = toy_machine();
  // All gaps are 10 particles (~15 mid). With a huge cache nothing misses.
  m.cache_bytes = 1e9;
  EXPECT_DOUBLE_EQ(CostModel::miss_probability(m, r), 0.0);
  // With a tiny cache everything misses.
  m.cache_bytes = 10.0;
  EXPECT_DOUBLE_EQ(CostModel::miss_probability(m, r), 1.0);
}

TEST(CostModel, GapScaleShrinksEffectiveCache) {
  const auto r = base_run();
  auto m = toy_machine();
  // Capacity ~ cache/bpp = 100 particles > gap bucket [8,16): no misses.
  m.cache_bytes = 100.0 * CostModel::bytes_per_particle(3);
  EXPECT_DOUBLE_EQ(CostModel::miss_probability(m, r, 1.0), 0.0);
  // Scaling gaps up by 10 (capacity 10, inside the bucket) misses partly;
  // by 20 (capacity 5, below the bucket) misses fully.
  const double partial = CostModel::miss_probability(m, r, 10.0);
  EXPECT_GT(partial, 0.3);
  EXPECT_LT(partial, 1.0);
  EXPECT_DOUBLE_EQ(CostModel::miss_probability(m, r, 20.0), 1.0);
}

TEST(CostModel, SaturationRaisesMemoryCost) {
  auto r = base_run();
  auto m = toy_machine();
  m.cache_bytes = 10.0;  // force misses
  r.knobs.nthreads = 1;
  const auto solo = CostModel::predict(m, r);
  ModelLayout l;
  l.ranks_per_node = 4;  // 4 busy CPUs share the node
  const auto packed = CostModel::predict(m, r, l);
  EXPECT_GT(packed.memory, 2.0 * solo.memory);
  EXPECT_EQ(packed.compute, solo.compute);
}

TEST(CostModel, AtomicAndSyncTerms) {
  auto r = base_run();
  r.knobs.nthreads = 4;
  r.agg.atomic_updates = 10 * 1000;
  r.agg.parallel_regions = 10 * 2;
  r.agg.barriers = 10 * 1;
  const auto m = toy_machine();
  const auto b = CostModel::predict(m, r);
  EXPECT_NEAR(b.atomic, 1000 * 1e-6 / 4, 1e-12);
  // sync scale at T=4 is (4-1)/3 = 1.
  EXPECT_NEAR(b.sync, 2 * 1e-5 + 1 * 1e-6, 1e-12);
}

TEST(CostModel, SyncFreeWithOneThread) {
  auto r = base_run();
  r.agg.parallel_regions = 100;
  r.agg.barriers = 100;
  const auto b = CostModel::predict(toy_machine(), r);
  EXPECT_EQ(b.sync, 0.0);
}

TEST(CostModel, TrafficSplitIntraVsInter) {
  RunMeasurement r = base_run();
  r.knobs.nprocs = 4;
  r.bytes_matrix.assign(16, 0);
  r.msgs_matrix.assign(16, 0);
  // rank 0 -> 1 (same node when rpn = 2), rank 0 -> 2 (different node).
  r.bytes_matrix[0 * 4 + 1] = 1000;
  r.msgs_matrix[0 * 4 + 1] = 1;
  r.bytes_matrix[0 * 4 + 2] = 500;
  r.msgs_matrix[0 * 4 + 2] = 2;
  const auto s2 = CostModel::split_traffic(r, 2);
  EXPECT_EQ(s2.bytes_intra, 1000);
  EXPECT_EQ(s2.bytes_inter, 500);
  EXPECT_EQ(s2.msgs_inter, 2);
  // With one rank per node everything is inter-node.
  const auto s1 = CostModel::split_traffic(r, 1);
  EXPECT_EQ(s1.bytes_intra, 0);
  EXPECT_EQ(s1.bytes_inter, 1500);
  // With everything on one node, all intra.
  const auto s4 = CostModel::split_traffic(r, 4);
  EXPECT_EQ(s4.bytes_inter, 0);
}

TEST(CostModel, SelfMessagesExcluded) {
  RunMeasurement r = base_run();
  r.knobs.nprocs = 2;
  r.bytes_matrix.assign(4, 0);
  r.msgs_matrix.assign(4, 0);
  r.bytes_matrix[0] = 999;  // 0 -> 0
  r.msgs_matrix[0] = 9;
  const auto s = CostModel::split_traffic(r, 1);
  EXPECT_EQ(s.bytes_intra + s.bytes_inter, 0);
}

TEST(CostModel, CommCostUsesLatencyAndBandwidth) {
  RunMeasurement r = base_run();
  r.knobs.nprocs = 2;
  r.bytes_matrix.assign(4, 0);
  r.msgs_matrix.assign(4, 0);
  r.bytes_matrix[0 * 2 + 1] = 1e6;
  r.msgs_matrix[0 * 2 + 1] = 10;
  const auto m = toy_machine();
  ModelLayout l;
  l.ranks_per_node = 1;  // inter-node
  const auto b = CostModel::predict(m, r, l);
  // (10 msgs * 1e-5 + 1e6 / 1e8) / (2 ranks * 10 iters)
  EXPECT_NEAR(b.comm, (10 * 1e-5 + 1e6 / 1e8) / 20.0, 1e-12);
}

// Two-rank run with inter-node traffic plus an overlapped/exposed byte
// split, as the nonblocking halo schedule records it.
RunMeasurement overlap_run(std::uint64_t overlapped, std::uint64_t exposed) {
  RunMeasurement r = base_run();
  r.knobs.nprocs = 2;
  r.bytes_matrix.assign(4, 0);
  r.msgs_matrix.assign(4, 0);
  r.bytes_matrix[0 * 2 + 1] = 1e6;
  r.msgs_matrix[0 * 2 + 1] = 10;
  r.agg.bytes_overlapped = overlapped;
  r.agg.bytes_exposed = exposed;
  return r;
}

TEST(CostModel, OverlapDiscountRequiresOverlapSchedule) {
  // The synchronous schedule also records overlapped bytes (eager sends
  // land before the immediately-following wait), but nothing hides behind
  // compute there — the model must not credit it.
  auto r = overlap_run(3000, 1000);
  const auto m = toy_machine();
  ModelLayout l;
  l.ranks_per_node = 1;
  r.knobs.overlap = false;
  const auto sync = CostModel::predict(m, r, l);
  EXPECT_DOUBLE_EQ(sync.comm_hidden, 0.0);
  EXPECT_NEAR(sync.comm, (10 * 1e-5 + 1e6 / 1e8) / 20.0, 1e-12);
  r.knobs.overlap = true;
  const auto over = CostModel::predict(m, r, l);
  EXPECT_GT(over.comm_hidden, 0.0);
  EXPECT_NEAR(over.comm, sync.comm - over.comm_hidden, 1e-15);
}

TEST(CostModel, OverlapHidesByteCostNotLatency) {
  // 25% overlapped: a quarter of the byte term hides behind compute; the
  // per-message latency term never does.  comm_hidden stays out of total().
  auto r = overlap_run(1000, 3000);
  r.knobs.overlap = true;
  const auto m = toy_machine();
  ModelLayout l;
  l.ranks_per_node = 1;
  const auto b = CostModel::predict(m, r, l);
  const double latency = 10 * 1e-5 / 20.0;
  const double bytes = 1e6 / 1e8 / 20.0;
  EXPECT_NEAR(b.comm_hidden, 0.25 * bytes, 1e-12);
  EXPECT_NEAR(b.comm, latency + 0.75 * bytes, 1e-12);
  EXPECT_NEAR(b.total(), b.compute + b.comm, 1e-15);
}

TEST(CostModel, OverlapHiddenCostCappedByCompute) {
  // Fully overlapped and bytes dwarf compute: the hidden share cannot
  // exceed what there is to hide behind.
  auto r = overlap_run(4000, 0);
  r.knobs.overlap = true;
  const auto m = toy_machine();
  ModelLayout l;
  l.ranks_per_node = 1;
  const auto b = CostModel::predict(m, r, l);
  const double bytes = 1e6 / 1e8 / 20.0;
  ASSERT_GT(bytes, b.compute);  // the cap is actually exercised
  EXPECT_NEAR(b.comm_hidden, b.compute, 1e-15);
  EXPECT_GE(b.comm, 10 * 1e-5 / 20.0);  // latency survives in full
}

TEST(CostModel, CountScaleExtrapolatesLinearly) {
  const auto r = base_run();
  const auto m = toy_machine();
  ModelLayout l;
  l.count_scale = 5.0;
  const auto scaled = CostModel::predict(m, r, l);
  const auto plain = CostModel::predict(m, r);
  EXPECT_NEAR(scaled.compute, 5.0 * plain.compute, 1e-12);
}

TEST(PaperScaleLayout, ScalesCountsGapsAndSurfaces) {
  RunMeasurement r = base_run();
  r.workload.n = 125000;
  r.workload.D = 3;
  r.knobs.reorder = true;
  const auto l = paper_scale_layout(r, 4, 1.0e6);  // ratio 8
  EXPECT_EQ(l.ranks_per_node, 4);
  EXPECT_DOUBLE_EQ(l.count_scale, 8.0);
  EXPECT_DOUBLE_EQ(l.comm_scale, 4.0);       // 8^(2/3)
  EXPECT_DOUBLE_EQ(l.cache_gap_scale, 4.0);  // reordered: surface growth
  EXPECT_DOUBLE_EQ(l.sync_scale, 1.0);       // per-block counts don't scale
  r.knobs.reorder = false;
  EXPECT_DOUBLE_EQ(paper_scale_layout(r, 1, 1.0e6).cache_gap_scale, 8.0);
}

TEST(PaperScaleLayout, GapScaleExponents) {
  RunMeasurement random_run;
  random_run.workload.D = 3;
  random_run.workload.n = 1000;
  random_run.knobs.reorder = false;
  EXPECT_DOUBLE_EQ(paper_scale_layout(random_run, 1, 8000.0).cache_gap_scale,
                   8.0);
  RunMeasurement ordered_run = random_run;
  ordered_run.knobs.reorder = true;
  EXPECT_DOUBLE_EQ(paper_scale_layout(ordered_run, 1, 8000.0).cache_gap_scale,
                   4.0);
  ordered_run.workload.D = 2;
  EXPECT_NEAR(paper_scale_layout(ordered_run, 1, 8000.0).cache_gap_scale,
              std::sqrt(8.0), 1e-12);
  // Never scales down.
  EXPECT_DOUBLE_EQ(paper_scale_layout(random_run, 1, 10.0).cache_gap_scale,
                   1.0);
}

TEST(PaperScaleLayout, NoUpscalingBelowTarget) {
  RunMeasurement r = base_run();
  r.workload.n = 2000000;  // already larger than the target
  const auto l = paper_scale_layout(r, 2, 1.0e6);
  EXPECT_DOUBLE_EQ(l.count_scale, 1.0);
  EXPECT_DOUBLE_EQ(l.comm_scale, 1.0);
}

TEST(CostModel, ContentionGrowsWithTeamAndVanishesSolo) {
  auto r = base_run();
  r.agg.plain_updates = 10 * 4000;
  auto m = toy_machine();
  m.t_contend = 1e-7;
  r.knobs.nthreads = 1;
  const auto solo = CostModel::predict(m, r);
  r.knobs.nthreads = 4;
  const auto quad = CostModel::predict(m, r);
  // Solo: no sharing, no contention.  T=4: 4000 updates * 1e-7 * 1 / 4.
  EXPECT_DOUBLE_EQ(solo.memory, 0.0);
  EXPECT_NEAR(quad.memory, 4000 * 1e-7 / 4.0, 1e-12);
}

TEST(CostModel, LocalCopiesChargedToComm) {
  auto r = base_run();
  r.agg.msgs_local = 10 * 6;       // per-block transfers
  r.agg.bytes_local = 10 * 48000;  // halo bytes
  auto m = toy_machine();
  m.lat_local = 1e-6;
  const auto b = CostModel::predict(m, r);
  // 6 transfers * 1us + 48000 bytes / 1e9 per iteration (saturation 1).
  EXPECT_NEAR(b.comm, 6 * 1e-6 + 48000.0 / 1e9, 1e-12);
}

TEST(CostModel, RejectsEmptyMeasurement) {
  RunMeasurement r;
  EXPECT_THROW(CostModel::predict(toy_machine(), r), std::invalid_argument);
}

TEST(CostModel, EfficiencyHelper) {
  EXPECT_DOUBLE_EQ(efficiency(10.0, 1, 5.0, 2), 1.0);
  EXPECT_DOUBLE_EQ(efficiency(10.0, 1, 10.0, 2), 0.5);
}

TEST(Machines, PresetsAreSane) {
  for (const auto& m : {t3e900(), sun_hpc3500(), compaq_es40_cluster()}) {
    EXPECT_GT(m.cpus_per_node, 0);
    EXPECT_GT(m.cache_bytes, 0.0);
    EXPECT_GT(m.bw_inter, 0.0);
    EXPECT_GE(m.mem_saturation, 0.0);
  }
  EXPECT_EQ(t3e900().cpus_per_node, 1);
  EXPECT_EQ(sun_hpc3500().cpus_per_node, 8);
  EXPECT_EQ(compaq_es40_cluster().cpus_per_node, 4);
  // Hardware atomics on the ES40 are far cheaper than the Sun's software
  // locks — the crux of Figures 4 vs 5.
  EXPECT_LT(compaq_es40_cluster().t_atomic, 0.25 * sun_hpc3500().t_atomic);
}

TEST(PaperData, TablesComplete) {
  EXPECT_EQ(paper_serial_tables().size(), 3u);
  EXPECT_DOUBLE_EQ(paper_serial_seconds("Sun", 2, 1.5, false), 3.28);
  EXPECT_DOUBLE_EQ(paper_serial_seconds("T3E", 3, 2.0, true), 10.60);
  EXPECT_DOUBLE_EQ(paper_serial_seconds("CPQ", 3, 1.5, false), 3.20);
  EXPECT_THROW(paper_serial_seconds("VAX", 2, 1.5, false),
               std::invalid_argument);
  // Reordering always helps in the paper's tables.
  for (const auto& t : paper_serial_tables()) {
    for (const auto& row : t.rows) {
      EXPECT_LT(row.seconds_ordered, row.seconds_random);
    }
  }
}

}  // namespace
}  // namespace hdem::perf

#include "perf/measure.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace hdem::perf {
namespace {

template <int D>
bool same_particles(const std::vector<ParticleInit<D>>& a,
                    const std::vector<ParticleInit<D>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].pos, &b[i].pos, sizeof(Vec<D>)) != 0 ||
        std::memcmp(&a[i].vel, &b[i].vel, sizeof(Vec<D>)) != 0) {
      return false;
    }
  }
  return true;
}

// The record's workload is the spec's, field for field.
void expect_same_workload(const Workload& a, const Workload& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.D, b.D);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.rc_factor, b.rc_factor);
  EXPECT_EQ(a.velocity_scale, b.velocity_scale);
  EXPECT_EQ(a.settled_stride, b.settled_stride);
  EXPECT_EQ(a.cluster_fraction, b.cluster_fraction);
}

template <int D>
void expect_scenarios_build_their_generators() {
  Workload w;
  w.D = D;
  w.n = 500;
  w.rc_factor = 2.0;
  w.velocity_scale = 0.3;
  w.settled_stride = 7;
  w.cluster_fraction = 0.25;
  ListKnobs knobs;
  knobs.skin_factor = 0.1;
  SimConfig<D> cfg = workload_config<D>(w, knobs);
  cfg.seed = 77;
  EXPECT_EQ(cfg.box, Vec<D>(SimConfig<D>::paper_box_edge(500)));
  EXPECT_EQ(cfg.cutoff_factor, 2.0);
  EXPECT_EQ(cfg.velocity_scale, 0.3);
  EXPECT_EQ(cfg.skin_factor, 0.1);

  const auto uniform = uniform_random_particles(cfg, 500);
  const auto clustered = clustered_particles(cfg, 500, 0.25);
  const auto settled = settled_bed_particles(cfg, 500, 7, 0.3);
  w.scenario = Scenario::kUniform;
  EXPECT_TRUE(same_particles<D>(workload_particles(cfg, w), uniform));
  w.scenario = Scenario::kClustered;
  EXPECT_TRUE(same_particles<D>(workload_particles(cfg, w), clustered));
  w.scenario = Scenario::kSettled;
  EXPECT_TRUE(same_particles<D>(workload_particles(cfg, w), settled));
  // The three generators differ, so the matches above pin the switch.
  EXPECT_FALSE(same_particles<D>(uniform, clustered));
  EXPECT_FALSE(same_particles<D>(uniform, settled));
}

TEST(Workload, EveryScenarioBuildsItsGenerator) {
  expect_scenarios_build_their_generators<2>();
  expect_scenarios_build_their_generators<3>();
  for (const Scenario s :
       {Scenario::kUniform, Scenario::kClustered, Scenario::kSettled}) {
    EXPECT_EQ(scenario_from_string(to_string(s)), s);
  }
}

TEST(Measure, SerialRunPopulatesCounters) {
  MeasureSpec s;
  s.D = 2;
  s.n = 5000;
  s.iterations = 3;
  // The serial driver ignores the team knobs; the record says so.
  s.nthreads = 4;
  s.reduction = ReductionKind::kAtomicAll;
  const auto m = measure_run(s);
  expect_same_workload(m.workload, s);
  RunKnobs ran = s;
  ran.nthreads = 1;
  ran.reduction = ReductionKind::kColored;
  EXPECT_TRUE(m.knobs == ran);
  EXPECT_EQ(m.iterations, 3u);
  EXPECT_EQ(m.agg.position_updates, 3u * 5000u);
  EXPECT_GT(m.agg.force_evals, 0u);
  EXPECT_GT(m.host_seconds, 0.0);
  EXPECT_GT(m.host_seconds_per_iter(), 0.0);
  EXPECT_TRUE(m.bytes_matrix.empty());
}

TEST(Measure, SteadyWindowExcludesRebuilds) {
  MeasureSpec s;
  s.D = 2;
  s.n = 5000;
  s.iterations = 4;
  const auto m = measure_run(s);
  // The measured window must contain no link-list rebuild (paper excludes
  // link generation from t); the constructor's rebuild happens before the
  // steady-state snapshot and is subtracted out.
  EXPECT_EQ(m.agg.rebuilds, 0u);
}

TEST(Measure, SmpModeCountsRegions) {
  MeasureSpec s;
  s.D = 2;
  s.n = 4000;
  s.mode = MeasureSpec::Mode::kSmp;
  s.nthreads = 3;
  s.iterations = 3;
  // One undecomposed block, whatever the decomposition knobs say.
  s.blocks_per_proc = 4;
  const auto m = measure_run(s);
  expect_same_workload(m.workload, s);
  RunKnobs ran = s;
  ran.nprocs = 1;
  ran.blocks_per_proc = 1;
  EXPECT_TRUE(m.knobs == ran);
  EXPECT_EQ(m.agg.parallel_regions, 2u * 3u);
  EXPECT_GT(m.agg.plain_updates + m.agg.atomic_updates, 0u);
}

TEST(Measure, MpModeFillsTrafficMatrix) {
  MeasureSpec s;
  s.D = 2;
  s.n = 4000;
  s.mode = MeasureSpec::Mode::kMp;
  s.nprocs = 4;
  s.blocks_per_proc = 1;
  s.iterations = 3;
  s.nthreads = 2;  // kMp runs one thread per rank
  const auto m = measure_run(s);
  expect_same_workload(m.workload, s);
  RunKnobs ran = s;
  ran.nthreads = 1;
  EXPECT_TRUE(m.knobs == ran);
  EXPECT_EQ(m.knobs.nprocs * m.knobs.blocks_per_proc, 4);
  ASSERT_EQ(m.bytes_matrix.size(), 16u);
  std::uint64_t total = 0;
  for (auto b : m.bytes_matrix) total += b;
  EXPECT_GT(total, 0u) << "halo swaps must move bytes";
  EXPECT_EQ(m.agg.particles, 4000u);
}

TEST(Measure, HybridModeUsesThreads) {
  MeasureSpec s;
  s.D = 2;
  s.n = 4000;
  s.mode = MeasureSpec::Mode::kHybrid;
  s.nprocs = 2;
  s.nthreads = 2;
  s.blocks_per_proc = 2;
  s.iterations = 2;
  const auto m = measure_run(s);
  expect_same_workload(m.workload, s);
  EXPECT_TRUE(m.knobs == static_cast<const RunKnobs&>(s));
  // 2 regions per block per iteration x 2 blocks x 2 iterations x 2 ranks.
  EXPECT_EQ(m.agg.parallel_regions, 16u);
}

TEST(Measure, FusedHybridMeasurement) {
  MeasureSpec s;
  s.D = 2;
  s.n = 4000;
  s.mode = MeasureSpec::Mode::kHybrid;
  s.nprocs = 2;
  s.nthreads = 2;
  s.blocks_per_proc = 4;
  s.fused = true;
  s.iterations = 2;
  const auto m = measure_run(s);
  // Fused: exactly 2 parallel regions per rank per iteration.
  EXPECT_EQ(m.agg.parallel_regions, 2u * 2u * 2u);
}

TEST(Measure, LinkCountScalesWithCutoff) {
  MeasureSpec a;
  a.D = 3;
  a.n = 8000;
  a.iterations = 2;
  a.rc_factor = 1.5;
  MeasureSpec b = a;
  b.rc_factor = 2.0;
  const auto ma = measure_run(a);
  const auto mb = measure_run(b);
  const double ratio = static_cast<double>(mb.agg.force_evals) /
                       static_cast<double>(ma.agg.force_evals);
  // Links scale as rc^3: (2/1.5)^3 ~ 2.37.
  EXPECT_NEAR(ratio, 2.37, 0.35);
}

TEST(Measure, ReorderLowersLocalityMetric) {
  MeasureSpec a;
  a.D = 2;
  a.n = 10000;
  a.iterations = 2;
  a.reorder = false;
  MeasureSpec b = a;
  b.reorder = true;
  const auto ma = measure_run(a);
  const auto mb = measure_run(b);
  EXPECT_LT(mb.agg.mean_link_gap(), 0.1 * ma.agg.mean_link_gap());
}

TEST(Measure, PerRankCountersFilledForMpRuns) {
  MeasureSpec s;
  s.D = 2;
  s.n = 4000;
  s.mode = MeasureSpec::Mode::kMp;
  s.nprocs = 4;
  s.iterations = 2;
  const auto m = measure_run(s);
  ASSERT_EQ(m.per_rank.size(), 4u);
  std::uint64_t evals = 0;
  for (const auto& c : m.per_rank) evals += c.force_evals;
  EXPECT_EQ(evals, m.agg.force_evals);
}

TEST(Measure, ClusteredWorkloadIsImbalanced) {
  MeasureSpec s;
  s.D = 2;
  s.n = 6000;
  s.mode = MeasureSpec::Mode::kMp;
  s.nprocs = 4;
  s.blocks_per_proc = 1;
  s.scenario = Scenario::kClustered;
  s.cluster_fraction = 0.5;
  s.iterations = 2;
  const auto m = measure_run(s);
  std::uint64_t max_evals = 0, total = 0;
  for (const auto& c : m.per_rank) {
    max_evals = std::max(max_evals, c.force_evals);
    total += c.force_evals;
  }
  const double ratio =
      static_cast<double>(max_evals) / (static_cast<double>(total) / 4.0);
  EXPECT_GT(ratio, 1.5) << "bottom-half cluster must overload the bottom row";
}

TEST(Measure, RejectsBadDimension) {
  MeasureSpec s;
  s.D = 4;
  EXPECT_THROW(measure_run(s), std::invalid_argument);
}

}  // namespace
}  // namespace hdem::perf

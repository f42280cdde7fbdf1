// Tests of the benchmark's own helpers (perfbench/helpers.hpp).
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  EXPECT_EQ(percentile(xs, 500), 500.0);
  EXPECT_EQ(percentile(xs, 990), 990.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 500), 2.0);
  EXPECT_EQ(percentile({7.0}, 990), 7.0);
  EXPECT_EQ(percentile({}, 500), 0.0);
}

TEST(Percentile, ReportableNeedsTenSamplesBeyond) {
  EXPECT_EQ(reportable_permille(19), 0);
  EXPECT_EQ(reportable_permille(20), 500);
  EXPECT_EQ(reportable_permille(99), 500);
  EXPECT_EQ(reportable_permille(100), 900);
  EXPECT_EQ(reportable_permille(999), 900);
  EXPECT_EQ(reportable_permille(1000), 990);
  EXPECT_EQ(reportable_permille(10000), 999);
  // The chosen percentile really has ten samples beyond it.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const double p = percentile(xs, reportable_permille(xs.size()));
  EXPECT_EQ(std::count_if(xs.begin(), xs.end(),
                          [&](double x) { return x > p; }),
            10);
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  const Span parent{"step", 0.0, 10.0};
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 10.0);
  // Disjoint children.
  EXPECT_DOUBLE_EQ(self_time(parent, {{"a", 1.0, 3.0}, {"b", 5.0, 6.0}}), 7.0);
  // Overlapping and nested children count once.
  EXPECT_DOUBLE_EQ(
      self_time(parent, {{"a", 1.0, 4.0}, {"b", 2.0, 5.0}, {"c", 2.5, 3.0}}),
      6.0);
  // Children sticking out of the parent are clipped.
  EXPECT_DOUBLE_EQ(self_time(parent, {{"a", -2.0, 1.0}, {"b", 9.0, 12.0}}),
                   8.0);
  EXPECT_DOUBLE_EQ(self_time(parent, {{"a", 0.0, 10.0}}), 0.0);
}

ServeMix test_mix() {
  ServeMix mix;
  mix.dim = 2;
  mix.rate = 100.0;
  mix.batch_every = 10;
  mix.interactive = {400, 600, 100};
  mix.batch = {3000, 4000, 200};
  return mix;
}

TEST(ArrivalSchedule, SameSeedSameSchedule) {
  const auto a = arrival_schedule(7, test_mix(), 2.0, 50);
  const auto b = arrival_schedule(7, test_mix(), 2.0, 50);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due, b[i].due);
    EXPECT_EQ(a[i].spec.job_id, b[i].spec.job_id);
    EXPECT_EQ(a[i].spec.n, b[i].spec.n);
    EXPECT_EQ(a[i].spec.deadline, b[i].spec.deadline);
    EXPECT_EQ(a[i].spec.scenario, b[i].spec.scenario);
  }
  const auto c = arrival_schedule(8, test_mix(), 2.0, 50);
  EXPECT_TRUE(c.size() != a.size() || c.front().due != a.front().due);
}

TEST(ArrivalSchedule, FixedCountAndStratifiedMix) {
  using hdem::serve::DeadlineClass;
  const auto a = arrival_schedule(3, test_mix(), 10.0, 0);
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_NEAR(a.back().due, 10.0, 1.0);
  std::size_t batch = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(a[i].due, a[i - 1].due);
    }
    const bool is_batch = a[i].spec.deadline == DeadlineClass::kBatch;
    batch += is_batch ? 1 : 0;
    const auto& cls = is_batch ? test_mix().batch : test_mix().interactive;
    EXPECT_GE(a[i].spec.n, cls.n_min);
    EXPECT_LE(a[i].spec.n, cls.n_max);
    EXPECT_EQ(a[i].spec.steps, cls.steps);
    if (i >= 3) {
      EXPECT_EQ(a[i].spec.scenario, a[i - 3].spec.scenario);
    }
  }
  EXPECT_EQ(batch, 100u);
  // A short window is extended until enough interactive jobs are due.
  const auto b = arrival_schedule(3, test_mix(), 1.0, 500);
  std::size_t interactive = 0;
  for (const auto& x : b) {
    interactive += x.spec.deadline == DeadlineClass::kInteractive ? 1 : 0;
  }
  EXPECT_EQ(interactive, 500u);
}

std::vector<hdem::StateRecord<2>> test_state(const hdem::SimConfig<2>& cfg,
                                             std::size_t n) {
  const auto init = hdem::uniform_random_particles(cfg, n);
  std::vector<hdem::StateRecord<2>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<std::int32_t>(i), init[i].pos, init[i].vel});
  }
  return out;
}

TEST(SimCheck, NudgedCoordinateFailsUntouchedCopyPasses) {
  hdem::SimConfig<2> cfg;
  cfg.box = hdem::Vec<2>(1.0);
  const hdem::Boundary<2> boundary(cfg.bc, cfg.box);
  const auto ref = test_state(cfg, 200);
  hdem::Vec<2> p0{};
  double speed = 0.0;
  for (const auto& r : ref) {
    p0 += r.vel;
    speed += hdem::norm(r.vel);
  }
  const auto copy = ref;
  EXPECT_TRUE(check_sim_state<2>(copy, 200, boundary, p0, speed, ref, {})
                  .empty());
  auto nudged = ref;
  nudged[17].pos[1] += 1e-3;
  EXPECT_FALSE(check_sim_state<2>(nudged, 200, boundary, p0, speed, ref, {})
                   .empty());
  // A copy shifted by a whole box edge is the same state (minimum image).
  auto wrapped = ref;
  wrapped[5].pos[0] += cfg.box[0];
  EXPECT_TRUE(check_sim_state<2>(wrapped, 200, boundary, p0, speed, ref, {})
                  .empty());
}

TEST(SimCheck, LostDuplicatedNonFiniteAndMomentum) {
  hdem::SimConfig<2> cfg;
  cfg.box = hdem::Vec<2>(1.0);
  const hdem::Boundary<2> boundary(cfg.bc, cfg.box);
  const auto ref = test_state(cfg, 50);
  hdem::Vec<2> p0{};
  double speed = 0.0;
  for (const auto& r : ref) {
    p0 += r.vel;
    speed += hdem::norm(r.vel);
  }
  auto dup = ref;
  dup[3].id = 4;
  EXPECT_FALSE(
      check_sim_state<2>(dup, 50, boundary, p0, speed, {}, {}).empty());
  auto lost = ref;
  lost.pop_back();
  EXPECT_FALSE(
      check_sim_state<2>(lost, 50, boundary, p0, speed, {}, {}).empty());
  auto nan = ref;
  nan[9].pos[0] = std::nan("");
  EXPECT_FALSE(
      check_sim_state<2>(nan, 50, boundary, p0, speed, {}, {}).empty());
  auto kicked = ref;
  kicked[2].vel[0] += 1e-3;
  EXPECT_FALSE(
      check_sim_state<2>(kicked, 50, boundary, p0, speed, {}, {}).empty());
}

TEST(JobCheck, TruncatedCheckpointFails) {
  namespace fs = std::filesystem;
  const fs::path dir = "perfbench_test_ckpt";
  fs::create_directories(dir);
  hdem::serve::JobSpec spec;
  spec.n = 300;
  spec.steps = 5;
  spec.checkpoint_path = (dir / "job.ckpt").string();
  auto job = hdem::serve::make_job(spec);
  job->advance(spec.steps);
  EXPECT_TRUE(check_job_checkpoint(spec.checkpoint_path, 2, 300).empty());
  EXPECT_FALSE(check_job_checkpoint(spec.checkpoint_path, 2, 299).empty());
  fs::copy_file(spec.checkpoint_path, dir / "copy.ckpt",
                fs::copy_options::overwrite_existing);
  EXPECT_TRUE(same_bytes(spec.checkpoint_path, (dir / "copy.ckpt").string()));
  fs::resize_file(spec.checkpoint_path,
                  fs::file_size(spec.checkpoint_path) - 8);
  EXPECT_FALSE(check_job_checkpoint(spec.checkpoint_path, 2, 300).empty());
  EXPECT_FALSE(same_bytes(spec.checkpoint_path, (dir / "copy.ckpt").string()));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace perfbench

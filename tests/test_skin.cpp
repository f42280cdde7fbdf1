// Verlet skin lists: config validation of the widened radii, the
// DriftTracker that all three drivers share, exact rebuild schedules under
// the measured-drift trigger (serial, smp, mp), the skin's widening of the
// reuse interval, cross-skin bit-identity with the binning capacity
// pinned, and the mp path's skipped migrations / halo-template refreshes
// / shared-window republications.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ci_knobs.hpp"
#include "core/config.hpp"
#include "core/dynamics.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"

namespace hdem {
namespace {

// -- configuration ----------------------------------------------------------

TEST(SkinConfig, WidenedRadiiAndAllowance) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.skin_factor = 0.4;
  EXPECT_DOUBLE_EQ(cfg.skin(), 0.4 * cfg.cutoff());
  EXPECT_DOUBLE_EQ(cfg.list_radius(), 1.4 * cfg.cutoff());
  // Capacity follows the skin by default...
  EXPECT_DOUBLE_EQ(cfg.binning_radius(), 1.4 * cfg.cutoff());
  // ...and can be pinned wider.
  cfg.skin_cap_factor = 0.5;
  EXPECT_DOUBLE_EQ(cfg.binning_radius(), 1.5 * cfg.cutoff());
  EXPECT_DOUBLE_EQ(cfg.list_radius(), 1.4 * cfg.cutoff());
  EXPECT_DOUBLE_EQ(cfg.drift_allowance(),
                   0.5 * (1.4 * cfg.cutoff() - cfg.rmax()));
  // skin = 0 reproduces the classic sliver 0.5*(rc - rmax).
  SimConfig<2> base = ci_config<2>();
  EXPECT_DOUBLE_EQ(base.drift_allowance(),
                   0.5 * (base.cutoff() - base.rmax()));
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SkinConfig, RejectsNegativeSkin) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.skin_factor = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SkinConfig, RejectsCapacityBelowSkin) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.skin_factor = 0.3;
  cfg.skin_cap_factor = 0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SkinConfig, BoxCheckUsesWidenedRadius) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(0.5);
  EXPECT_NO_THROW(cfg.validate());  // 0.5 >= 3 * 0.075
  cfg.skin_factor = 2.0;            // binning radius 0.225, needs 0.675
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.box = Vec<2>(0.7);
  EXPECT_NO_THROW(cfg.validate());
}

// HDEM_SKIN reaches no default of --skin or SimConfig::skin_factor (only
// tests/ci_knobs.hpp reads it, for the CI matrix).
TEST(SkinCli, EnvDefault) { expect_environment_never_reaches_a_default(); }

// -- the shared drift tracker -----------------------------------------------

TEST(DriftTrackerTest, MeasuredModeFollowsTheMeasurement) {
  DriftTracker t(/*measured=*/true, /*dt=*/1e-3);
  double probe = 0.0;
  t.advance(100.0, [&] { return probe; });  // max_v is ignored
  EXPECT_DOUBLE_EQ(t.drift(), 0.0);
  EXPECT_TRUE(t.valid(0.5));
  probe = 0.7;
  t.advance(0.0, [&] { return probe; });
  EXPECT_DOUBLE_EQ(t.drift(), 0.7);
  EXPECT_FALSE(t.valid(0.5));
  probe = 0.1;  // measured drift may shrink (a particle turned back)
  t.advance(0.0, [&] { return probe; });
  EXPECT_DOUBLE_EQ(t.drift(), 0.1);
  EXPECT_TRUE(t.valid(0.5));
  t.reset();
  EXPECT_DOUBLE_EQ(t.drift(), 0.0);
}

TEST(DriftTrackerTest, EstimatedModeAccumulatesMaxSpeed) {
  DriftTracker t(/*measured=*/false, /*dt=*/0.5);
  t.advance(1.0, [] { return 1000.0; });  // the measurement is ignored
  t.advance(3.0, [] { return 1000.0; });
  EXPECT_DOUBLE_EQ(t.drift(), 2.0);  // 1.0*0.5 + 3.0*0.5
  EXPECT_FALSE(t.valid(2.0));
  t.reset();
  EXPECT_TRUE(t.valid(2.0));
}

// -- exact rebuild schedules ------------------------------------------------

// A lone mover at constant velocity among distant stationary particles:
// no contacts, no forces, so measured drift after k reused steps is
// exactly k*v*dt and the rebuild schedule is computable in closed form.
std::vector<ParticleInit<2>> mover_and_bystanders(double vx) {
  return {{{0.3, 0.5}, {vx, 0.0}},
          {{0.7, 0.25}, {0.0, 0.0}},
          {{0.7, 0.75}, {0.0, 0.0}}};
}

SimConfig<2> schedule_config(double skin) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.dt = 5e-4;
  cfg.skin_factor = skin;
  return cfg;
}

// With v = 5.2 each step displaces the mover by 0.0026.  The allowance is
// 0.5*(rc*(1+skin) - rmax): 0.0125 at skin 0 (5-step interval) and
// 0.02375 at skin 0.3 (10-step interval).  Over 30 steps after the
// constructor's build the schedules are rebuilds at steps {6,11,16,21,26}
// (6 total) and {11,21} (3 total).
constexpr int kScheduleSteps = 30;

struct ScheduleExpectation {
  double skin;
  std::uint64_t rebuilds;
  std::uint64_t skipped;
};
const ScheduleExpectation kSchedules[] = {{0.0, 6, 24}, {0.3, 3, 27}};

TEST(SkinSchedule, SerialMeasuredTriggerIsExact) {
  for (const auto& e : kSchedules) {
    const auto cfg = schedule_config(e.skin);
    const auto init = mover_and_bystanders(5.2);
    SerialSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
    sim.run(kScheduleSteps);
    EXPECT_EQ(sim.counters().rebuilds, e.rebuilds) << "skin=" << e.skin;
    EXPECT_EQ(sim.counters().rebuilds_skipped, e.skipped)
        << "skin=" << e.skin;
  }
}

TEST(SkinSchedule, SmpMeasuredTriggerIsExact) {
  for (const auto& e : kSchedules) {
    const auto cfg = schedule_config(e.skin);
    const auto init = mover_and_bystanders(5.2);
    SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init, 2,
                  ReductionKind::kColored);
    sim.run(kScheduleSteps);
    EXPECT_EQ(sim.counters().rebuilds, e.rebuilds) << "skin=" << e.skin;
    EXPECT_EQ(sim.counters().rebuilds_skipped, e.skipped)
        << "skin=" << e.skin;
  }
}

TEST(SkinSchedule, MpMeasuredTriggerIsExactAndSkipsWholePipeline) {
  for (const auto& e : kSchedules) {
    const auto cfg = schedule_config(e.skin);
    const auto init = mover_and_bystanders(5.2);
    const auto layout = DecompLayout<2>::make(2, 1);
    mp::run(2, [&](mp::Comm& comm) {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                   ci_knobs());
      sim.run(kScheduleSteps);
      const Counters& c = sim.counters();
      EXPECT_EQ(c.rebuilds, e.rebuilds)
          << "skin=" << e.skin << " rank=" << comm.rank();
      EXPECT_EQ(c.rebuilds_skipped, e.skipped)
          << "skin=" << e.skin << " rank=" << comm.rank();
      // Every reused step skips the migration check and the halo-template
      // refresh along with the rebuild.
      EXPECT_EQ(c.migrations_skipped, e.skipped) << "skin=" << e.skin;
      EXPECT_EQ(c.halo_rebuilds_skipped, e.skipped) << "skin=" << e.skin;
    });
  }
}

// The measured trigger (PR 6) reacts to the true displacement, not the
// accumulated speed bound: a particle that bounces off a wall and heads
// back toward its rebuild-time position keeps the list valid, while the
// estimated mode keeps integrating max_v*dt and rebuilds anyway.
TEST(SkinSchedule, MeasuredTriggerSurvivesAWallBounce) {
  for (const bool measured : {true, false}) {
    SimConfig<2> cfg = ci_config<2>();
    cfg.box = Vec<2>(1.0);
    cfg.bc = BoundaryKind::kWalls;
    cfg.dt = 5e-4;
    cfg.skin_factor = 1.9;  // allowance 0.08375
    cfg.drift_measured = measured;
    const std::vector<ParticleInit<2>> init = {{{0.979, 0.5}, {5.0, 0.0}}};
    SerialSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
    sim.run(45);
    if (measured) {
      // Bounce at ~step 9; net displacement never reaches the allowance.
      EXPECT_EQ(sim.counters().rebuilds, 1u);
    } else {
      // 34 * 5 * 5e-4 = 0.085 >= 0.08375 at the start of step 35.
      EXPECT_EQ(sim.counters().rebuilds, 2u);
    }
  }
}

// -- cross-skin bit-identity ------------------------------------------------

// With the binning capacity pinned the cell geometry, reorder permutation
// and traversal order are skin-independent; the extra candidates are
// exact no-ops in the distance-gated pair kernel; and with no post-init
// rebuild inside the window the schedules coincide — so the trajectories
// agree bit for bit while the candidate lists differ (DESIGN §3.7).
TEST(SkinIdentity, SerialTrajectoriesBitIdenticalAcrossSkins) {
  auto run = [](double skin) {
    SimConfig<2> cfg = ci_config<2>();
    cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(600));
    cfg.seed = 19;
    cfg.dt = 2.5e-4;
    cfg.velocity_scale = 0.05;
    cfg.skin_factor = skin;
    cfg.skin_cap_factor = 0.3;  // pinned across the sweep
    const auto init = uniform_random_particles(cfg, 600);
    auto sim = std::make_unique<SerialSim<2>>(
        cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
    sim->run(120);
    return sim;
  };
  const auto a = run(0.0);
  const auto b = run(0.3);
  // Guard rails: the comparison window must be contact-rich and entirely
  // rebuild-free (rebuild timing is bit-visible, so the gate is only
  // meaningful when no schedule divergence is possible).
  ASSERT_EQ(a->counters().rebuilds, 1u);
  ASSERT_EQ(b->counters().rebuilds, 1u);
  ASSERT_GT(a->counters().contacts, 0u);
  // The superset is real: the wider skin generated more candidates.
  ASSERT_GT(b->counters().links_core, a->counters().links_core);
  ASSERT_EQ(a->store().size(), b->store().size());
  for (std::size_t i = 0; i < a->store().size(); ++i) {
    ASSERT_EQ(a->store().id(i), b->store().id(i)) << i;
    for (int d = 0; d < 2; ++d) {
      ASSERT_EQ(a->store().pos(i)[d], b->store().pos(i)[d]) << i;
      ASSERT_EQ(a->store().vel(i)[d], b->store().vel(i)[d]) << i;
    }
  }
}

// -- shared-window republication rides the rebuild schedule -----------------

TEST(SkinSharedWindow, RepublishesOnlyAtRebuilds) {
  std::uint64_t republishes[2] = {0, 0};
  std::uint64_t rebuilds[2] = {0, 0};
  int idx = 0;
  for (const double skin : {0.0, 0.3}) {
    const auto cfg = schedule_config(skin);
    const auto init = mover_and_bystanders(5.2);
    const auto layout = DecompLayout<2>::make(2, 1);
    typename MpSim<2>::Options opts = ci_knobs();
    opts.shared_halo = true;
    opts.ranks_per_node = 0;  // both ranks on one node
    mp::run(2, [&](mp::Comm& comm) {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(kScheduleSteps);
      if (comm.rank() == 0) {
        republishes[idx] = sim.counters().window_republishes;
        rebuilds[idx] = sim.counters().rebuilds;
      }
    });
    ++idx;
  }
  // Republication happens only inside rebuild(), so the counts scale with
  // the rebuild schedule: 6 rebuilds at skin 0 vs 3 at skin 0.3.
  ASSERT_EQ(rebuilds[0], 6u);
  ASSERT_EQ(rebuilds[1], 3u);
  ASSERT_GT(republishes[1], 0u);
  EXPECT_EQ(republishes[0], 2 * republishes[1]);
}

}  // namespace
}  // namespace hdem

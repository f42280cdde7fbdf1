// Physical invariants as tests.
//
// Momentum.  Pair forces are equal and opposite, so with periodic
// boundaries and no gravity the total momentum of a run is conserved to
// rounding, under every driver, force executor and step schedule.  A
// core-halo pair is evaluated once on each side of a block face; when the
// two sides disagree (a stale halo copy, one side's force dropped or
// counted twice) the total moves by pair forces, many orders of magnitude
// above the bound.  Dropping both halves of a pair conserves momentum; the
// trajectory identity suites catch that.
//
// Energy.  The symplectic integrator keeps the total energy of the elastic
// benchmark system within a small band; a force that disagrees with its
// potential, or a potential counted with the wrong weight, moves it out of
// that band.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "ci_knobs.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"

namespace hdem {
namespace {

constexpr std::uint64_t kParticles = 500;
constexpr std::uint64_t kSteps = 400;

SimConfig<2> momentum_config() {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 31;
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.gravity = Vec<2>{};
  cfg.velocity_scale = 0.8;  // rebuilds and migrations inside the window
  cfg.skin_factor = ci_knobs().skin_factor;
  return cfg;
}

ElasticSphere model_of(const SimConfig<2>& cfg) {
  return ElasticSphere{cfg.stiffness, cfg.diameter};
}

// |sum v(t) - sum v(0)| <= 1e-12 * sum |v(0)| (unit masses).
void expect_momentum_conserved(const std::vector<ParticleInit<2>>& init,
                               const std::vector<Vec<2>>& final_vel) {
  ASSERT_EQ(init.size(), final_vel.size());
  Vec<2> p0{};
  Vec<2> p1{};
  double speed_sum = 0.0;
  for (std::size_t i = 0; i < init.size(); ++i) {
    p0 += init[i].vel;
    p1 += final_vel[i];
    speed_sum += std::sqrt(norm2(init[i].vel));
  }
  EXPECT_LE(std::sqrt(norm2(p1 - p0)), 1e-12 * speed_sum);
}

template <class Sim>
std::vector<Vec<2>> velocities(const Sim& sim) {
  std::vector<Vec<2>> v;
  for (std::size_t i = 0; i < sim.store().size(); ++i) {
    v.push_back(sim.store().vel(i));
  }
  return v;
}

TEST(Momentum, SerialSim) {
  const auto cfg = momentum_config();
  const auto init = uniform_random_particles(cfg, kParticles);
  SerialSim<2> sim(cfg, model_of(cfg), init);
  sim.run(kSteps);
  EXPECT_GT(sim.counters().contacts, 0u);
  expect_momentum_conserved(init, velocities(sim));
}

TEST(Momentum, SmpSimColoredT2) {
  const auto cfg = momentum_config();
  const auto init = uniform_random_particles(cfg, kParticles);
  SmpSim<2> sim(cfg, model_of(cfg), init, 2, ReductionKind::kColored);
  sim.run(kSteps);
  expect_momentum_conserved(init, velocities(sim));
}

// MpSim at P = 4, B/P = 4 through every force executor (plain kernel at
// T = 1, per-block team pass, fused atomic family, fused colored) under
// both step schedules.
struct MpCase {
  const char* name;
  int nthreads;
  ReductionKind reduction;
  bool fused;
  bool overlap;
};

void PrintTo(const MpCase& c, std::ostream* os) { *os << c.name; }

class MomentumMp : public ::testing::TestWithParam<MpCase> {};

TEST_P(MomentumMp, Conserved) {
  const MpCase c = GetParam();
  const auto cfg = momentum_config();
  const auto init = uniform_random_particles(cfg, kParticles);
  const auto layout = DecompLayout<2>::make(4, 4);
  std::vector<Vec<2>> final_vel;
  mp::run(4, [&](mp::Comm& comm) {
    typename MpSim<2>::Options opts;
    opts.nthreads = c.nthreads;
    opts.reduction = c.reduction;
    opts.fused = c.fused;
    opts.overlap = c.overlap;
    MpSim<2> sim(cfg, layout, comm, model_of(cfg), init, opts);
    sim.run(kSteps);
    const auto state = sim.gather_state();
    if (comm.rank() != 0) return;
    for (const auto& r : state) final_vel.push_back(r.vel);
  });
  expect_momentum_conserved(init, final_vel);
}

INSTANTIATE_TEST_SUITE_P(
    Executors, MomentumMp,
    ::testing::Values(
        MpCase{"T1_sync", 1, ReductionKind::kColored, false, false},
        MpCase{"T1_overlap", 1, ReductionKind::kColored, false, true},
        MpCase{"per_block_colored_T2_sync", 2, ReductionKind::kColored, false,
               false},
        MpCase{"per_block_colored_T2_overlap", 2, ReductionKind::kColored,
               false, true},
        MpCase{"fused_colored_T2_sync", 2, ReductionKind::kColored, true,
               false},
        MpCase{"fused_colored_T2_overlap", 2, ReductionKind::kColored, true,
               true},
        MpCase{"fused_selected_atomic_T2_sync", 2,
               ReductionKind::kSelectedAtomic, true, false},
        MpCase{"fused_selected_atomic_T2_overlap", 2,
               ReductionKind::kSelectedAtomic, true, true}),
    [](const ::testing::TestParamInfo<MpCase>& info) {
      return std::string(info.param.name);
    });

// The quickstart workload (examples/quickstart: 2-D, paper density,
// rc = 1.5 rmax, seed 2026, periodic) at n = 2000 for 200 steps, where the
// serial driver's relative drift |E(200) - E(1)| / |E(1)| is 3.77e-4
// (quickstart --n=2000 --steps=200; 3.1e-4 at the default n = 20000).
// The bound is 4x that.  The threaded and decomposed drivers follow the
// same trajectory to rounding, so they share the bound.
constexpr std::uint64_t kDriftParticles = 2000;
constexpr std::uint64_t kDriftSteps = 200;
constexpr double kDriftBound = 1.5e-3;

SimConfig<2> quickstart_config() {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(kDriftParticles));
  cfg.cutoff_factor = 1.5;
  cfg.seed = 2026;
  cfg.bc = BoundaryKind::kPeriodic;
  return cfg;
}

double relative_drift(double e1, double e_end) {
  return std::abs(e_end - e1) / std::abs(e1);
}

template <class Sim>
double undecomposed_drift(Sim& sim) {
  sim.step();
  const double e1 = sim.total_energy();
  sim.run(kDriftSteps - 1);
  return relative_drift(e1, sim.total_energy());
}

TEST(EnergyDrift, SerialSim) {
  const auto cfg = quickstart_config();
  auto sim = SerialSim<2>::make_random(cfg, model_of(cfg), kDriftParticles);
  EXPECT_LE(undecomposed_drift(sim), kDriftBound);
}

TEST(EnergyDrift, SmpSimColoredT4) {
  const auto cfg = quickstart_config();
  auto sim = SmpSim<2>::make_random(cfg, model_of(cfg), kDriftParticles, 4,
                                    ReductionKind::kColored);
  EXPECT_LE(undecomposed_drift(sim), kDriftBound);
}

// Four blocks over P ranks of T threads each.
double mp_drift(int procs, int threads, bool fused) {
  const auto cfg = quickstart_config();
  const auto init = uniform_random_particles(cfg, kDriftParticles);
  const auto layout = DecompLayout<2>::make(procs, 4 / procs);
  double drift = 0.0;
  mp::run(procs, [&](mp::Comm& comm) {
    typename MpSim<2>::Options opts;
    opts.nthreads = threads;
    opts.reduction = ReductionKind::kColored;
    opts.fused = fused;
    MpSim<2> sim(cfg, layout, comm, model_of(cfg), init, opts);
    sim.step();
    const double e1 = sim.global_energy();
    sim.run(kDriftSteps - 1);
    const double e_end = sim.global_energy();
    if (comm.rank() == 0) drift = relative_drift(e1, e_end);
  });
  return drift;
}

TEST(EnergyDrift, MpSimP4) { EXPECT_LE(mp_drift(4, 1, false), kDriftBound); }

TEST(EnergyDrift, MpSimFused2x2) {
  EXPECT_LE(mp_drift(2, 2, true), kDriftBound);
}

}  // namespace
}  // namespace hdem

// Physical invariants as tests.  Pair forces are equal and opposite, so
// with periodic boundaries and no gravity the total momentum of a run is
// conserved to rounding, under every driver, force executor and step
// schedule.  A core-halo pair is evaluated once on each side of a block
// face; when the two sides disagree (a stale halo copy, one side's force
// dropped or counted twice) the total moves by pair forces, many orders
// of magnitude above the bound.  Dropping both halves of a pair conserves
// momentum; the trajectory identity suites catch that.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "util/skin_cli.hpp"

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
  cfg.skin_factor = skin_env_default();
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

}  // namespace
}  // namespace hdem

// Cross-cutting force-pass properties: velocity-dependent models under
// threads and per-iteration counter linearity (regression test for tally
// draining).
#include <gtest/gtest.h>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "driver/smp_sim.hpp"
#include "reduction/force_pass.hpp"

namespace hdem {
namespace {

struct VelocityFixture {
  static constexpr int D = 2;
  SimConfig<D> cfg;
  Boundary<D> bc;
  ParticleStore<D> store;
  CellGrid<D> grid;
  LinkList list;

  VelocityFixture() {
    cfg.box = Vec<D>(1.0);
    cfg.seed = 43;
    cfg.velocity_scale = 0.5;  // non-trivial relative velocities
    bc = Boundary<D>(cfg.bc, cfg.box);
    for (const auto& p : uniform_random_particles(cfg, 500)) {
      store.push_back(p.pos, p.vel);
    }
    std::array<bool, D> wrap{};
    wrap.fill(true);
    grid.configure(Vec<D>{}, cfg.box, cfg.cutoff(), wrap);
    grid.bin(store.positions(), store.size());
    auto disp = [&](const Vec<D>& a, const Vec<D>& b) {
      return bc.displacement(a, b);
    };
    build_links(list, grid, store.cpositions(), store.size(), cfg.cutoff(),
                disp);
  }
};

TEST(ForcePassModels, DissipativeSphereThreadedMatchesSerial) {
  VelocityFixture f;
  const DissipativeSphere model{100.0, 2.5, f.cfg.diameter};
  auto disp = [&](const Vec<2>& a, const Vec<2>& b) {
    return f.bc.displacement(a, b);
  };
  zero_forces(f.store);
  const double pe_ref = accumulate_forces<2>(f.list.core(), f.store, model,
                                             disp, true, 1.0);
  const std::vector<Vec<2>> ref(f.store.forces().begin(),
                                f.store.forces().end());

  smp::ThreadTeam team(4);
  auto acc = make_accumulator<2>(ReductionKind::kSelectedAtomic);
  prepare_accumulator<2>(acc, team.size(), f.list, f.store.size());
  const double pe = dispatch_force_pass<2>(acc, team, f.list, f.store, model,
                                           disp);
  EXPECT_NEAR(pe, pe_ref, 1e-12 * std::abs(pe_ref) + 1e-15);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LT(norm(f.store.frc(i) - ref[i]), 1e-10);
  }
}

TEST(ForcePassModels, CountersScaleLinearlyWithIterations) {
  // Regression test: accumulator tallies must be drained every pass, so
  // N iterations report exactly N times the per-iteration counts (the
  // original bug reported a quadratically growing sum).
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 47;
  const auto init = uniform_random_particles(cfg, 400);
  auto counts_after = [&](int iters) {
    SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init, 4,
                  ReductionKind::kSelectedAtomic);
    sim.run(static_cast<std::uint64_t>(iters));
    return sim.counters();
  };
  const Counters one = counts_after(1);
  const Counters four = counts_after(4);
  EXPECT_EQ(four.atomic_updates, 4 * one.atomic_updates);
  EXPECT_EQ(four.plain_updates, 4 * one.plain_updates);
  EXPECT_EQ(four.force_evals, 4 * one.force_evals);
}

TEST(ForcePassModels, ReductionBytesScaleLinearlyWithIterations) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 49;
  const auto init = uniform_random_particles(cfg, 300);
  auto bytes_after = [&](int iters) {
    SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init, 3,
                  ReductionKind::kTranspose);
    sim.run(static_cast<std::uint64_t>(iters));
    return sim.counters().reduction_bytes;
  };
  EXPECT_EQ(bytes_after(4), 4 * bytes_after(1));
}

TEST(ForcePassModels, BondedSpringThreadedMatchesSerial) {
  VelocityFixture f;
  // Treat every link as a (weak) bond: exercises the always-interacting
  // branch under threads.
  const BondedSpring model{10.0, 0.5, f.cfg.diameter};
  auto disp = [&](const Vec<2>& a, const Vec<2>& b) {
    return f.bc.displacement(a, b);
  };
  zero_forces(f.store);
  const double pe_ref = accumulate_forces<2>(f.list.core(), f.store, model,
                                             disp, true, 1.0);
  smp::ThreadTeam team(3);
  auto acc = make_accumulator<2>(ReductionKind::kStripe);
  prepare_accumulator<2>(acc, team.size(), f.list, f.store.size());
  const double pe = dispatch_force_pass<2>(acc, team, f.list, f.store, model,
                                           disp);
  EXPECT_NEAR(pe, pe_ref, 1e-12 * std::abs(pe_ref) + 1e-15);
}

}  // namespace
}  // namespace hdem

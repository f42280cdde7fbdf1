#include "core/serial_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace hdem {
namespace {

template <int D>
SimConfig<D> small_config(BoundaryKind bc = BoundaryKind::kPeriodic) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = bc;
  cfg.seed = 7;
  return cfg;
}

TEST(SerialSim, ConstructionBuildsLinks) {
  auto cfg = small_config<2>();
  auto sim = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 500);
  EXPECT_EQ(sim.counters().rebuilds, 1u);
  EXPECT_GT(sim.links().size(), 0u);
  EXPECT_EQ(sim.store().size(), 500u);
}

TEST(SerialSim, EnergyConservedPeriodic) {
  auto cfg = small_config<2>();
  cfg.dt = 2e-4;
  auto sim = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 400);
  sim.step();
  const double e0 = sim.total_energy();
  sim.run(400);
  EXPECT_NEAR(sim.total_energy(), e0, 0.02 * std::abs(e0) + 1e-9);
}

TEST(SerialSim, EnergyConservedWalls3D) {
  auto cfg = small_config<3>(BoundaryKind::kWalls);
  cfg.dt = 2e-4;
  auto sim = SerialSim<3>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 400);
  sim.step();
  const double e0 = sim.total_energy();
  sim.run(400);
  EXPECT_NEAR(sim.total_energy(), e0, 0.02 * std::abs(e0) + 1e-9);
}

TEST(SerialSim, ReorderDoesNotChangePhysics) {
  auto cfg = small_config<2>();
  cfg.velocity_scale = 1.0;  // force frequent rebuilds
  auto a_cfg = cfg;
  a_cfg.reorder = false;
  auto sim_plain = SerialSim<2>::make_random(a_cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 400);
  auto sim_sorted = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 400);
  sim_plain.run(120);
  sim_sorted.run(120);
  EXPECT_GT(sim_sorted.counters().reorders, 1u);
  std::map<int, Vec<2>> plain;
  for (std::size_t i = 0; i < sim_plain.store().size(); ++i) {
    plain[sim_plain.store().id(i)] = sim_plain.store().pos(i);
  }
  double max_err = 0.0;
  for (std::size_t i = 0; i < sim_sorted.store().size(); ++i) {
    const auto d = sim_sorted.boundary().displacement(
        sim_sorted.store().pos(i), plain.at(sim_sorted.store().id(i)));
    max_err = std::max(max_err, norm(d));
  }
  EXPECT_LT(max_err, 1e-9);
}

TEST(SerialSim, ReorderImprovesLinkLocality) {
  auto cfg = small_config<2>();
  auto no = cfg;
  no.reorder = false;
  auto sim_plain = SerialSim<2>::make_random(no, ElasticSphere{cfg.stiffness, cfg.diameter}, 2000);
  auto sim_sorted = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 2000);
  EXPECT_LT(sim_sorted.counters().mean_link_gap(),
            0.2 * sim_plain.counters().mean_link_gap());
}

TEST(SerialSim, RebuildTriggeredByDrift) {
  auto cfg = small_config<2>();
  cfg.velocity_scale = 1.0;
  auto sim = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 300);
  sim.run(200);
  EXPECT_GT(sim.counters().rebuilds, 2u);
}

TEST(SerialSim, ForcedRebuildIsNoopForPhysics) {
  auto cfg = small_config<2>();
  auto a = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 300);
  auto b = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 300);
  a.run(10);
  b.run(10);
  b.rebuild();  // extra rebuild must not change the trajectory
  a.run(10);
  b.run(10);
  std::map<int, Vec<2>> pa;
  for (std::size_t i = 0; i < a.store().size(); ++i) pa[a.store().id(i)] = a.store().pos(i);
  for (std::size_t i = 0; i < b.store().size(); ++i) {
    const auto d = b.boundary().displacement(b.store().pos(i), pa.at(b.store().id(i)));
    EXPECT_LT(norm(d), 1e-12);
  }
}

TEST(SerialSim, GravityAccelerates) {
  auto cfg = small_config<2>(BoundaryKind::kWalls);
  cfg.gravity = Vec<2>(0.0, -5.0);
  cfg.velocity_scale = 0.0;
  auto sim = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 10);
  const double y0 = sim.store().pos(0)[1];
  sim.run(10);
  EXPECT_LT(sim.store().pos(0)[1], y0);
}

TEST(SerialSim, IterationCounting) {
  auto cfg = small_config<2>();
  auto sim = SerialSim<2>::make_random(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 100);
  sim.run(17);
  EXPECT_EQ(sim.counters().iterations, 17u);
  EXPECT_EQ(sim.counters().position_updates, 17u * 100u);
}

// The bond tests run on the serial driver (a one-member team) and on a
// four-member colored team.
constexpr int kBondTeams[] = {1, 4};

std::string team_label(int threads) { return "T=" + std::to_string(threads); }

TEST(SerialSim, BondHoldsDimerTogether) {
  for (const int threads : kBondTeams) {
    SCOPED_TRACE(team_label(threads));
    auto cfg = small_config<2>(BoundaryKind::kWalls);
    cfg.velocity_scale = 0.0;
    std::vector<ParticleInit<2>> init = {
        {Vec<2>(0.4, 0.5), Vec<2>(0.5, 0.0)},
        {Vec<2>(0.45, 0.5), Vec<2>(-0.5, 0.0)}};
    SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                  threads);
    sim.add_bond(0, 1, BondedSpring{500.0, 2.0, 0.05});
    sim.run(2000);
    // With damping, the dimer settles near its rest separation even though
    // the particles started with opposing velocities.
    const double sep = norm(sim.store().pos(0) - sim.store().pos(1));
    EXPECT_NEAR(sep, 0.05, 0.02);
  }
}

TEST(SerialSim, BondsSurviveReordering) {
  for (const int threads : kBondTeams) {
    SCOPED_TRACE(team_label(threads));
    auto cfg = small_config<2>(BoundaryKind::kWalls);
    cfg.velocity_scale = 1.0;  // force rebuilds (and reorders)
    auto init = uniform_random_particles(cfg, 300);
    // Start the bonded pair adjacent (a bond across the box would explode).
    init[0].pos = Vec<2>(0.50, 0.50);
    init[1].pos = Vec<2>(0.55, 0.50);
    SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                  threads);
    // Bond two specific *ids*; after reorders the bond must still join the
    // same physical pair, holding them close.
    sim.add_bond(0, 1, BondedSpring{2000.0, 5.0, 0.05});
    sim.run(300);
    EXPECT_GT(sim.counters().reorders, 1u);
    Vec<2> p0{}, p1{};
    for (std::size_t i = 0; i < sim.store().size(); ++i) {
      if (sim.store().id(i) == 0) p0 = sim.store().pos(i);
      if (sim.store().id(i) == 1) p1 = sim.store().pos(i);
    }
    EXPECT_LT(norm(sim.boundary().displacement(p0, p1)), 0.2);
  }
}

TEST(SerialSim, AddBondValidatesIndices) {
  for (const int threads : kBondTeams) {
    SCOPED_TRACE(team_label(threads));
    auto cfg = small_config<2>();
    auto sim = SmpSim<2>::make_random(
        cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 10, threads);
    EXPECT_THROW(sim.add_bond(0, 0, BondedSpring{}), std::invalid_argument);
    EXPECT_THROW(sim.add_bond(0, 100, BondedSpring{}), std::invalid_argument);
    EXPECT_THROW(sim.add_bond(-1, 1, BondedSpring{}), std::invalid_argument);
  }
}

// Bonded grains of a dissipative model in a walled box, through several
// reorders: bond forces land on the master after the team's pass, so
// positions and velocities are bit-identical at every team size.  Only the
// potential's per-thread partial sums are added in another order.
TEST(SerialSim, BondedDissipativeRunIdenticalAcrossTeams) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.bc = BoundaryKind::kWalls;
  cfg.gravity = Vec<2>(0.0, -1.0);
  cfg.velocity_scale = 1.0;  // rebuilds (and reorders) inside the run
  cfg.seed = 19;
  auto init = uniform_random_particles(cfg, 600);
  // 100 dimers: particle 2k+1 sits one rest length right of particle 2k.
  for (std::size_t k = 0; k < 100; ++k) {
    init[2 * k + 1].pos =
        init[2 * k].pos + Vec<2>(init[2 * k].pos[0] < 0.9 ? 0.05 : -0.05, 0.0);
  }
  const DissipativeSphere model{cfg.stiffness, 1.0, cfg.diameter};

  struct Result {
    std::vector<StateRecord<2>> state;
    double potential = 0.0;
    std::uint64_t reorders = 0;
  };
  const auto run = [&](int threads) {
    SmpSim<2, DissipativeSphere> sim(cfg, model, init, threads);
    for (std::int32_t k = 0; k < 100; ++k) {
      sim.add_bond(2 * k, 2 * k + 1, BondedSpring{500.0, 2.0, 0.05});
    }
    sim.run(300);
    Result r;
    r.state.resize(sim.store().size());
    for (std::size_t i = 0; i < sim.store().size(); ++i) {
      const auto id = sim.store().id(i);
      r.state[static_cast<std::size_t>(id)] = {id, sim.store().pos(i),
                                               sim.store().vel(i)};
    }
    r.potential = sim.potential_energy();
    r.reorders = sim.counters().reorders;
    return r;
  };

  const Result ref = run(1);
  EXPECT_GT(ref.reorders, 3u);
  EXPECT_GT(ref.potential, 0.0);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(team_label(threads));
    const Result got = run(threads);
    EXPECT_EQ(got.reorders, ref.reorders);
    for (std::size_t i = 0; i < ref.state.size(); ++i) {
      for (int d = 0; d < 2; ++d) {
        ASSERT_EQ(got.state[i].pos[d], ref.state[i].pos[d]) << "id " << i;
        ASSERT_EQ(got.state[i].vel[d], ref.state[i].vel[d]) << "id " << i;
      }
    }
    EXPECT_NEAR(got.potential, ref.potential, 1e-12 * std::abs(ref.potential));
  }
}

TEST(SerialSim, ConfigValidation) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.cutoff_factor = 0.9;  // rc < rmax is invalid
  EXPECT_THROW(
      SerialSim<2>::make_random(cfg, ElasticSphere{}, 10),
      std::invalid_argument);
  SimConfig<2> tiny;
  tiny.box = Vec<2>(0.1);  // smaller than 3 rc
  EXPECT_THROW(
      SerialSim<2>::make_random(tiny, ElasticSphere{}, 10),
      std::invalid_argument);
}

TEST(SerialSim, ClusteredInitConfinedToFraction) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(2.0, 4.0);
  const auto init = clustered_particles(cfg, 500, 0.25);
  ASSERT_EQ(init.size(), 500u);
  for (const auto& p : init) {
    EXPECT_GE(p.pos[0], 0.0);
    EXPECT_LT(p.pos[0], 2.0);
    EXPECT_GE(p.pos[1], 0.0);
    EXPECT_LT(p.pos[1], 1.0) << "confined to the bottom quarter in y";
  }
}

TEST(SerialSim, IndexOfIdTracksReordering) {
  for (const int threads : kBondTeams) {
    SCOPED_TRACE(team_label(threads));
    auto cfg = small_config<2>();
    cfg.velocity_scale = 1.0;
    auto sim = SmpSim<2>::make_random(
        cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 200, threads);
    sim.run(120);
    EXPECT_GT(sim.counters().reorders, 1u);
    for (std::int32_t id = 0; id < 200; ++id) {
      const auto idx = static_cast<std::size_t>(sim.index_of_id(id));
      EXPECT_EQ(sim.store().id(idx), id);
    }
  }
}

TEST(SerialSim, PaperDensityGeometry) {
  // L = 50 at D=2 and L = 5 at D=3 for one million particles.
  EXPECT_NEAR(SimConfig<2>::paper_box_edge(1000000), 50.0, 1e-9);
  EXPECT_NEAR(SimConfig<3>::paper_box_edge(1000000), 5.0, 1e-9);
}

}  // namespace
}  // namespace hdem

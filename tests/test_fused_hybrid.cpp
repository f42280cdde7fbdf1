// The fused hybrid scheme (paper Section 11: one parallel loop over all
// links in all blocks) must reproduce the serial trajectory while actually
// delivering its two promises: constant parallel-region count regardless
// of granularity, and far fewer inter-thread force-update conflicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>

#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"

namespace hdem {
namespace {

struct Case {
  int nprocs;
  int nthreads;
  int blocks_per_proc;
  ReductionKind reduction;
  bool steal = false;
};

class FusedHybridEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(FusedHybridEquivalence, TrajectoryMatchesSerial) {
  const Case p = GetParam();
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 61;
  cfg.velocity_scale = 0.8;
  const std::uint64_t n = 600;
  const int steps = 120;

  auto serial = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, n);
  serial.run(steps);
  std::map<int, Vec<2>> ref;
  for (std::size_t i = 0; i < serial.store().size(); ++i) {
    Vec<2> q = serial.store().pos(i);
    serial.boundary().wrap(q);
    ref[serial.store().id(i)] = q;
  }

  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<2>::make(p.nprocs, p.blocks_per_proc);
  mp::run(p.nprocs, [&](mp::Comm& comm) {
    typename MpSim<2>::Options opts;
    opts.nthreads = p.nthreads;
    opts.reduction = p.reduction;
    opts.steal = p.steal;
    opts.fused = true;
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    auto state = sim.gather_state();
    if (comm.rank() != 0) return;
    Boundary<2> bc(cfg.bc, cfg.box);
    double max_err = 0.0;
    for (auto& r : state) {
      Vec<2> q = r.pos;
      bc.wrap(q);
      max_err = std::max(max_err, norm(bc.displacement(q, ref.at(r.id))));
    }
    EXPECT_LT(max_err, 1e-9);
    EXPECT_GT(sim.counters().rebuilds, 1u) << "rebuilds must be exercised";
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedHybridEquivalence,
    ::testing::Values(Case{2, 2, 1, ReductionKind::kSelectedAtomic},
                      Case{2, 3, 4, ReductionKind::kSelectedAtomic},
                      Case{4, 2, 4, ReductionKind::kSelectedAtomic},
                      Case{2, 4, 8, ReductionKind::kAtomicAll},
                      Case{1, 4, 9, ReductionKind::kSelectedAtomic},
                      Case{2, 3, 4, ReductionKind::kColored},
                      Case{2, 3, 4, ReductionKind::kColored, true},
                      Case{4, 2, 1, ReductionKind::kColored, true}),
    [](const auto& info) {
      std::string name = to_string(info.param.reduction);
      std::replace(name.begin(), name.end(), '-', '_');
      return "P" + std::to_string(info.param.nprocs) + "_T" +
             std::to_string(info.param.nthreads) + "_B" +
             std::to_string(info.param.blocks_per_proc) + "_" + name +
             (info.param.steal ? "_steal" : "");
    });

// One run's rank-summed counters, potential and final positions.
struct RunResult {
  Counters agg;
  double potential = 0.0;
  std::map<int, Vec<2>> pos;
};

RunResult run_two_ranks(int bpp, typename MpSim<2>::Options opts,
                        std::uint64_t n, int steps) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 71;
  cfg.velocity_scale = 0.8;  // rebuilds and migrations inside the window
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<2>::make(2, bpp);
  RunResult out;
  std::mutex mu;
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    const double potential = sim.global_potential();
    const auto state = sim.gather_state();
    std::lock_guard<std::mutex> lock(mu);
    out.agg.merge(sim.counters());
    if (comm.rank() != 0) return;
    out.potential = potential;
    for (const auto& r : state) out.pos[r.id] = r.pos;
  });
  return out;
}

void expect_same_positions(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.pos.size(), b.pos.size());
  for (const auto& [id, p] : a.pos) {
    const auto it = b.pos.find(id);
    ASSERT_NE(it, b.pos.end()) << "id " << id;
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(p[d], it->second[d]) << "particle " << id << " dim " << d;
    }
  }
}

// With one block per rank the fused scheme's block set is that block, so
// it runs exactly the per-block scheme's passes: the same partitions (the
// same locks), phases, regions and barriers, and for the colored
// reduction the same bits.
TEST(FusedHybrid, OneBlockPerRankIsThePerBlockPass) {
  struct Strategy {
    ReductionKind reduction;
    bool steal;
  };
  for (const Strategy st : {Strategy{ReductionKind::kSelectedAtomic, false},
                            Strategy{ReductionKind::kAtomicAll, false},
                            Strategy{ReductionKind::kColored, false},
                            Strategy{ReductionKind::kColored, true}}) {
    for (const int t : {2, 4}) {
      for (const bool overlap : {false, true}) {
        SCOPED_TRACE(std::string(to_string(st.reduction)) +
                     (st.steal ? "+steal" : "") + " T=" + std::to_string(t) +
                     (overlap ? " overlap" : " sync"));
        typename MpSim<2>::Options opts;
        opts.nthreads = t;
        opts.reduction = st.reduction;
        opts.steal = st.steal;
        opts.overlap = overlap;
        const auto per_block = run_two_ranks(1, opts, 1000, 20);
        opts.fused = true;
        const auto fused = run_two_ranks(1, opts, 1000, 20);
        EXPECT_EQ(fused.agg.atomic_updates, per_block.agg.atomic_updates);
        EXPECT_EQ(fused.agg.plain_updates, per_block.agg.plain_updates);
        EXPECT_EQ(fused.agg.force_evals, per_block.agg.force_evals);
        EXPECT_EQ(fused.agg.contacts, per_block.agg.contacts);
        EXPECT_EQ(fused.agg.parallel_regions, per_block.agg.parallel_regions);
        EXPECT_EQ(fused.agg.barriers, per_block.agg.barriers);
        EXPECT_EQ(fused.agg.color_barriers, per_block.agg.color_barriers);
        if (st.reduction == ReductionKind::kColored) {
          expect_same_positions(fused, per_block);
          EXPECT_EQ(fused.potential, per_block.potential);
        }
      }
    }
  }
}

// Over several blocks per rank the fused colored pass runs every block's
// chunks in the same global phases, so each particle still sees its
// block's phases in order: the positions keep the per-block bits.
TEST(FusedHybrid, ColoredPositionsMatchPerBlockBitwise) {
  for (const int bpp : {2, 4}) {
    for (const bool steal : {false, true}) {
      SCOPED_TRACE("B/P=" + std::to_string(bpp) + (steal ? " steal" : ""));
      typename MpSim<2>::Options opts;
      opts.nthreads = 3;
      opts.reduction = ReductionKind::kColored;
      opts.steal = steal;
      const auto per_block = run_two_ranks(bpp, opts, 600, 120);
      opts.fused = true;
      const auto fused = run_two_ranks(bpp, opts, 600, 120);
      expect_same_positions(fused, per_block);
      EXPECT_GT(fused.agg.rebuilds, 2u) << "rebuilds must be exercised";
    }
  }
}

TEST(FusedHybrid, RegionCountIndependentOfBlocks) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 600);
  std::map<int, std::uint64_t> regions;
  for (int bpp : {1, 9}) {
    const auto layout = DecompLayout<2>::make(2, bpp);
    mp::run(2, [&](mp::Comm& comm) {
      typename MpSim<2>::Options opts;
      opts.nthreads = 2;
      opts.fused = true;
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      const auto before = sim.counters().parallel_regions;
      sim.run(4);
      if (comm.rank() == 0) {
        regions[bpp] = sim.counters().parallel_regions - before;
      }
    });
  }
  // 2 regions per iteration, full stop.
  EXPECT_EQ(regions[1], 8u);
  EXPECT_EQ(regions[9], 8u);
}

TEST(FusedHybrid, FarFewerLocksThanPerBlockScheme) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 71;
  const auto init = uniform_random_particles(cfg, 2000);
  std::map<bool, std::uint64_t> atomics;
  for (bool fused : {false, true}) {
    const auto layout = DecompLayout<2>::make(2, 16);
    mp::run(2, [&](mp::Comm& comm) {
      typename MpSim<2>::Options opts;
      opts.nthreads = 4;
      opts.reduction = ReductionKind::kSelectedAtomic;
      opts.fused = fused;
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(4);
      const auto total = comm.allreduce(
          static_cast<long long>(sim.counters().atomic_updates),
          mp::Op::kSum);
      if (comm.rank() == 0) {
        atomics[fused] = static_cast<std::uint64_t>(total);
      }
    });
  }
  EXPECT_LT(atomics[true], atomics[false] / 2)
      << "fusing must cut the inter-thread conflicts drastically";
}

TEST(FusedHybrid, ForceEvalAndUpdateCountsMatchPerBlockScheme) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 500);
  std::map<bool, Counters> counted;
  for (bool fused : {false, true}) {
    const auto layout = DecompLayout<2>::make(2, 4);
    mp::run(2, [&](mp::Comm& comm) {
      typename MpSim<2>::Options opts;
      opts.nthreads = 3;
      opts.fused = fused;
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(5);
      if (comm.rank() == 0) counted[fused] = sim.counters();
    });
  }
  EXPECT_EQ(counted[true].force_evals, counted[false].force_evals);
  EXPECT_EQ(counted[true].position_updates, counted[false].position_updates);
  EXPECT_EQ(counted[true].contacts, counted[false].contacts);
}

TEST(FusedHybrid, RejectsInvalidConfigurations) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 100);
  const auto layout = DecompLayout<2>::make(1, 4);
  mp::run(1, [&](mp::Comm& comm) {
    typename MpSim<2>::Options no_team;
    no_team.fused = true;
    EXPECT_THROW(MpSim<2>(cfg, layout, comm, ElasticSphere{}, init, no_team),
                 std::invalid_argument);
    typename MpSim<2>::Options array_reduction;
    array_reduction.fused = true;
    array_reduction.nthreads = 2;
    array_reduction.reduction = ReductionKind::kTranspose;
    EXPECT_THROW(
        MpSim<2>(cfg, layout, comm, ElasticSphere{}, init, array_reduction),
        std::invalid_argument);
  });
}

}  // namespace
}  // namespace hdem

// Zero-copy shared-window halo path: delivery must be bit-identical to
// the wire path — at the exchanger level (cell-by-cell halo content for
// every dimension, periodic shift and node packing) and at the driver
// level (whole trajectories across rebuilds, migrations and rebalances) —
// and the byte accounting must conserve: every wire byte the shared path
// saves reappears as a shared byte.
#include "decomp/halo.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <vector>

#include "ci_knobs.hpp"
#include "core/config.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "mp/comm.hpp"
#include "mp/nodemap.hpp"

namespace hdem {
namespace {

template <int D>
std::vector<BlockDomain<D>> make_blocks(
    const DecompLayout<D>& layout, const SimConfig<D>& cfg, int rank,
    const std::vector<ParticleInit<D>>& init) {
  std::vector<BlockDomain<D>> blocks;
  for (const auto& coords : layout.blocks_of_rank(rank)) {
    BlockDomain<D> b;
    b.coords = coords;
    b.index = layout.block_index(coords);
    b.lo = layout.block_lo(coords, cfg.box);
    b.hi = b.lo + layout.block_width(cfg.box);
    blocks.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < init.size(); ++i) {
    const auto c = layout.block_of_position(init[i].pos, cfg.box);
    if (layout.owner_rank(c) != rank) continue;
    for (auto& b : blocks) {
      if (b.index == layout.block_index(c)) {
        b.store.push_back(init[i].pos, init[i].vel,
                          static_cast<std::int32_t>(i));
        b.ncore = b.store.size();
      }
    }
  }
  return blocks;
}

// Exchanger-level property: run a wire exchanger and a shared exchanger
// over identical block sets, perturb core positions identically between
// swaps, and require byte-for-byte identical stores (halo regions
// included) after every swap.  The two exchangers share the communicator
// sequentially, so their wire tags never interleave.
template <int D>
void check_shared_matches_wire(BoundaryKind kind, int nprocs, int bpp,
                               int ranks_per_node, std::uint64_t n,
                               std::uint64_t seed) {
  SimConfig<D> cfg = ci_config<D>();
  cfg.box = Vec<D>(1.0);
  cfg.bc = kind;
  cfg.seed = seed;
  const auto layout = DecompLayout<D>::make(nprocs, bpp);
  layout.validate(cfg);
  const auto init = uniform_random_particles(cfg, n);

  mp::run(nprocs, [&](mp::Comm& comm) {
    auto wire_blocks = make_blocks(layout, cfg, comm.rank(), init);
    auto shm_blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<D> bc(kind, cfg.box);
    HaloExchanger<D> wire(layout, bc, cfg.cutoff());
    HaloExchanger<D> shm(layout, bc, cfg.cutoff());
    shm.enable_shared_windows(mp::NodeMap(ranks_per_node));
    Counters cw, cs;
    wire.build_templates(wire_blocks, comm, cw);
    shm.build_templates(shm_blocks, comm, cs);
    ASSERT_EQ(wire_blocks.size(), shm_blocks.size());
    for (int iter = 0; iter < 4; ++iter) {
      // Identical deterministic drift of the core particles in both sets.
      for (std::size_t k = 0; k < wire_blocks.size(); ++k) {
        auto pw = wire_blocks[k].store.positions();
        auto ps = shm_blocks[k].store.positions();
        for (std::size_t i = 0; i < wire_blocks[k].ncore; ++i) {
          const double eps =
              1e-5 * static_cast<double>((iter + 1) *
                                         (wire_blocks[k].store.id(i) % 7 + 1));
          for (int d = 0; d < D; ++d) {
            pw[i][d] += eps;
            ps[i][d] += eps;
          }
        }
      }
      wire.swap_positions(wire_blocks, comm, cw);
      shm.swap_positions(shm_blocks, comm, cs);
      for (std::size_t k = 0; k < wire_blocks.size(); ++k) {
        ASSERT_EQ(wire_blocks[k].store.size(), shm_blocks[k].store.size());
        const auto pw = wire_blocks[k].store.cpositions();
        const auto ps = shm_blocks[k].store.cpositions();
        ASSERT_EQ(0, std::memcmp(pw.data(), ps.data(),
                                 pw.size() * sizeof(Vec<D>)))
            << "rank=" << comm.rank() << " block=" << k << " iter=" << iter
            << " rpn=" << ranks_per_node;
      }
    }
    // Accounting: per-swap wire traffic saved must reappear as shared
    // bytes; same-rank copies are untouched by the mode.
    EXPECT_EQ(cw.bytes_local, cs.bytes_local);
    if (ranks_per_node == 1) {
      // Every rank its own node: the shared exchanger must have taken the
      // wire for every cross-rank edge.
      EXPECT_EQ(cs.bytes_shared, 0u);
      EXPECT_EQ(cs.window_republishes, 0u);
    }
  });
}

TEST(SharedHaloExchanger, MatchesWirePeriodic2D) {
  check_shared_matches_wire<2>(BoundaryKind::kPeriodic, 4, 1, 0, 400, 11);
}

TEST(SharedHaloExchanger, MatchesWireWalls2D) {
  check_shared_matches_wire<2>(BoundaryKind::kWalls, 4, 1, 0, 400, 12);
}

TEST(SharedHaloExchanger, MatchesWirePeriodic3D) {
  check_shared_matches_wire<3>(BoundaryKind::kPeriodic, 4, 1, 0, 600, 13);
}

TEST(SharedHaloExchanger, MatchesWireMultiBlock) {
  check_shared_matches_wire<2>(BoundaryKind::kPeriodic, 3, 4, 0, 500, 14);
}

TEST(SharedHaloExchanger, MatchesWireMixedNodes2D) {
  // Two ranks per node: some edges shared, some on the wire.
  check_shared_matches_wire<2>(BoundaryKind::kPeriodic, 4, 1, 2, 400, 15);
}

TEST(SharedHaloExchanger, MatchesWireMixedNodes3D) {
  check_shared_matches_wire<3>(BoundaryKind::kPeriodic, 4, 2, 2, 600, 16);
}

TEST(SharedHaloExchanger, OneRankPerNodeFallsBackToWire) {
  check_shared_matches_wire<2>(BoundaryKind::kPeriodic, 4, 1, 1, 400, 17);
}

// Driver-level property: whole trajectories (positions and velocities at
// every particle, across rebuilds and migrations) must be bit-identical
// between the wire and shared transports, for any node packing and team
// size; and total transfer bytes must conserve across the transports.
template <int D>
void check_trajectory_identity(int nprocs, int bpp, int ranks_per_node,
                               int nthreads, std::uint64_t n, int steps,
                               std::uint64_t seed, bool rebalance = false) {
  SimConfig<D> cfg = ci_config<D>();
  cfg.box = Vec<D>(1.0);
  cfg.seed = seed;
  cfg.velocity_scale = 0.8;  // rebuilds + migrations inside the window
  const auto init = uniform_random_particles(cfg, n);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};

  auto run_mode = [&](bool shared, Counters& total,
                      std::uint64_t& republishes) {
    const auto layout = DecompLayout<D>::make(nprocs, bpp);
    typename MpSim<D>::Options opts = ci_knobs();
    opts.nthreads = nthreads;
    // Bit-identity needs a deterministic reduction: the atomic family is
    // not run-to-run reproducible at T > 1 (accumulation order races), so
    // comparing two runs would blame the transport for reduction noise.
    if (nthreads > 1) opts.reduction = ReductionKind::kColored;
    opts.shared_halo = shared;
    opts.ranks_per_node = ranks_per_node;
    opts.rebalance = rebalance;
    if (rebalance) opts.rebalance_threshold = 1.05;
    std::vector<StateRecord<D>> state;
    std::mutex mu;
    mp::run(nprocs, [&](mp::Comm& comm) {
      MpSim<D> sim(cfg, layout, comm, model, init, opts);
      sim.run(static_cast<std::uint64_t>(steps));
      auto mine = sim.gather_state();
      const Counters c = sim.counters();
      {
        std::lock_guard<std::mutex> lock(mu);
        total.merge(c);
        republishes += c.window_republishes;
      }
      if (comm.rank() == 0) state = std::move(mine);
    });
    return state;
  };

  Counters wire_total, shm_total;
  std::uint64_t wire_repub = 0, shm_repub = 0;
  const auto wire_state = run_mode(false, wire_total, wire_repub);
  const auto shm_state = run_mode(true, shm_total, shm_repub);

  ASSERT_EQ(wire_state.size(), n);
  ASSERT_EQ(shm_state.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(wire_state[i].id, shm_state[i].id);
    // memcmp per field: exact bit identity, no padding bytes compared.
    ASSERT_EQ(0, std::memcmp(&wire_state[i].pos, &shm_state[i].pos,
                             sizeof(Vec<D>)))
        << "id=" << wire_state[i].id << " rpn=" << ranks_per_node
        << " T=" << nthreads;
    ASSERT_EQ(0, std::memcmp(&wire_state[i].vel, &shm_state[i].vel,
                             sizeof(Vec<D>)))
        << "id=" << wire_state[i].id << " rpn=" << ranks_per_node
        << " T=" << nthreads;
  }

  // Conservation: identical trajectories mean identical transfer volume;
  // the shared run moves part of it through windows instead of messages.
  if (cfg.halo_delta || cfg.halo_coalesce) {
    // Delta/coalesced frames change what each transport actually moves
    // (headers + masks + changed values on the wire, masked copies
    // through windows), so the raw byte totals no longer conserve across
    // transports.  What stays transport-invariant is the eager-equivalent
    // halo volume, and each run must conserve it against its own savings.
    EXPECT_EQ(wire_total.halo_bytes_eager, shm_total.halo_bytes_eager);
    EXPECT_EQ(wire_total.halo_bytes_eager,
              wire_total.halo_bytes_delta + wire_total.bytes_delta_saved);
    EXPECT_EQ(shm_total.halo_bytes_eager,
              shm_total.halo_bytes_delta + shm_total.bytes_delta_saved);
  } else {
    // Eager frames: every wire side carries a 16-byte frame header
    // (halo_frame_overhead) that a window gather does not, so the payload
    // bytes, headers excluded, are what conserve across transports.
    EXPECT_EQ(
        wire_total.bytes_sent - wire_total.halo_frame_overhead +
            wire_total.bytes_local,
        shm_total.bytes_sent - shm_total.halo_frame_overhead +
            shm_total.bytes_shared + shm_total.bytes_local);
  }
  EXPECT_EQ(wire_total.bytes_shared, 0u);
  EXPECT_EQ(wire_repub, 0u);
  if (ranks_per_node != 1 && nprocs > 1) {
    EXPECT_GT(shm_total.bytes_shared, 0u);
    EXPECT_GT(shm_repub, 0u);
    // Windows are republished at every rebuild, so the count grows with
    // the rebuild count (several rebuilds land in this window).
    EXPECT_GT(shm_total.rebuilds, 1u);
    EXPECT_GE(shm_repub, shm_total.rebuilds);
  } else {
    EXPECT_EQ(shm_total.bytes_shared, 0u);
  }
}

TEST(SharedHaloTrajectory, AllRanksOneNode2D) {
  check_trajectory_identity<2>(4, 1, 0, 1, 500, 120, 31);
}

TEST(SharedHaloTrajectory, AllRanksOneNode3D) {
  check_trajectory_identity<3>(4, 1, 0, 1, 700, 100, 37);
}

TEST(SharedHaloTrajectory, TwoRanksPerNode2D) {
  check_trajectory_identity<2>(4, 1, 2, 1, 500, 120, 31);
}

TEST(SharedHaloTrajectory, OneRankPerNode2D) {
  check_trajectory_identity<2>(4, 1, 1, 1, 500, 120, 31);
}

TEST(SharedHaloTrajectory, MultiBlockGranularity) {
  check_trajectory_identity<2>(3, 4, 0, 1, 500, 100, 41);
}

TEST(SharedHaloTrajectory, HybridTeams2) {
  check_trajectory_identity<2>(2, 2, 0, 2, 500, 80, 43);
}

TEST(SharedHaloTrajectory, HybridTeams4) {
  check_trajectory_identity<2>(2, 2, 0, 4, 500, 80, 43);
}

// Rebalance adopts a new assignment table mid-run; the shared path must
// republish its windows against the new ownership and keep delivering
// bit-identical trajectories.
TEST(SharedHaloTrajectory, RebalanceRepublishesWindows) {
  check_trajectory_identity<2>(4, 4, 0, 1, 600, 120, 47, /*rebalance=*/true);
}

// The measured-drift trigger (SimConfig::drift_measured) must never
// rebuild more often than the conservative accumulated max_v*dt bound —
// the measured displacement is bounded above by the accumulated bound.
TEST(MeasuredDrift, NeverMoreRebuildsThanConservative) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 51;
  cfg.velocity_scale = 1.0;
  const auto init = uniform_random_particles(cfg, std::uint64_t{600});
  const ElasticSphere model{cfg.stiffness, cfg.diameter};

  cfg.drift_measured = false;
  SerialSim<2> conservative(cfg, model, init);
  conservative.run(150);

  cfg.drift_measured = true;
  SerialSim<2> measured(cfg, model, init);
  measured.run(150);

  const auto cons = conservative.counters().rebuilds;
  const auto meas = measured.counters().rebuilds;
  EXPECT_GT(cons, 2u);  // the workload actually rebuilds
  EXPECT_GT(meas, 2u);
  EXPECT_LE(meas, cons);
}

// Same guarantee under the decomposed driver (per-block measurement +
// global max reduction).
TEST(MeasuredDrift, MpNeverMoreRebuildsThanConservative) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 53;
  cfg.velocity_scale = 1.0;
  const auto init = uniform_random_particles(cfg, std::uint64_t{600});
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  const auto layout = DecompLayout<2>::make(4, 1);

  auto rebuilds_with = [&](bool measured) {
    SimConfig<2> c = cfg;
    c.drift_measured = measured;
    std::uint64_t rebuilds = 0;
    mp::run(4, [&](mp::Comm& comm) {
      MpSim<2> sim(c, layout, comm, model, init, ci_knobs());
      sim.run(150);
      if (comm.rank() == 0) rebuilds = sim.counters().rebuilds;
    });
    return rebuilds;
  };

  const std::uint64_t cons = rebuilds_with(false);
  const std::uint64_t meas = rebuilds_with(true);
  EXPECT_GT(cons, 2u);
  EXPECT_GT(meas, 2u);
  EXPECT_LE(meas, cons);
}

}  // namespace
}  // namespace hdem

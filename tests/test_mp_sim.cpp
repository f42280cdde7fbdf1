// The message-passing driver must reproduce the serial trajectory for any
// process count and granularity, across rebuilds and migrations.
#include "driver/mp_sim.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "ci_knobs.hpp"
#include "core/serial_sim.hpp"

namespace hdem {
namespace {

template <int D>
struct Reference {
  std::map<int, Vec<D>> pos;
  double energy = 0.0;
};

template <int D>
Reference<D> serial_reference(const SimConfig<D>& cfg, std::uint64_t n,
                              int steps) {
  auto sim = SerialSim<D>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, n);
  sim.run(steps);
  Reference<D> ref;
  for (std::size_t i = 0; i < sim.store().size(); ++i) {
    Vec<D> p = sim.store().pos(i);
    sim.boundary().wrap(p);
    ref.pos[sim.store().id(i)] = p;
  }
  ref.energy = sim.total_energy();
  return ref;
}

struct Case {
  int nprocs;
  int blocks_per_proc;
  BoundaryKind bc;
};

class MpEquivalence2D : public ::testing::TestWithParam<Case> {};
class MpEquivalence3D : public ::testing::TestWithParam<Case> {};

template <int D>
void run_equivalence(const Case& p, std::uint64_t n, int steps,
                     std::uint64_t seed,
                     typename MpSim<D>::Options opts = ci_knobs()) {
  SimConfig<D> cfg = ci_config<D>();
  cfg.box = Vec<D>(1.0);
  cfg.bc = p.bc;
  cfg.seed = seed;
  cfg.velocity_scale = 0.8;  // rebuilds + migrations inside the window
  // CI runs the whole suite under HDEM_SKIN as well; the serial reference
  // shares the config, so equivalence must hold at any skin.
  cfg.skin_factor = ci_knobs().skin_factor;
  const auto ref = serial_reference<D>(cfg, n, steps);
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<D>::make(p.nprocs, p.blocks_per_proc);

  mp::run(p.nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    const double energy = sim.global_energy();
    auto state = sim.gather_state();
    if (comm.rank() != 0) return;
    EXPECT_EQ(state.size(), n);
    EXPECT_NEAR(energy, ref.energy, 1e-9 * std::abs(ref.energy));
    EXPECT_GT(sim.counters().rebuilds, 1u);
    Boundary<D> bc(cfg.bc, cfg.box);
    double max_err = 0.0;
    for (auto& r : state) {
      Vec<D> q = r.pos;
      bc.wrap(q);
      max_err = std::max(max_err, norm(bc.displacement(q, ref.pos.at(r.id))));
    }
    EXPECT_LT(max_err, 1e-9);
  });
}

TEST_P(MpEquivalence2D, TrajectoryMatchesSerial) {
  run_equivalence<2>(GetParam(), 500, 120, 31);
}

TEST_P(MpEquivalence3D, TrajectoryMatchesSerial) {
  run_equivalence<3>(GetParam(), 700, 100, 37);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpEquivalence2D,
    ::testing::Values(Case{1, 1, BoundaryKind::kPeriodic},
                      Case{2, 1, BoundaryKind::kPeriodic},
                      Case{4, 1, BoundaryKind::kPeriodic},
                      Case{4, 4, BoundaryKind::kPeriodic},
                      Case{4, 9, BoundaryKind::kPeriodic},
                      Case{4, 4, BoundaryKind::kWalls},
                      Case{6, 2, BoundaryKind::kWalls},
                      Case{9, 1, BoundaryKind::kPeriodic}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.nprocs) + "_B" +
             std::to_string(info.param.blocks_per_proc) + "_" +
             (info.param.bc == BoundaryKind::kPeriodic ? "periodic" : "walls");
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpEquivalence3D,
    ::testing::Values(Case{2, 4, BoundaryKind::kPeriodic},
                      Case{4, 2, BoundaryKind::kPeriodic},
                      Case{4, 2, BoundaryKind::kWalls},
                      Case{8, 1, BoundaryKind::kPeriodic}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.nprocs) + "_B" +
             std::to_string(info.param.blocks_per_proc) + "_" +
             (info.param.bc == BoundaryKind::kPeriodic ? "periodic" : "walls");
    });

// ---- overlapped halo schedule -----------------------------------------------

// Final state of an mp run, gathered to one map for exact comparison.
template <int D>
struct MpState {
  std::map<int, Vec<D>> pos;
  double energy = 0.0;
  std::vector<double> potentials;  // global potential after every step
  Counters agg;
};

template <int D>
MpState<D> run_mp_state(const SimConfig<D>& cfg,
                        const std::vector<ParticleInit<D>>& init, int nprocs,
                        int bpp, typename MpSim<D>::Options opts, int steps) {
  const auto layout = DecompLayout<D>::make(nprocs, bpp);
  MpState<D> out;
  std::mutex mu;
  mp::run(nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    std::vector<double> potentials;
    for (int s = 0; s < steps; ++s) {
      sim.step();
      potentials.push_back(sim.global_potential());
    }
    const double energy = sim.global_energy();
    auto state = sim.gather_state();
    {
      std::lock_guard<std::mutex> lock(mu);
      out.agg.merge(sim.counters());
    }
    if (comm.rank() != 0) return;
    out.energy = energy;
    out.potentials = std::move(potentials);
    for (auto& r : state) out.pos[r.id] = r.pos;
  });
  return out;
}

// The overlapped schedule must not merely be close to the synchronous one:
// core links always accumulate before halo links per block and the PE sums
// in the same order, so the trajectories are the same bits.  The potential
// is compared on its own after every step: in the total energy the kinetic
// part can hide its last bits.
template <int D>
void expect_overlap_bit_identical(
    std::uint64_t n, int steps, std::uint64_t seed, int nprocs, int bpp,
    bool reorder, typename MpSim<D>::Options opts = ci_knobs()) {
  SimConfig<D> cfg = ci_config<D>();
  cfg.box = Vec<D>(1.0);
  cfg.seed = seed;
  cfg.reorder = reorder;
  cfg.velocity_scale = 0.8;  // rebuilds + migrations inside the window
  cfg.skin_factor = ci_knobs().skin_factor;
  const auto init = uniform_random_particles(cfg, n);
  opts.overlap = false;
  const auto off = run_mp_state<D>(cfg, init, nprocs, bpp, opts, steps);
  opts.overlap = true;
  const auto on = run_mp_state<D>(cfg, init, nprocs, bpp, opts, steps);

  EXPECT_EQ(off.energy, on.energy);
  EXPECT_EQ(off.potentials, on.potentials);
  ASSERT_EQ(off.pos.size(), on.pos.size());
  for (const auto& [id, p] : off.pos) {
    const auto it = on.pos.find(id);
    ASSERT_NE(it, on.pos.end());
    for (int d = 0; d < D; ++d) {
      EXPECT_EQ(p[d], it->second[d]) << "particle " << id << " dim " << d;
    }
  }
  // The overlapped run exercised the nonblocking path (at P > 1 some halo
  // traffic is remote) and the split accounting covers all of it.  Under
  // the shared-window transport a node packing that puts every rank on one
  // node routes all halo edges through windows, so wire activity is only
  // guaranteed when some rank pair crosses a node boundary.
  if (nprocs > 1) {
    bool wire_edges = !opts.shared_halo;
    const mp::NodeMap nodes(opts.ranks_per_node);
    for (int r = 1; r < nprocs; ++r) {
      if (!nodes.same_node(0, r)) wire_edges = true;
    }
    if (wire_edges) {
      EXPECT_GT(on.agg.irecvs_posted, 0u);
      EXPECT_GT(on.agg.bytes_overlapped + on.agg.bytes_exposed, 0u);
    } else {
      EXPECT_GT(on.agg.bytes_shared, 0u);
    }
  }
}

TEST(MpOverlap, BitIdentical2DReordered) {
  expect_overlap_bit_identical<2>(500, 120, 31, 4, 4, true);
}

TEST(MpOverlap, BitIdentical2DUnordered) {
  expect_overlap_bit_identical<2>(500, 120, 31, 4, 2, false);
}

TEST(MpOverlap, BitIdentical3DReordered) {
  expect_overlap_bit_identical<3>(700, 120, 37, 4, 2, true);
}

TEST(MpOverlap, BitIdentical3DUnordered) {
  expect_overlap_bit_identical<3>(700, 120, 37, 4, 1, false);
}

TEST(MpOverlap, BitIdenticalColoredThreads) {
  // The colored plan runs all core phases before all halo phases, so the
  // split schedule executes the same phases in the same order, and its
  // per-chunk energy partials sum in the same order: threaded runs stay
  // bit-identical as well, potential included.
  typename MpSim<2>::Options opts = ci_knobs();
  opts.reduction = ReductionKind::kColored;
  for (const int t : {2, 3, 4}) {
    SCOPED_TRACE("T=" + std::to_string(t));
    opts.nthreads = t;
    expect_overlap_bit_identical<2>(500, 60, 11, 2, 2, true, opts);
  }
}

TEST(MpOverlap, BitIdenticalFusedColored) {
  // The fused colored pass splits into the core color phases and then the
  // halo color phases, so each particle sees the same phase order under
  // either schedule (the wall-clock benchmark's fused2x2 configuration).
  typename MpSim<2>::Options opts = ci_knobs();
  opts.reduction = ReductionKind::kColored;
  opts.fused = true;
  for (const int t : {2, 3, 4}) {
    SCOPED_TRACE("T=" + std::to_string(t));
    opts.nthreads = t;
    expect_overlap_bit_identical<2>(500, 60, 11, 2, 2, true, opts);
  }
}

TEST(MpOverlap, MatchesSerialTrajectory2D) {
  typename MpSim<2>::Options opts = ci_knobs();
  opts.overlap = true;
  run_equivalence<2>(Case{4, 4, BoundaryKind::kPeriodic}, 500, 120, 31, opts);
}

TEST(MpOverlap, MatchesSerialTrajectory3D) {
  typename MpSim<3>::Options opts = ci_knobs();
  opts.overlap = true;
  run_equivalence<3>(Case{4, 2, BoundaryKind::kPeriodic}, 700, 100, 37, opts);
}

TEST(MpOverlap, MatchesSerialWithWalls) {
  typename MpSim<2>::Options opts = ci_knobs();
  opts.overlap = true;
  run_equivalence<2>(Case{4, 4, BoundaryKind::kWalls}, 500, 120, 31, opts);
}

TEST(MpOverlap, FusedHybridMatchesSerial) {
  typename MpSim<2>::Options opts = ci_knobs();
  opts.overlap = true;
  opts.fused = true;
  opts.nthreads = 2;
  opts.reduction = ReductionKind::kSelectedAtomic;
  run_equivalence<2>(Case{2, 4, BoundaryKind::kPeriodic}, 500, 120, 31, opts);
}

TEST(MpOverlap, PerBlockHybridMatchesSerial) {
  typename MpSim<2>::Options opts = ci_knobs();
  opts.overlap = true;
  opts.nthreads = 2;
  opts.reduction = ReductionKind::kSelectedAtomic;
  run_equivalence<2>(Case{2, 4, BoundaryKind::kPeriodic}, 500, 120, 31, opts);
}

TEST(MpOverlap, NoMessageLeakAfterTeardown) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 13;
  cfg.velocity_scale = 0.8;
  cfg.skin_factor = ci_knobs().skin_factor;
  const auto init = uniform_random_particles(cfg, 400);
  const auto layout = DecompLayout<2>::make(4, 2);
  mp::run(4, [&](mp::Comm& comm) {
    typename MpSim<2>::Options opts = ci_knobs();
    opts.overlap = true;
    {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(30);
    }
    // Every send the simulation issued has been matched by a receive:
    // after all ranks are done, no mailbox holds an unclaimed message.
    comm.barrier();
    EXPECT_EQ(comm.pending(), 0u);
  });
}

TEST(MpSim, HaloLinkAccountingSymmetric) {
  // Every cross-block pair appears exactly twice globally (once per side),
  // so: global core links + halo links / 2 == serial link count.
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 41;
  // Candidate lists widen with the skin on both sides identically, so the
  // two-sided halo accounting stays exact at any HDEM_SKIN.
  cfg.skin_factor = ci_knobs().skin_factor;
  const std::uint64_t n = 600;
  const auto init = uniform_random_particles(cfg, n);
  auto serial = SerialSim<2>(cfg, ElasticSphere{cfg.stiffness, cfg.diameter},
                             init);
  const std::uint64_t serial_links = serial.links().size();

  const auto layout = DecompLayout<2>::make(4, 4);
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                 ci_knobs());
    const auto c = sim.counters();
    const auto core = static_cast<long long>(c.links_core);
    const auto halo = static_cast<long long>(c.links_halo);
    const auto g_core = comm.allreduce(core, mp::Op::kSum);
    const auto g_halo = comm.allreduce(halo, mp::Op::kSum);
    if (comm.rank() == 0) {
      EXPECT_EQ(g_halo % 2, 0);
      EXPECT_EQ(static_cast<std::uint64_t>(g_core + g_halo / 2), serial_links);
    }
  });
}

TEST(MpSim, RejectsMismatchedCommSize) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 100);
  const auto layout = DecompLayout<2>::make(4, 1);
  mp::run(2, [&](mp::Comm& comm) {
    EXPECT_THROW(MpSim<2>(cfg, layout, comm,
                          ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                          ci_knobs()),
                 std::invalid_argument);
  });
}

TEST(MpSim, FinerGranularityMoreMessages) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.skin_factor = ci_knobs().skin_factor;
  // This measures the wire protocol's per-side message overhead;
  // coalescing exists to make the count granularity-invariant (gated the
  // other way in test_halo_delta) and the shared-window transport removes
  // the messages entirely, so pin both off regardless of
  // HDEM_HALO_COALESCE / HDEM_SHARED_HALO.
  cfg.halo_coalesce = false;
  typename MpSim<2>::Options opts = ci_knobs();
  opts.shared_halo = false;
  const auto init = uniform_random_particles(cfg, 600);
  std::uint64_t msgs_coarse = 0, msgs_fine = 0;
  for (int bpp : {1, 4}) {
    const auto layout = DecompLayout<2>::make(4, bpp);
    std::uint64_t total = 0;
    mp::run(4, [&](mp::Comm& comm) {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      const auto before = sim.counters().msgs_sent;
      sim.run(5);
      const auto sent = sim.counters().msgs_sent - before;
      const auto sum = comm.allreduce(static_cast<long long>(sent), mp::Op::kSum);
      if (comm.rank() == 0) total = static_cast<std::uint64_t>(sum);
    });
    (bpp == 1 ? msgs_coarse : msgs_fine) = total;
  }
  EXPECT_GT(msgs_fine, msgs_coarse)
      << "block-cyclic overhead must grow with granularity";
}

TEST(MpSim, CountersBlocksAndParticles) {
  SimConfig<2> cfg = ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.skin_factor = ci_knobs().skin_factor;
  const auto init = uniform_random_particles(cfg, 400);
  const auto layout = DecompLayout<2>::make(2, 8);
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                 ci_knobs());
    const auto c = sim.counters();
    EXPECT_EQ(c.blocks, 8u);
    const auto total = comm.allreduce(
        static_cast<long long>(c.particles), mp::Op::kSum);
    if (comm.rank() == 0) {
      EXPECT_EQ(static_cast<std::uint64_t>(total), 400u);
    }
    EXPECT_GT(c.halo_particles, 0u);
  });
}

// MpOptions::validate() holds every cross-knob rule, and both drivers
// construct through it.
TEST(MpOptions, ValidateRejectsEachRule) {
  EXPECT_NO_THROW(MpOptions{}.validate());
  const auto rejects = [](auto edit) {
    MpOptions o;
    edit(o);
    EXPECT_THROW(o.validate(), std::invalid_argument);
  };
  rejects([](MpOptions& o) { o.nthreads = 0; });
  rejects([](MpOptions& o) { o.fused = true; });  // needs a team
  rejects([](MpOptions& o) {
    o.fused = true;
    o.nthreads = 2;
    o.reduction = ReductionKind::kStripe;  // a private-array strategy
  });
  rejects([](MpOptions& o) { o.steal = true; });  // needs colored
  rejects([](MpOptions& o) { o.rebalance_threshold = 0.99; });

  SimConfig<2> cfg = ci_config<2>();
  const auto init = uniform_random_particles(cfg, 100);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  EXPECT_THROW(SmpSim<2>(cfg, model, init, 0), std::invalid_argument);
  mp::run(1, [&](mp::Comm& comm) {
    MpOptions no_threads = ci_knobs();
    no_threads.nthreads = 0;
    EXPECT_THROW(MpSim<2>(cfg, DecompLayout<2>::make(1, 1), comm, model,
                          init, no_threads),
                 std::invalid_argument);
  });
}

// The CI halo-transport matrix reaches the drivers only through
// tests/ci_knobs.hpp.  A helper that dropped a variable would leave its leg
// on the wire path, and the identity suites could not tell, so this run,
// built the way the suites build theirs, finds each variable the leg sets
// (read one by one, not through ci_knobs()) in its counters and config.
// With no variables set it checks the wire defaults.
TEST(CiMatrix, KnobsReachTheDriver) {
  const bool shared = ci_switch("HDEM_SHARED_HALO");
  const bool delta = ci_switch("HDEM_HALO_DELTA");
  const bool coalesce = ci_switch("HDEM_HALO_COALESCE");
  const double skin = ci_number("HDEM_SKIN", 0.0);
  const double ranks_per_node = ci_number("HDEM_RANKS_PER_NODE", 0.0);
  constexpr std::uint64_t n = 1200;
  SimConfig<2> cfg = ci_config<2>();
  cfg.skin_factor = ci_knobs().skin_factor;
  // A contact-free settled bed (lattice spacing above rc): most positions
  // never change, so delta frames save bytes on the wire and in the shared
  // windows alike.
  cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(n) * 1.6);
  const auto init = settled_bed_particles(cfg, n, 5, 0.25);
  const Counters c = run_mp_state<2>(cfg, init, 4, 2, ci_knobs(), 6).agg;
  // Halos cross the wire unless all four ranks share one node.
  const bool one_node =
      shared && (ranks_per_node <= 0.0 || ranks_per_node >= 4.0);
  EXPECT_EQ(c.msgs_shared > 0, shared);
  EXPECT_EQ(c.halo_msgs_wire > 0, !one_node);
  EXPECT_EQ(c.halo_bytes_eager + c.bytes_delta_saved > 0, delta);
  EXPECT_EQ(c.msgs_coalesced > 0, coalesce && !one_node);
  EXPECT_EQ(cfg.list_radius() > cfg.cutoff(), skin > 0.0);
}

}  // namespace
}  // namespace hdem

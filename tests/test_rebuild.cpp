// Rebuild-pipeline determinism: the parallel counting sort, parallel
// reorder and the one color-tagged link build must reproduce their serial
// counterparts (for the link build: the two-pass build_links oracle)
// byte-for-byte for any team size, and whole trajectories must therefore
// be thread-count-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/config.hpp"
#include "core/init.hpp"
#include "core/link_list.hpp"
#include "core/particle_store.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "smp/thread_team.hpp"
#include "util/rng.hpp"

namespace hdem {
namespace {

const int kTeams[] = {1, 2, 4, 7};

template <int D>
std::vector<Vec<D>> random_positions(std::uint64_t n, std::uint64_t seed) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.seed = seed;
  std::vector<Vec<D>> pos;
  for (const auto& p : uniform_random_particles(cfg, n)) {
    pos.push_back(p.pos);
  }
  return pos;
}

template <int D>
void expect_same_binning(bool wrapped, std::uint64_t n) {
  const auto pos = random_positions<D>(n, 7 + static_cast<std::uint64_t>(D));
  std::array<bool, D> wrap{};
  wrap.fill(wrapped);
  CellGrid<D> serial;
  serial.configure(Vec<D>{}, Vec<D>(1.0), 0.06, wrap);
  serial.bin(pos, n);
  for (const int t : kTeams) {
    smp::ThreadTeam team(t);
    CellGrid<D> par;
    par.configure(Vec<D>{}, Vec<D>(1.0), 0.06, wrap);
    par.bin_parallel(pos, n, team);
    ASSERT_EQ(par.starts(), serial.starts()) << "T=" << t;
    ASSERT_EQ(par.order(), serial.order()) << "T=" << t;
  }
}

TEST(RebuildBin, ParallelMatchesSerial2D) {
  expect_same_binning<2>(true, 3000);
  expect_same_binning<2>(false, 3000);
}

TEST(RebuildBin, ParallelMatchesSerial3D) {
  expect_same_binning<3>(true, 3000);
  expect_same_binning<3>(false, 3000);
}

TEST(RebuildBin, ParallelHandlesTinyInputs) {
  // More threads than particles / cells.
  const auto pos = random_positions<2>(5, 11);
  std::array<bool, 2> wrap{};
  CellGrid<2> serial, par;
  serial.configure(Vec<2>{}, Vec<2>(1.0), 0.3, wrap);
  serial.bin(pos, 5);
  smp::ThreadTeam team(7);
  par.configure(Vec<2>{}, Vec<2>(1.0), 0.3, wrap);
  par.bin_parallel(pos, 5, team);
  EXPECT_EQ(par.starts(), serial.starts());
  EXPECT_EQ(par.order(), serial.order());
}

TEST(RebuildReorder, ParallelPermutationMatchesSerial) {
  const std::uint64_t n = 2000;
  SimConfig<3> cfg;
  cfg.box = Vec<3>(1.0);
  cfg.seed = 5;
  const auto init = uniform_random_particles(cfg, n);
  ParticleStore<3> a, b;
  for (std::size_t i = 0; i < init.size(); ++i) {
    a.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
    b.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
  }
  std::array<bool, 3> wrap{};
  wrap.fill(true);
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, cfg.box, 0.08, wrap);
  grid.bin(a.cpositions(), n);
  a.apply_permutation(grid.order(), n);
  for (const int t : kTeams) {
    smp::ThreadTeam team(t);
    ParticleStore<3> c;
    for (std::size_t i = 0; i < init.size(); ++i) {
      c.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
    }
    c.apply_permutation_parallel(grid.order(), n, team);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(c.id(i), a.id(i)) << "T=" << t << " i=" << i;
      for (int d = 0; d < 3; ++d) {
        ASSERT_EQ(c.pos(i)[d], a.pos(i)[d]) << "T=" << t;
        ASSERT_EQ(c.vel(i)[d], a.vel(i)[d]) << "T=" << t;
      }
    }
  }
  (void)b;
}

// Field-by-field equality of two lists: links, n_core and every plan array.
void expect_same_list(const LinkList& got, const LinkList& want,
                      const std::string& what) {
  ASSERT_EQ(got.n_core, want.n_core) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t l = 0; l < want.size(); ++l) {
    ASSERT_EQ(got.links[l].i, want.links[l].i) << what << " l=" << l;
    ASSERT_EQ(got.links[l].j, want.links[l].j) << what << " l=" << l;
  }
  EXPECT_EQ(got.plan.nchunks, want.plan.nchunks) << what;
  EXPECT_EQ(got.plan.ncolors, want.plan.ncolors) << what;
  EXPECT_EQ(got.plan.core_lo, want.plan.core_lo) << what;
  EXPECT_EQ(got.plan.core_hi, want.plan.core_hi) << what;
  EXPECT_EQ(got.plan.halo_lo, want.plan.halo_lo) << what;
  EXPECT_EQ(got.plan.halo_hi, want.plan.halo_hi) << what;
}

// The link statistics record_link_stats keeps (via record_link_gap per
// core link) must come out of the build's per-thread tallies unchanged.
void expect_same_stats(const Counters& got, const Counters& want,
                       const std::string& what) {
  EXPECT_EQ(got.links_core, want.links_core) << what;
  EXPECT_EQ(got.links_halo, want.links_halo) << what;
  EXPECT_EQ(got.link_gap_sum, want.link_gap_sum) << what;
  EXPECT_EQ(got.link_gap_count, want.link_gap_count) << what;
  for (int b = 0; b < Counters::kGapBuckets; ++b) {
    EXPECT_EQ(got.link_gap_hist[b], want.link_gap_hist[b])
        << what << " bucket=" << b;
  }
}

// build_links_fused against the two-pass oracle build_links on thread
// teams of several sizes, the one-member team included (3 and 7 leave
// uneven cell ranges).  Returns the oracle's link count.
template <int D>
std::size_t expect_same_links(const CellGrid<D>& grid,
                              std::span<const Vec<D>> pos, std::size_t ncore,
                              double rc, const PairDisp<D>& disp) {
  LinkList oracle;
  Counters want;
  build_links(oracle, grid, pos, ncore, rc, disp, &want);
  for (const int t : {1, 2, 3, 4, 7}) {
    smp::ThreadTeam team(t);
    LinkList fused;
    FusedBuildScratch scratch;
    Counters got;
    // Two builds into the same list and scratch: the second reuses grown
    // buffers, as a driver's rebuild does.
    for (int rep = 0; rep < 2; ++rep) {
      got = Counters{};
      build_links_fused(fused, grid, pos, ncore, rc, disp, team, scratch,
                        &got);
    }
    const std::string what = "T=" + std::to_string(t);
    expect_same_list(fused, oracle, what);
    expect_same_stats(got, want, what);
  }
  return oracle.size();
}

template <int D>
void fused_case(BoundaryKind kind, double rc, std::uint64_t n) {
  const auto pos = random_positions<D>(n, 31 + static_cast<std::uint64_t>(D));
  Boundary<D> bc(kind, Vec<D>(1.0));
  std::array<bool, D> wrap{};
  wrap.fill(kind == BoundaryKind::kPeriodic);
  CellGrid<D> grid;
  grid.configure(Vec<D>{}, Vec<D>(1.0), rc, wrap);
  grid.bin(pos, n);
  EXPECT_GT(expect_same_links<D>(grid, pos, n, rc, bc.pair_disp()), 0u);
}

TEST(RebuildFusedLinks, MatchesSerialPeriodic2D) {
  fused_case<2>(BoundaryKind::kPeriodic, 0.05, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialWalls2D) {
  fused_case<2>(BoundaryKind::kWalls, 0.05, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialPeriodic3D) {
  fused_case<3>(BoundaryKind::kPeriodic, 0.12, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialWalls3D) {
  fused_case<3>(BoundaryKind::kWalls, 0.12, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialWithHaloParticles) {
  // Block-style build: no wrap, plain displacement, trailing particles are
  // halo copies (core-halo links must land in the halo section, core end
  // first, and halo-halo pairs must be dropped — same as build_links).
  const std::uint64_t n = 1500;
  const std::size_t ncore = 1100;
  const auto pos = random_positions<3>(n, 77);
  std::array<bool, 3> wrap{};
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, Vec<3>(1.0), 0.12, wrap);
  grid.bin(pos, n);
  EXPECT_GT(expect_same_links<3>(grid, pos, ncore, 0.12, PairDisp<3>{}), 0u);
}

// A decomposed block as MpSim lays it out: core particles inside the
// block, halo copies (stored after them) in a margin one cell wide, the
// grid covering block plus margin, unwrapped, plain displacement.
template <int D>
void block_case(std::uint64_t seed) {
  const double rc = 0.1;
  const Vec<D> lo(0.3), hi(0.7);
  const Vec<D> margin(rc);
  Rng rng(seed);
  std::vector<Vec<D>> pos;
  auto draw = [&](const Vec<D>& a, const Vec<D>& b) {
    Vec<D> x;
    for (int d = 0; d < D; ++d) x[d] = a[d] + (b[d] - a[d]) * rng.uniform();
    return x;
  };
  for (int i = 0; i < (D == 2 ? 600 : 900); ++i) pos.push_back(draw(lo, hi));
  const std::size_t ncore = pos.size();
  while (pos.size() < ncore + (D == 2 ? 400 : 900)) {
    const Vec<D> x = draw(lo - margin, hi + margin);
    bool inside = true;
    for (int d = 0; d < D; ++d) inside = inside && x[d] >= lo[d] && x[d] < hi[d];
    if (!inside) pos.push_back(x);
  }
  std::array<bool, D> wrap{};
  CellGrid<D> grid;
  grid.configure(lo - margin, hi + margin, rc, wrap);
  grid.bin(pos, pos.size());
  ASSERT_LT(ncore, pos.size());
  EXPECT_GT(expect_same_links<D>(grid, pos, ncore, rc, PairDisp<D>{}), 0u);
}

TEST(RebuildFusedLinks, MatchesSerialDecomposedBlock2D) { block_case<2>(3); }
TEST(RebuildFusedLinks, MatchesSerialDecomposedBlock3D) { block_case<3>(4); }

// Periodic grids with `cells` cells per axis, the cell width equal to the
// list radius (the tightest geometry the grid allows), with particles
// placed on and one ulp either side of every cell face as well as at
// random.  On a 3-cell axis rounding at the faces can make the minimum
// image differ from the image the cell adjacency implies for a pair within
// range; the build must still reproduce the oracle.
template <int D>
void periodic_faces_case(int cells, double box, std::uint64_t seed) {
  // The grid takes floor(box / rc) cells; nudge rc down until that is
  // `cells` (box / (box / cells) can round just below `cells`).
  double rc = box / cells;
  while (static_cast<int>(box / rc) < cells) rc = std::nextafter(rc, 0.0);
  std::array<bool, D> wrap{};
  wrap.fill(true);
  CellGrid<D> grid;
  grid.configure(Vec<D>{}, Vec<D>(box), rc, wrap);
  ASSERT_EQ(grid.dims()[0], cells);
  const double w = box / cells;
  std::vector<double> coords;
  for (int k = 0; k < cells; ++k) {
    const double face = k * w;
    coords.push_back(face);
    coords.push_back(std::nextafter(face, box));
    if (k > 0) coords.push_back(std::nextafter(face, 0.0));
  }
  coords.push_back(std::nextafter(box, 0.0));
  Rng rng(seed);
  std::vector<Vec<D>> pos;
  // Face points along axis 0 combined with face points along the others
  // (2-D: every combination; 3-D: the last axis random).
  for (const double x : coords) {
    for (const double y : coords) {
      Vec<D> p;
      p[0] = x;
      p[1] = y;
      if constexpr (D == 3) p[2] = box * rng.uniform();
      pos.push_back(p);
    }
  }
  for (int i = 0; i < 400; ++i) {
    Vec<D> p;
    for (int d = 0; d < D; ++d) p[d] = box * rng.uniform();
    pos.push_back(p);
  }
  grid.bin(pos, pos.size());
  const PairDisp<D> disp{Vec<D>(box), true};
  EXPECT_GT(expect_same_links<D>(grid, pos, pos.size(), rc, disp), 0u);
}

TEST(RebuildFusedLinks, MatchesSerialThreeCellsPerAxis) {
  // 1.4302060167127721 is a box edge where the 3-cell face rounding puts
  // a particle at x = 2w into cell 1, whose minimum image to x = 0 is
  // within rc although the cells are adjacent without a wrap.
  for (const double box : {1.0, 1.4302060167127721, 0.37}) {
    periodic_faces_case<2>(3, box, 5);
    periodic_faces_case<3>(3, box, 6);
  }
}

TEST(RebuildFusedLinks, MatchesSerialFourCellsPerAxis) {
  for (const double box : {1.0, 1.4302060167127721, 0.37}) {
    periodic_faces_case<2>(4, box, 7);
    periodic_faces_case<3>(4, box, 8);
  }
}

TEST(RebuildFusedLinks, MatchesSerialWithOverfullCell) {
  // One cell holds several hundred particles — more than any fixed tile
  // width — next to a sparse background, periodic and with walls.
  for (const auto kind : {BoundaryKind::kPeriodic, BoundaryKind::kWalls}) {
    Rng rng(13);
    std::vector<Vec<2>> pos;
    for (int i = 0; i < 700; ++i) {
      pos.push_back(Vec<2>(0.41 + 0.08 * rng.uniform(),
                           0.41 + 0.08 * rng.uniform()));
    }
    for (int i = 0; i < 800; ++i) {
      pos.push_back(Vec<2>(rng.uniform(), rng.uniform()));
    }
    Boundary<2> bc(kind, Vec<2>(1.0));
    std::array<bool, 2> wrap{};
    wrap.fill(kind == BoundaryKind::kPeriodic);
    CellGrid<2> grid;
    grid.configure(Vec<2>{}, Vec<2>(1.0), 0.1, wrap);
    grid.bin(pos, pos.size());
    std::size_t fullest = 0;
    for (std::int32_t c = 0; c < grid.ncells(); ++c) {
      fullest = std::max(fullest, grid.cell_particles(c).size());
    }
    EXPECT_GT(fullest, 256u);
    expect_same_links<2>(grid, pos, pos.size(), 0.1, bc.pair_disp());
  }
}

// -- whole-trajectory determinism -----------------------------------------

template <int D>
struct Snapshot {
  std::map<int, Vec<D>> pos, vel;
};

template <int D>
Snapshot<D> snapshot(const ParticleStore<D>& store) {
  Snapshot<D> s;
  for (std::size_t i = 0; i < store.size(); ++i) {
    s.pos[store.id(i)] = store.pos(i);
    s.vel[store.id(i)] = store.vel(i);
  }
  return s;
}

template <int D>
void expect_bit_identical(const Snapshot<D>& a, const Snapshot<D>& b,
                          const char* what) {
  ASSERT_EQ(a.pos.size(), b.pos.size()) << what;
  for (const auto& [id, p] : a.pos) {
    const auto it = b.pos.find(id);
    ASSERT_NE(it, b.pos.end()) << what << " id=" << id;
    const auto vt = b.vel.find(id);
    for (int d = 0; d < D; ++d) {
      ASSERT_EQ(p[d], it->second[d]) << what << " id=" << id << " d=" << d;
      ASSERT_EQ(a.vel.at(id)[d], vt->second[d])
          << what << " id=" << id << " d=" << d;
    }
  }
}

template <int D>
void smp_trajectory_case(bool reorder) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 42;
  cfg.velocity_scale = 0.8;  // several rebuilds in 120 steps
  cfg.reorder = reorder;
  const std::uint64_t n = D == 2 ? 500 : 700;
  const int steps = 120;
  const auto init = uniform_random_particles(cfg, n);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};

  // The colored reduction is the deterministic strategy: its pair-swapped
  // chunk order makes the accumulation order thread-count-independent.
  SmpSim<D> ref(cfg, model, init, 1, ReductionKind::kColored);
  ref.run(steps);
  ASSERT_GT(ref.counters().rebuilds, 1u);
  const auto ref_snap = snapshot(ref.store());
  if (reorder) {
    EXPECT_GT(ref.counters().rebuild_reorder_ns, 0u);
  }
  EXPECT_GT(ref.counters().rebuild_bin_ns, 0u);
  EXPECT_GT(ref.counters().rebuild_linkgen_ns, 0u);

  for (const int t : kTeams) {
    if (t == 1) continue;
    SmpSim<D> sim(cfg, model, init, t, ReductionKind::kColored);
    sim.run(steps);
    expect_bit_identical(ref_snap, snapshot(sim.store()),
                         (std::string("smp T=") + std::to_string(t)).c_str());
  }

  // The serial driver shares the canonical link order (the fused build
  // reproduces build_links exactly, and the colored pass accumulates in
  // serial traversal order), so even cross-driver the trajectory is
  // bit-identical.
  SerialSim<D> serial(cfg, model, init);
  serial.run(steps);
  expect_bit_identical(ref_snap, snapshot(serial.store()), "serial");
}

TEST(RebuildTrajectory, SmpBitIdentical2DReorder) {
  smp_trajectory_case<2>(true);
}
TEST(RebuildTrajectory, SmpBitIdentical2DNoReorder) {
  smp_trajectory_case<2>(false);
}
TEST(RebuildTrajectory, SmpBitIdentical3DReorder) {
  smp_trajectory_case<3>(true);
}
TEST(RebuildTrajectory, SmpBitIdentical3DNoReorder) {
  smp_trajectory_case<3>(false);
}

template <int D>
void mp_trajectory_case(bool reorder) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 9;
  cfg.velocity_scale = 0.8;
  cfg.reorder = reorder;
  const std::uint64_t n = 600;
  const int steps = 120;
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<D>::make(2, 2);

  // nthreads = 1 runs the per-block pipeline on one thread (serial bin,
  // the link build on a one-member team), nthreads > 1 on the team; the
  // trajectory must not depend on which was used, nor on the team size.
  std::vector<StateRecord<D>> ref;
  for (const int nthreads : {1, 2, 4}) {
    typename MpSim<D>::Options opts;
    opts.nthreads = nthreads;
    opts.reduction = ReductionKind::kColored;
    std::vector<StateRecord<D>> state;
    mp::run(2, [&](mp::Comm& comm) {
      MpSim<D> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(static_cast<std::uint64_t>(steps));
      auto s = sim.gather_state();
      if (comm.rank() == 0) {
        EXPECT_GT(sim.counters().rebuilds, 1u);
        state = std::move(s);
      }
    });
    ASSERT_EQ(state.size(), n) << "nthreads=" << nthreads;
    if (ref.empty()) {
      ref = std::move(state);
      continue;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(state[i].id, ref[i].id) << "nthreads=" << nthreads;
      for (int d = 0; d < D; ++d) {
        ASSERT_EQ(state[i].pos[d], ref[i].pos[d])
            << "nthreads=" << nthreads << " id=" << ref[i].id << " d=" << d;
        ASSERT_EQ(state[i].vel[d], ref[i].vel[d])
            << "nthreads=" << nthreads << " id=" << ref[i].id << " d=" << d;
      }
    }
  }
}

TEST(RebuildTrajectory, MpThreadCountIndependent2D) {
  mp_trajectory_case<2>(true);
}
TEST(RebuildTrajectory, MpThreadCountIndependent3D) {
  mp_trajectory_case<3>(false);
}

}  // namespace
}  // namespace hdem

// The force-accumulation strategies must produce forces identical to the
// serial reference, the selected-atomic conflict table must agree with a
// brute-force thread-overlap oracle, and the colored strategy must be
// conflict-free by construction and bit-identical to the serial driver.
#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>
#include <set>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "reduction/force_pass.hpp"

namespace hdem {
namespace {

struct Fixture {
  static constexpr int D = 2;
  SimConfig<D> cfg;
  Boundary<D> bc;
  ParticleStore<D> store;
  CellGrid<D> grid;
  LinkList list;

  explicit Fixture(std::uint64_t n = 600, std::uint64_t seed = 3,
                   double box_edge = 1.0) {
    cfg.box = Vec<D>(box_edge);
    cfg.seed = seed;
    bc = Boundary<D>(cfg.bc, cfg.box);
    for (const auto& p : uniform_random_particles(cfg, n)) {
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

  ElasticSphere model() const { return {cfg.stiffness, cfg.diameter}; }

  std::vector<Vec<D>> serial_forces(double* pe_out = nullptr) {
    zero_forces(store);
    auto disp = [&](const Vec<D>& a, const Vec<D>& b) {
      return bc.displacement(a, b);
    };
    const double pe = accumulate_forces<D>(list.core(), store, model(), disp,
                                           true, 1.0);
    if (pe_out != nullptr) *pe_out = pe;
    return {store.forces().begin(), store.forces().end()};
  }
};

class ReductionEquivalence
    : public ::testing::TestWithParam<std::tuple<ReductionKind, int>> {};

TEST_P(ReductionEquivalence, ForcesMatchSerial) {
  const auto [kind, threads] = GetParam();
  Fixture f;
  double pe_ref = 0.0;
  const auto ref = f.serial_forces(&pe_ref);

  smp::ThreadTeam team(threads);
  auto acc = make_accumulator<Fixture::D>(kind);
  prepare_accumulator<Fixture::D>(acc, team.size(), f.list, f.store.size());
  auto disp = [&](const Vec<2>& a, const Vec<2>& b) {
    return f.bc.displacement(a, b);
  };
  Counters c;
  const double pe = dispatch_force_pass<Fixture::D>(acc, team, f.list,
                                                    f.store, f.model(), disp,
                                                    &c);
  EXPECT_NEAR(pe, pe_ref, 1e-12 * std::abs(pe_ref) + 1e-15);
  double max_err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err, norm(f.store.frc(i) - ref[i]));
  }
  EXPECT_LT(max_err, 1e-10);
  EXPECT_EQ(c.force_evals, f.list.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesThreads, ReductionEquivalence,
    ::testing::Combine(
        ::testing::Values(ReductionKind::kAtomicAll,
                          ReductionKind::kSelectedAtomic,
                          ReductionKind::kCritical, ReductionKind::kStripe,
                          ReductionKind::kTranspose, ReductionKind::kColored),
        ::testing::Values(1, 2, 3, 4, 8)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_T" + std::to_string(std::get<1>(info.param));
    });

TEST(SelectedAtomic, ConflictTableMatchesOracle) {
  Fixture f(400, 11);
  const int t_count = 4;
  auto any = make_accumulator<2>(ReductionKind::kSelectedAtomic);
  prepare_accumulator<2>(any, t_count, f.list, f.store.size());
  const auto& acc = std::get<SelectedAtomicAccumulator<2>>(any);

  // Oracle: the set of threads whose static link block touches particle p.
  std::vector<std::set<int>> touching(f.store.size());
  for (int t = 0; t < t_count; ++t) {
    const auto r = smp::static_block(0, static_cast<std::int64_t>(f.list.n_core),
                                     t, t_count);
    for (std::int64_t l = r.lo; l < r.hi; ++l) {
      touching[static_cast<std::size_t>(f.list.links[static_cast<std::size_t>(l)].i)].insert(t);
      touching[static_cast<std::size_t>(f.list.links[static_cast<std::size_t>(l)].j)].insert(t);
    }
  }
  for (std::size_t p = 0; p < f.store.size(); ++p) {
    EXPECT_EQ(acc.is_shared(static_cast<std::int32_t>(p)),
              touching[p].size() > 1)
        << "particle " << p;
  }
}

TEST(SelectedAtomic, FewConflictsForShortRangeForces) {
  // "Since there are relatively few multiple updates due to the
  // short-ranged nature of the DEM forces, most of the accumulations do
  // not in fact require protection."  The shared set lives on the thread
  // partition boundaries of the (cell-ordered) link list, so at fixed
  // density its fraction shrinks as the system grows: the boundary is a
  // surface, the bulk a volume.
  auto shared_fraction = [](Fixture& f) {
    auto any = make_accumulator<2>(ReductionKind::kSelectedAtomic);
    prepare_accumulator<2>(any, 4, f.list, f.store.size());
    const auto& acc = std::get<SelectedAtomicAccumulator<2>>(any);
    std::size_t shared = 0;
    for (std::size_t p = 0; p < f.store.size(); ++p) {
      if (acc.is_shared(static_cast<std::int32_t>(p))) ++shared;
    }
    return static_cast<double>(shared) / static_cast<double>(f.store.size());
  };
  Fixture small(2000, 5, 1.0), big(32000, 5, 4.0);  // same number density
  const double frac_small = shared_fraction(small);
  const double frac_big = shared_fraction(big);
  EXPECT_LT(frac_big, 0.5 * frac_small);
  EXPECT_LT(frac_big, 0.15) << "most accumulations must be unprotected";
}

TEST(Reduction, AtomicCountsSplitByStrategy) {
  Fixture f(500, 9);
  smp::ThreadTeam team(4);
  auto disp = [&](const Vec<2>& a, const Vec<2>& b) {
    return f.bc.displacement(a, b);
  };

  Counters c_atomic;
  auto a1 = make_accumulator<2>(ReductionKind::kAtomicAll);
  prepare_accumulator<2>(a1, 4, f.list, f.store.size());
  dispatch_force_pass<2>(a1, team, f.list, f.store, f.model(), disp, &c_atomic);

  Counters c_sel;
  auto a2 = make_accumulator<2>(ReductionKind::kSelectedAtomic);
  prepare_accumulator<2>(a2, 4, f.list, f.store.size());
  dispatch_force_pass<2>(a2, team, f.list, f.store, f.model(), disp, &c_sel);

  Counters c_arr;
  auto a3 = make_accumulator<2>(ReductionKind::kTranspose);
  prepare_accumulator<2>(a3, 4, f.list, f.store.size());
  dispatch_force_pass<2>(a3, team, f.list, f.store, f.model(), disp, &c_arr);

  EXPECT_GT(c_atomic.atomic_updates, 0u);
  EXPECT_EQ(c_atomic.plain_updates, 0u);
  // Selected-atomic must lock strictly less than locking everything.
  EXPECT_LT(c_sel.atomic_updates, c_atomic.atomic_updates);
  EXPECT_EQ(c_sel.atomic_updates + c_sel.plain_updates,
            c_atomic.atomic_updates);
  // Array reduction uses no atomics and reports its memory traffic.
  EXPECT_EQ(c_arr.atomic_updates, 0u);
  EXPECT_GT(c_arr.reduction_bytes, 0u);
}

TEST(Reduction, NoLockSingleThreadMatchesSerial) {
  // With one thread the unprotected strategy is actually race-free and
  // must agree with the reference exactly.
  Fixture f(300, 13);
  const auto ref = f.serial_forces();
  smp::ThreadTeam team(1);
  auto acc = make_accumulator<2>(ReductionKind::kNoLock);
  prepare_accumulator<2>(acc, 1, f.list, f.store.size());
  auto disp = [&](const Vec<2>& a, const Vec<2>& b) {
    return f.bc.displacement(a, b);
  };
  dispatch_force_pass<2>(acc, team, f.list, f.store, f.model(), disp);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LT(norm(f.store.frc(i) - ref[i]), 1e-14);
  }
}

TEST(Reduction, StrategyNames) {
  EXPECT_STREQ(to_string(ReductionKind::kAtomicAll), "atomic");
  EXPECT_STREQ(to_string(ReductionKind::kSelectedAtomic), "selected-atomic");
  EXPECT_STREQ(to_string(ReductionKind::kCritical), "critical");
  EXPECT_STREQ(to_string(ReductionKind::kStripe), "stripe");
  EXPECT_STREQ(to_string(ReductionKind::kTranspose), "transpose");
  EXPECT_STREQ(to_string(ReductionKind::kNoLock), "nolock");
  EXPECT_STREQ(to_string(ReductionKind::kColored), "colored");
}

TEST(Reduction, NameParsingRoundTrips) {
  for (const ReductionKind k : kAllReductionKinds) {
    ReductionKind parsed = ReductionKind::kAtomicAll;
    EXPECT_TRUE(reduction_from_string(to_string(k), parsed)) << to_string(k);
    EXPECT_EQ(parsed, k);
  }
  ReductionKind parsed = ReductionKind::kStripe;
  EXPECT_FALSE(reduction_from_string("no-such-strategy", parsed));
  EXPECT_EQ(parsed, ReductionKind::kStripe);  // untouched on failure
}

// -- colored strategy -------------------------------------------------------

TEST(Colored, PlanCoversEveryCoreLinkExactlyOnce) {
  Fixture f(800, 7);
  const ColorPlan& plan = f.list.plan;
  ASSERT_TRUE(plan.active());
  EXPECT_GE(plan.ncolors, 1);
  std::vector<int> seen(f.list.size(), 0);
  std::size_t covered = 0;
  for (int c = 0; c < plan.nchunks; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    for (std::size_t l = plan.core_lo[cs]; l < plan.core_hi[cs]; ++l) {
      ++seen[l];
      ++covered;
    }
  }
  EXPECT_EQ(covered, f.list.n_core);
  for (std::size_t l = 0; l < f.list.n_core; ++l) {
    EXPECT_EQ(seen[l], 1) << "link " << l;
  }
}

// Calls check(set, name) on two block sets: the fixture's list as a set
// of its own, and the four blocks of a decomposed run, whose lists carry
// halo links.  The colored schedule reads only the lists.
template <class Check>
void for_each_color_set(Check&& check) {
  Fixture f(800, 7);
  ASSERT_EQ(f.list.plan.ncolors, 2) << "fixture too small to exercise colors";
  const PassBlock<2> one{&f.list, nullptr, nullptr, f.store.size()};
  check(std::span<const PassBlock<2>>(&one, 1), "one block");
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 7;
  const auto init = uniform_random_particles(cfg, 800);
  mp::run(1, [&](mp::Comm& comm) {
    const MpSim<2> sim(cfg, DecompLayout<2>::make(1, 4), comm,
                       ElasticSphere{cfg.stiffness, cfg.diameter}, init);
    std::vector<PassBlock<2>> set;
    for (const auto& b : sim.blocks()) {
      ASSERT_GT(b.links.size(), b.links.n_core) << "no halo links";
      set.push_back({&b.links, nullptr, nullptr, b.ncore});
    }
    check(std::span<const PassBlock<2>>(set), "four blocks");
  });
}

// The defining property: within one phase, no particle is written by the
// runs of two different threads, for any team size.  The write set of a
// core link is both ends; a halo link writes its core end only.
TEST(Colored, NoParticleSharedAcrossThreadRangesWithinColor) {
  for_each_color_set([](std::span<const PassBlock<2>> set, const char* name) {
    for (const int t_count : {2, 3, 4, 8}) {
      const ColorSchedule s = color_schedule<2>(set, t_count);
      for (int ph = 0; ph < 4; ++ph) {
        const bool halo = ph >= 2;
        std::vector<std::vector<int>> writer(set.size());
        for (std::size_t k = 0; k < set.size(); ++k) {
          writer[k].assign(set[k].ncore, -1);
        }
        std::size_t conflicts = 0;
        auto touch = [&](std::size_t k, std::int32_t p, int tid) {
          auto& w = writer[k][static_cast<std::size_t>(p)];
          if (w < 0) {
            w = tid;
          } else if (w != tid) {
            ++conflicts;
          }
        };
        for (int tid = 0; tid < t_count; ++tid) {
          for (std::size_t i = s.run_begin(ph, tid); i < s.run_end(ph, tid);
               ++i) {
            const auto& it = s.items[i];
            const LinkList& list = *set[it.block].list;
            const auto [lo, hi] = chunk_range(list, it.chunk, halo);
            for (std::size_t l = lo; l < hi; ++l) {
              touch(it.block, list.links[l].i, tid);
              if (!halo) touch(it.block, list.links[l].j, tid);
            }
          }
        }
        EXPECT_EQ(conflicts, 0u) << name << " T=" << t_count << " phase=" << ph;
      }
    }
  });
}

// Every phase's items are cut into consecutive thread runs, and every chunk
// of every block lands in exactly one core phase (of its color) and, when
// the block has halo links, exactly one halo phase.
TEST(Colored, EveryChunkAssignedToExactlyOneThread) {
  for_each_color_set([](std::span<const PassBlock<2>> set, const char* name) {
    for (const int t_count : {1, 2, 5, 8}) {
      const ColorSchedule s = color_schedule<2>(set, t_count);
      std::vector<std::vector<int>> core_seen(set.size());
      std::vector<std::vector<int>> halo_seen(set.size());
      for (std::size_t k = 0; k < set.size(); ++k) {
        const auto n = static_cast<std::size_t>(set[k].list->plan.nchunks);
        core_seen[k].assign(n, 0);
        halo_seen[k].assign(n, 0);
      }
      for (int ph = 0; ph < 4; ++ph) {
        EXPECT_EQ(s.run_begin(ph, 0), s.first[static_cast<std::size_t>(ph)]);
        EXPECT_EQ(s.run_end(ph, t_count - 1),
                  s.first[static_cast<std::size_t>(ph) + 1]);
        for (int tid = 0; tid < t_count; ++tid) {
          ASSERT_LE(s.run_begin(ph, tid), s.run_end(ph, tid));
          for (std::size_t i = s.run_begin(ph, tid); i < s.run_end(ph, tid);
               ++i) {
            const auto& it = s.items[i];
            ASSERT_EQ(set[it.block].list->plan.color_of(it.chunk), ph & 1);
            ++(ph >= 2 ? halo_seen : core_seen)[it.block]
                [static_cast<std::size_t>(it.chunk)];
          }
        }
      }
      for (std::size_t k = 0; k < set.size(); ++k) {
        const bool has_halo = set[k].list->size() > set[k].list->n_core;
        for (std::size_t c = 0; c < core_seen[k].size(); ++c) {
          EXPECT_EQ(core_seen[k][c], 1)
              << name << " T=" << t_count << " block " << k << " chunk " << c;
          EXPECT_EQ(halo_seen[k][c], has_halo ? 1 : 0)
              << name << " T=" << t_count << " block " << k << " chunk " << c;
        }
      }
    }
  });
}

TEST(Colored, CountersReportPlanAndPhaseBarriers) {
  Fixture f(600, 3);
  smp::ThreadTeam team(4);
  auto acc = make_accumulator<2>(ReductionKind::kColored);
  prepare_accumulator<2>(acc, 4, f.list, f.store.size());
  auto disp = [&](const Vec<2>& a, const Vec<2>& b) {
    return f.bc.displacement(a, b);
  };
  Counters c;
  dispatch_force_pass<2>(acc, team, f.list, f.store, f.model(), disp, &c);
  EXPECT_EQ(c.atomic_updates, 0u);
  EXPECT_GT(c.plain_updates, 0u);
  EXPECT_EQ(c.colors, 2u);
  EXPECT_GE(c.colored_chunks, 2u);
  // No halo links here: one extra barrier between the two core colors.
  EXPECT_EQ(c.color_barriers, 1u);
}

// The colored pass is deterministic (no atomics, fixed traversal order),
// so whole trajectories — not just single force passes — must be
// bit-for-bit identical to the serial driver, across rebuilds, with and
// without the cell-order reordering, for any thread count.
template <int D>
void expect_bit_identical_colored_trajectory(bool reorder, int threads) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.seed = 31;
  cfg.velocity_scale = 0.8;  // several rebuilds over the run
  cfg.reorder = reorder;
  const std::uint64_t n = D == 2 ? 500 : 700;
  const int steps = 120;
  const ElasticSphere model{cfg.stiffness, cfg.diameter};

  auto serial = SerialSim<D>::make_random(cfg, model, n);
  serial.run(steps);

  const auto init = uniform_random_particles(cfg, n);
  SmpSim<D> colored(cfg, model, init, threads, ReductionKind::kColored);
  colored.run(steps);

  ASSERT_GT(colored.counters().rebuilds, 1u) << "no rebuild was exercised";
  ASSERT_EQ(colored.store().size(), serial.store().size());
  for (std::size_t i = 0; i < serial.store().size(); ++i) {
    ASSERT_EQ(colored.store().id(i), serial.store().id(i)) << "index " << i;
    EXPECT_EQ(colored.store().pos(i), serial.store().pos(i)) << "index " << i;
    EXPECT_EQ(colored.store().vel(i), serial.store().vel(i)) << "index " << i;
  }
  EXPECT_NEAR(colored.potential_energy(), serial.potential_energy(),
              1e-12 * std::abs(serial.potential_energy()) + 1e-15);
}

TEST(Colored, BitIdenticalTrajectory2D) {
  expect_bit_identical_colored_trajectory<2>(/*reorder=*/true, 4);
}
TEST(Colored, BitIdenticalTrajectory2DNoReorder) {
  expect_bit_identical_colored_trajectory<2>(/*reorder=*/false, 4);
}
TEST(Colored, BitIdenticalTrajectory3D) {
  expect_bit_identical_colored_trajectory<3>(/*reorder=*/true, 4);
}
TEST(Colored, BitIdenticalTrajectory3DNoReorder) {
  expect_bit_identical_colored_trajectory<3>(/*reorder=*/false, 3);
}
TEST(Colored, BitIdenticalTrajectorySingleThread) {
  expect_bit_identical_colored_trajectory<2>(/*reorder=*/true, 1);
}

TEST(Reduction, UpdatePositionsMatchesSerial) {
  Fixture f(300, 17);
  f.serial_forces();  // leaves forces in the store
  ParticleStore<2> copy = f.store;
  smp::ThreadTeam team(3);
  const PassBlock<2> one{&f.list, &f.store, nullptr, f.store.size()};
  const double maxv_par = team_update_pass<2>(team, {&one, 1}, 1e-3,
                                              Vec<2>(0.0, -1.0), f.bc);
  const double maxv_ser = kick_drift(copy, copy.size(), 1e-3,
                                     Vec<2>(0.0, -1.0), f.bc);
  EXPECT_DOUBLE_EQ(maxv_par, maxv_ser);
  for (std::size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(f.store.pos(i), copy.pos(i));
    EXPECT_EQ(f.store.vel(i), copy.vel(i));
  }
}

}  // namespace
}  // namespace hdem

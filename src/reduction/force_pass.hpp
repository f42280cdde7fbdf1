// The team passes: the threaded force loop over the link lists of a block
// set, and the threaded position update over its particles.
//
// "The force loop is parallelised over links, the update of positions is
// parallelised over particles ... Load balance can be achieved in all
// cases using a static schedule."  One parallel region per pass: the team
// zeroes every block's force array, runs the set's links feeding each
// block's force-accumulation strategy, and the strategies perform whatever
// merge phase they need (barriers, critical sections, striped reductions)
// before the implicit join.
//
// A block set is what one region covers.  The undecomposed driver passes
// its one domain, the per-block hybrid driver each block in turn, and the
// fused hybrid all of a rank's blocks at once — the paper's Section 11
// proposal, "a single parallel loop over all links in all blocks rather
// than one loop per block".  Over one block the set passes are the classic
// per-block loops, so the fused scheme over one block is the per-block
// scheme by construction.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/boundary.hpp"
#include "core/counters.hpp"
#include "core/dynamics.hpp"
#include "core/link_list.hpp"
#include "core/pair_kernel.hpp"
#include "core/particle_store.hpp"
#include "reduction/strategies.hpp"
#include "smp/thread_team.hpp"
#include "util/timer.hpp"
#include "util/vec.hpp"

namespace hdem {

namespace detail {
struct alignas(64) PadSlot {
  double core_pe = 0.0;
  double halo_pe = 0.0;
  double max_v = 0.0;
  double max_d = 0.0;
  std::uint64_t contacts = 0;
  std::uint64_t cost_ns = 0;
};
}  // namespace detail

// Runtime strategy selection.
template <int D>
using AnyAccumulator =
    std::variant<AtomicAllAccumulator<D>, SelectedAtomicAccumulator<D>,
                 CriticalAccumulator<D>, StripeAccumulator<D>,
                 TransposeAccumulator<D>, NoLockAccumulator<D>,
                 ColoredAccumulator<D>>;

template <int D>
AnyAccumulator<D> make_accumulator(ReductionKind kind, bool steal = false) {
  switch (kind) {
    case ReductionKind::kAtomicAll: return AtomicAllAccumulator<D>{};
    case ReductionKind::kSelectedAtomic: return SelectedAtomicAccumulator<D>{};
    case ReductionKind::kCritical: return CriticalAccumulator<D>{};
    case ReductionKind::kStripe: return StripeAccumulator<D>{};
    case ReductionKind::kTranspose: return TransposeAccumulator<D>{};
    case ReductionKind::kNoLock: return NoLockAccumulator<D>{};
    case ReductionKind::kColored: {
      ColoredAccumulator<D> a;
      a.set_steal(steal);
      return a;
    }
  }
  return AtomicAllAccumulator<D>{};
}

// One block of a block set: its link list, the particle store the list
// indexes (the first ncore particles are the block's own, any others halo
// copies), its accumulator, and the rebuild-time positions of its core
// particles that the update pass measures drift against (empty when the
// measured trigger is off).  Every block of a set holds the same strategy.
template <int D>
struct PassBlock {
  const LinkList* list = nullptr;
  ParticleStore<D>* store = nullptr;
  AnyAccumulator<D>* acc = nullptr;
  std::size_t ncore = 0;
  std::span<const Vec<D>> ref{};
};

// Which slice of the link lists a force pass traverses.  The overlapped
// halo schedule runs one kCore pass while halo messages are in flight
// (core links never touch halo data) and one kHalo pass after the swap
// completes; kAll is the synchronous single-pass schedule.  Per section
// the partitions are identical in both schedules, so a kCore pass followed
// by a kHalo pass accumulates every force in exactly the same per-thread
// order as one kAll pass.
enum class ForceSection : std::uint8_t { kAll, kCore, kHalo };

// A pass's potential energy: its core links at full weight and its
// replicated core-halo links at half weight, kept apart so that the
// synchronous and the overlapped schedules report the same bits.
struct SectionEnergy {
  double core = 0.0;
  double halo = 0.0;
};

// The colored pass's schedule over a block set: up to four global phases,
// core color 0, core color 1, halo color 0 and halo color 1, run in that
// order with a barrier between any two.  A phase lists every block's
// chunks of its color, block by block and by chunk id within a block; a
// block with one color or no halo links has nothing in the phases it
// lacks, and an empty phase is skipped.  Chunks of one color write
// disjoint particles within a block, and blocks own disjoint stores, so
// any thread may run any item of a phase.  The static schedule cuts each
// phase into contiguous runs balanced by link count (a chunk goes left of
// a cut iff its weight midpoint does); the stealing schedule claims items
// from a per-phase cursor.  Either way each particle sees the phases in
// the serial order, so forces have the same bits at every T.
struct ColorSchedule {
  struct Item {
    std::size_t block;  // position in the set
    int chunk;          // chunk id in that block's color plan
  };
  std::vector<Item> items;  // phase-major
  // Phase ph holds items [first[ph], first[ph + 1]).
  std::array<std::size_t, 5> first{};
  int team_size = 1;
  // Thread t's run of phase ph: items [run_begin(ph, t), run_end(ph, t)).
  std::vector<std::size_t> cuts;

  std::size_t run_begin(int ph, int tid) const {
    return cuts[static_cast<std::size_t>(ph * (team_size + 1) + tid)];
  }
  std::size_t run_end(int ph, int tid) const { return run_begin(ph, tid + 1); }
};

// Link range of one chunk in one section of a block's list.
inline std::pair<std::size_t, std::size_t> chunk_range(const LinkList& list,
                                                       int chunk, bool halo) {
  const auto c = static_cast<std::size_t>(chunk);
  return halo ? std::pair{list.plan.halo_lo[c], list.plan.halo_hi[c]}
              : std::pair{list.plan.core_lo[c], list.plan.core_hi[c]};
}

template <int D>
ColorSchedule color_schedule(std::span<const PassBlock<D>> set, int team_size,
                             ForceSection section = ForceSection::kAll) {
  ColorSchedule s;
  s.team_size = team_size;
  const auto t_count = static_cast<std::size_t>(team_size);
  s.cuts.assign(4 * (t_count + 1), 0);
  for (int ph = 0; ph < 4; ++ph) {
    const bool halo = ph >= 2;
    const int color = ph & 1;
    const std::size_t lo = s.items.size();
    s.first[static_cast<std::size_t>(ph)] = lo;
    if (section == ForceSection::kAll ||
        section == (halo ? ForceSection::kHalo : ForceSection::kCore)) {
      for (std::size_t k = 0; k < set.size(); ++k) {
        const LinkList& list = *set[k].list;
        if (color >= list.plan.ncolors ||
            (halo && list.size() == list.n_core)) {
          continue;
        }
        for (int c = color; c < list.plan.nchunks; c += list.plan.ncolors) {
          s.items.push_back({k, c});
        }
      }
    }
    const std::size_t m = s.items.size() - lo;
    const auto weight = [&](std::size_t i) -> std::uint64_t {
      const auto& it = s.items[lo + i];
      const auto [a, b] = chunk_range(*set[it.block].list, it.chunk, halo);
      return b - a;
    };
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < m; ++i) total += weight(i);
    std::size_t* cut =
        s.cuts.data() + static_cast<std::size_t>(ph) * (t_count + 1);
    std::size_t cursor = 0;
    std::uint64_t before = 0;  // weight of items [0, cursor)
    for (std::size_t t = 1; t < t_count; ++t) {
      if (total == 0) {
        cursor = m * t / t_count;  // weightless phase: split by item count
      } else {
        const std::uint64_t target = total * t / t_count;
        while (cursor < m && (2 * before + weight(cursor)) / 2 <= target) {
          before += weight(cursor++);
        }
      }
      cut[t] = lo + cursor;
    }
    cut[0] = lo;
    cut[t_count] = lo + m;
  }
  s.first[4] = s.items.size();
  return s;
}

// A set's core and halo link counts, as the placement of its first block.
template <int D>
SectionPlacement set_totals(std::span<const PassBlock<D>> set) {
  SectionPlacement at;
  for (const auto& b : set) {
    at.core_total += static_cast<std::int64_t>(b.list->n_core);
    at.halo_total += static_cast<std::int64_t>(b.list->size());
  }
  at.halo_total -= at.core_total;
  return at;
}

// Rebuild-time setup of a block set's accumulators.
template <int D>
void prepare_force_pass(std::span<const PassBlock<D>> set, int team_size) {
  SectionPlacement at = set_totals<D>(set);
  for (const auto& b : set) {
    std::visit([&](auto& a) { a.prepare(team_size, *b.list, b.ncore, at); },
               *b.acc);
    at.core_offset += static_cast<std::int64_t>(b.list->n_core);
    at.halo_offset += static_cast<std::int64_t>(b.list->size()) -
                      static_cast<std::int64_t>(b.list->n_core);
  }
}

namespace detail {

// The force pass with the strategy type fixed.  Colored sets run their
// ColorSchedule and keep one energy slot per chunk; the other strategies
// split the set's core links into one static block per thread, and its
// halo links likewise, and keep one energy slot per thread.  Either way
// the slots are summed in a fixed order.
template <class Acc, int D, class Model, class Disp>
SectionEnergy force_pass_as(smp::ThreadTeam& team,
                            std::span<const PassBlock<D>> set,
                            const Model& model, const Disp& disp,
                            Counters* counters, ForceSection section) {
  constexpr bool colored = requires { Acc::kColoredSchedule; };
  const int t_count = team.size();
  std::vector<PadSlot> slots(static_cast<std::size_t>(t_count));
  const auto acc = [&](std::size_t k) -> Acc& {
    return std::get<Acc>(*set[k].acc);
  };
  const SectionPlacement totals = set_totals<D>(set);

  ColorSchedule sched;
  std::vector<double> chunk_pe;
  std::array<std::atomic<std::size_t>, 4> cursors{};
  bool steal = false;
  if constexpr (colored) {
    sched = color_schedule<D>(set, t_count, section);
    chunk_pe.assign(sched.items.size(), 0.0);
    steal = acc(0).stealing();
  }

  team.parallel([&](int tid) {
    if (section != ForceSection::kHalo) {
      for (const auto& b : set) {
        const auto r = smp::static_block(
            0, static_cast<std::int64_t>(b.store->size()), tid, t_count);
        auto frc = b.store->forces();
        for (std::int64_t i = r.lo; i < r.hi; ++i) {
          frc[static_cast<std::size_t>(i)] = Vec<D>{};
        }
      }
    }
    for (std::size_t k = 0; k < set.size(); ++k) {
      acc(k).thread_begin(tid, *set[k].store);
    }
    if (section != ForceSection::kHalo) {
      team.barrier();  // zeroing complete before any accumulation
    }

    // Thread-local tallies: the kernel bumps `contacts` per contact, which
    // a heap slot would have to reload after every accumulator store.
    std::uint64_t contacts = 0;
    std::uint64_t cost_ns = 0;
    // Links [lo, hi) of block k, all core or all halo.
    const auto run = [&](std::size_t k, std::size_t lo, std::size_t hi,
                         bool halo) {
      ParticleStore<D>& store = *set[k].store;
      Acc& a = acc(k);
      const auto sink = [&](std::int32_t p, const Vec<D>& f) {
        a.add(tid, p, f, store);
      };
      const Timer rt;
      const double v = batched_pair_links<D>(
          std::span<const Link>(set[k].list->links.data() + lo, hi - lo),
          store.positions(), store.velocities(), model, disp, !halo,
          halo ? 0.5 : 1.0, contacts, sink);
      cost_ns += rt.nanoseconds();
      return v;
    };
    auto& slot = slots[static_cast<std::size_t>(tid)];

    if constexpr (colored) {
      // Within a phase each item writes particles no other item of the
      // phase writes, so every add is a plain store; the barrier separates
      // phases whose write sets overlap.  A section pass runs its own
      // phases only: the region join between a kCore and a kHalo pass
      // stands in for the barrier between their phases.
      bool ran_phase = false;
      for (int ph = 0; ph < 4; ++ph) {
        const auto ph_lo = sched.first[static_cast<std::size_t>(ph)];
        const auto ph_hi = sched.first[static_cast<std::size_t>(ph) + 1];
        if (ph_lo == ph_hi) continue;
        if (ran_phase) team.barrier();
        ran_phase = true;
        const bool halo = ph >= 2;
        const auto run_item = [&](std::size_t i) {
          const auto& it = sched.items[i];
          const auto [lo, hi] =
              chunk_range(*set[it.block].list, it.chunk, halo);
          chunk_pe[i] = run(it.block, lo, hi, halo);
        };
        if (steal) {
          auto& cursor = cursors[static_cast<std::size_t>(ph)];
          for (;;) {
            const std::size_t i =
                ph_lo + cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= ph_hi) break;
            run_item(i);
          }
        } else {
          for (std::size_t i = sched.run_begin(ph, tid);
               i < sched.run_end(ph, tid); ++i) {
            run_item(i);
          }
        }
      }
    } else {
      // This thread's static block of the section's set-wide link range,
      // dispatched into the blocks it overlaps.
      const auto share = [&](bool halo, std::int64_t total) {
        double pe = 0.0;
        const auto g = smp::static_block(0, total, tid, t_count);
        std::int64_t off = 0;
        for (std::size_t k = 0; k < set.size() && off < g.hi; ++k) {
          const LinkList& list = *set[k].list;
          const auto ncore = static_cast<std::int64_t>(list.n_core);
          const std::int64_t n =
              halo ? static_cast<std::int64_t>(list.size()) - ncore : ncore;
          const std::int64_t lo = std::max(g.lo, off) - off;
          const std::int64_t hi = std::min(g.hi, off + n) - off;
          off += n;
          if (lo >= hi) continue;
          const std::int64_t base = halo ? ncore : 0;
          pe += run(k, static_cast<std::size_t>(base + lo),
                    static_cast<std::size_t>(base + hi), halo);
        }
        return pe;
      };
      if (section != ForceSection::kHalo) {
        slot.core_pe = share(false, totals.core_total);
      }
      if (section != ForceSection::kCore) {
        slot.halo_pe = share(true, totals.halo_total);
      }
    }

    for (std::size_t k = 0; k < set.size(); ++k) {
      acc(k).thread_finish(team, tid, *set[k].store);
    }
    slot.contacts = contacts;
    slot.cost_ns = cost_ns;
  });

  SectionEnergy e;
  std::uint64_t contacts = 0;
  for (const auto& s : slots) {
    e.core += s.core_pe;
    e.halo += s.halo_pe;
    contacts += s.contacts;
  }
  std::uint64_t phases = 0;
  if constexpr (colored) {
    // Fixed (phase, item) order, independent of who ran what.
    for (std::size_t i = 0; i < chunk_pe.size(); ++i) {
      (i < sched.first[2] ? e.core : e.halo) += chunk_pe[i];
    }
    for (std::size_t ph = 0; ph < 4; ++ph) {
      if (sched.first[ph] < sched.first[ph + 1]) ++phases;
    }
  }
  if (counters != nullptr) {
    if (counters->thread_cost_ns.size() < slots.size()) {
      counters->thread_cost_ns.resize(slots.size(), 0);
    }
    for (std::size_t t = 0; t < slots.size(); ++t) {
      counters->thread_cost_ns[t] += slots[t].cost_ns;
    }
    for (std::size_t k = 0; k < set.size(); ++k) acc(k).collect(*counters);
    if (phases > 0) counters->color_barriers += phases - 1;
    if (section != ForceSection::kHalo) {
      counters->force_evals += static_cast<std::uint64_t>(totals.core_total);
    }
    if (section != ForceSection::kCore) {
      counters->force_evals += static_cast<std::uint64_t>(totals.halo_total);
    }
    counters->contacts += contacts;
  }
  return e;
}

}  // namespace detail

// The team force pass over `section` of a non-empty block set's links
// (prepared by prepare_force_pass since the last rebuild).
template <int D, class Model, class Disp>
SectionEnergy team_force_pass(smp::ThreadTeam& team,
                              std::span<const PassBlock<D>> set,
                              const Model& model, const Disp& disp,
                              Counters* counters = nullptr,
                              ForceSection section = ForceSection::kAll) {
  return std::visit(
      [&](auto& a) {
        return detail::force_pass_as<std::decay_t<decltype(a)>, D>(
            team, set, model, disp, counters, section);
      },
      *set.front().acc);
}

// The team update pass ("the update of positions is parallelised over
// particles"): a static block of the set's core particles per thread,
// kick-drifted block by block.  Returns the maximum particle speed; with
// max_disp, each thread also measures how far its particles have moved
// from their blocks' `ref` positions and *max_disp receives the maximum.
// A maximum does not depend on order, so both are the bits of a serial
// scan.
template <int D>
double team_update_pass(smp::ThreadTeam& team,
                        std::span<const PassBlock<D>> set, double dt,
                        const Vec<D>& gravity, const Boundary<D>& bc,
                        Counters* counters = nullptr,
                        double* max_disp = nullptr) {
  const int t_count = team.size();
  std::vector<detail::PadSlot> slots(static_cast<std::size_t>(t_count));
  std::int64_t total = 0;
  for (const auto& b : set) total += static_cast<std::int64_t>(b.ncore);
  team.parallel([&](int tid) {
    const auto g = smp::static_block(0, total, tid, t_count);
    auto& slot = slots[static_cast<std::size_t>(tid)];
    std::int64_t off = 0;
    for (std::size_t k = 0; k < set.size() && off < g.hi; ++k) {
      const PassBlock<D>& b = set[k];
      const std::int64_t lo = std::max(g.lo, off) - off;
      const std::int64_t hi =
          std::min(g.hi, off + static_cast<std::int64_t>(b.ncore)) - off;
      off += static_cast<std::int64_t>(b.ncore);
      if (lo >= hi) continue;
      const auto first = static_cast<std::size_t>(lo);
      const auto count = static_cast<std::size_t>(hi - lo);
      slot.max_v = std::max(slot.max_v,
                            kick_drift_range(*b.store, first, first + count,
                                             dt, gravity, bc, nullptr));
      if (max_disp != nullptr) {
        slot.max_d = std::max(
            slot.max_d,
            max_displacement<D>(b.store->cpositions().subspan(first, count),
                                b.ref.subspan(first, count), count));
      }
    }
  });
  double max_v = 0.0;
  double max_d = 0.0;
  for (const auto& s : slots) {
    max_v = std::max(max_v, s.max_v);
    max_d = std::max(max_d, s.max_d);
  }
  if (max_disp != nullptr) *max_disp = max_d;
  if (counters != nullptr) {
    counters->position_updates += static_cast<std::uint64_t>(total);
  }
  return max_v;
}

// The one-block set: one accumulator over one link list and its store.
template <int D>
void prepare_accumulator(AnyAccumulator<D>& acc, int team_size,
                         const LinkList& list, std::size_t nparticles) {
  const PassBlock<D> b{&list, nullptr, &acc, nparticles};
  prepare_force_pass<D>({&b, 1}, team_size);
}

template <int D, class Model, class Disp>
double dispatch_force_pass(AnyAccumulator<D>& acc, smp::ThreadTeam& team,
                           const LinkList& list, ParticleStore<D>& store,
                           const Model& model, Disp&& disp,
                           Counters* counters = nullptr,
                           ForceSection section = ForceSection::kAll) {
  const PassBlock<D> b{&list, &store, &acc, store.size()};
  const SectionEnergy e =
      team_force_pass<D>(team, {&b, 1}, model, disp, counters, section);
  return e.core + e.halo;
}

}  // namespace hdem

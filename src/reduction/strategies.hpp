// Force-accumulation strategies for the threaded force loop.
//
// Decomposing the force loop over *links* load-balances automatically, but
// two threads may then update the force on the same particle.  The paper
// (Section 7) evaluates these resolutions:
//
//   AtomicAll       every update atomic ("atomic" method)
//   SelectedAtomic  conflict table built per link rebuild; only particles
//                   touched by links of more than one thread are updated
//                   atomically ("selected atomic" — the paper's winner)
//   Critical        per-thread private arrays merged in a critical region
//                   (extremely poor in the paper; kept as the baseline)
//   Stripe          private arrays merged stripe-by-stripe, each thread
//                   always updating a different portion of the global array
//   Transpose       conceptually a global array with an extra thread
//                   index; the merge is a parallel loop over particles
//   NoLock          *incorrect* unprotected updates; models a machine with
//                   a free atomic (the paper's Section 9.3 ablation)
//   Colored         *correct* unprotected updates: links are grouped into
//                   conflict-free color classes at each rebuild (see
//                   ColorPlan in core/link_list.hpp) and the force pass
//                   runs color-by-color with a barrier in between — zero
//                   atomics, zero private-array merges.  The achievable
//                   version of the NoLock bound.
//
// Each strategy serves one block of a force pass's block set
// (reduction/force_pass.hpp) and implements:
//   prepare(team_size, list, nparticles, at)  (per rebuild; `at` places
//                                     the list's sections in the set)
//   thread_begin(tid, store)          (per pass, inside the region)
//   add(tid, i, f, store)             (hot path)
//   thread_finish(team, tid, store)   (merge phase, inside the region)
//   collect(counters)                 (after the region)
// The pass itself owns the link schedule: the static partitions of the
// set's core and halo links, or the colored phases.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/counters.hpp"
#include "core/link_list.hpp"
#include "core/particle_store.hpp"
#include "reduction/kind.hpp"
#include "smp/thread_team.hpp"
#include "util/vec.hpp"

namespace hdem {

namespace detail {
// Per-thread tallies padded to a cache line to avoid false sharing.
struct alignas(64) ThreadTally {
  std::uint64_t atomic_updates = 0;
  std::uint64_t plain_updates = 0;
};
}  // namespace detail

// Where one block's link sections sit in its force pass's block set.  The
// pass partitions the set's core links over the team, and separately its
// halo links, so this block's core links are [core_offset, core_offset +
// n_core) of core_total, and its halo links likewise.  A block that is a
// set of its own is {0, n_core, 0, n_halo}.
struct SectionPlacement {
  std::int64_t core_offset = 0;
  std::int64_t core_total = 0;
  std::int64_t halo_offset = 0;
  std::int64_t halo_total = 0;
};

// ---------------------------------------------------------------------------
template <int D>
class AtomicAllAccumulator {
 public:
  void prepare(int team_size, const LinkList&, std::size_t,
               const SectionPlacement&) {
    tallies_.assign(static_cast<std::size_t>(team_size), {});
  }
  void thread_begin(int, ParticleStore<D>&) {}
  void add(int tid, std::int32_t i, const Vec<D>& f, ParticleStore<D>& store) {
    Vec<D>& target = store.frc(static_cast<std::size_t>(i));
    for (int d = 0; d < D; ++d) smp::atomic_add(target[d], f[d]);
    ++tallies_[static_cast<std::size_t>(tid)].atomic_updates;
  }
  void thread_finish(smp::ThreadTeam&, int, ParticleStore<D>&) {}
  // Adds this pass's tallies to the counters and resets them (collect is
  // called once after every force pass).
  void collect(Counters& c) {
    for (auto& t : tallies_) {
      c.atomic_updates += t.atomic_updates;
      c.plain_updates += t.plain_updates;
      t = {};
    }
  }

 private:
  std::vector<detail::ThreadTally> tallies_;
};

// ---------------------------------------------------------------------------
// Incorrect unprotected updates — only used by the perf ablation that
// bounds the benefit of a zero-cost atomic.
template <int D>
class NoLockAccumulator {
 public:
  void prepare(int team_size, const LinkList&, std::size_t,
               const SectionPlacement&) {
    tallies_.assign(static_cast<std::size_t>(team_size), {});
  }
  void thread_begin(int, ParticleStore<D>&) {}
  void add(int tid, std::int32_t i, const Vec<D>& f, ParticleStore<D>& store) {
    store.frc(static_cast<std::size_t>(i)) += f;
    ++tallies_[static_cast<std::size_t>(tid)].plain_updates;
  }
  void thread_finish(smp::ThreadTeam&, int, ParticleStore<D>&) {}
  void collect(Counters& c) {
    for (auto& t : tallies_) {
      c.plain_updates += t.plain_updates;
      t = {};
    }
  }

 private:
  std::vector<detail::ThreadTally> tallies_;
};

// ---------------------------------------------------------------------------
// "Identifying potential race conditions and dealing with them
// appropriately": scan the link list once per rebuild against the static
// link partition; particles whose links span threads get atomic updates,
// all others are updated unprotected.  Valid for many force calculations,
// exactly as in the paper.
template <int D>
class SelectedAtomicAccumulator {
 public:
  // Each thread's share of the pass is the overlap of its static block of
  // the set's core-link range with this block's core links, plus the same
  // for the halo links; a particle written from two threads' shares is
  // shared.  Over a set of many blocks most blocks then fall to a single
  // thread, which is precisely why fusing reduces inter-thread
  // dependencies (the paper's Section 11 proposal).
  void prepare(int team_size, const LinkList& list, std::size_t nparticles,
               const SectionPlacement& at) {
    tallies_.assign(static_cast<std::size_t>(team_size), {});
    owner_.assign(nparticles, -1);
    shared_.assign(nparticles, 0);
    const auto ncore = static_cast<std::int64_t>(list.n_core);
    const auto nhalo = static_cast<std::int64_t>(list.size()) - ncore;
    for (int tid = 0; tid < team_size; ++tid) {
      const auto c = smp::static_block(0, at.core_total, tid, team_size);
      for (std::int64_t l = std::max<std::int64_t>(c.lo - at.core_offset, 0);
           l < std::min(c.hi - at.core_offset, ncore); ++l) {
        mark(list.links[static_cast<std::size_t>(l)].i, tid);
        mark(list.links[static_cast<std::size_t>(l)].j, tid);
      }
      const auto h = smp::static_block(0, at.halo_total, tid, team_size);
      for (std::int64_t l = std::max<std::int64_t>(h.lo - at.halo_offset, 0);
           l < std::min(h.hi - at.halo_offset, nhalo); ++l) {
        // halo ends (j) are never updated
        mark(list.links[static_cast<std::size_t>(ncore + l)].i, tid);
      }
    }
  }

  void thread_begin(int, ParticleStore<D>&) {}
  void add(int tid, std::int32_t i, const Vec<D>& f, ParticleStore<D>& store) {
    Vec<D>& target = store.frc(static_cast<std::size_t>(i));
    if (shared_[static_cast<std::size_t>(i)]) {
      for (int d = 0; d < D; ++d) smp::atomic_add(target[d], f[d]);
      ++tallies_[static_cast<std::size_t>(tid)].atomic_updates;
    } else {
      target += f;
      ++tallies_[static_cast<std::size_t>(tid)].plain_updates;
    }
  }
  void thread_finish(smp::ThreadTeam&, int, ParticleStore<D>&) {}
  void collect(Counters& c) {
    for (auto& t : tallies_) {
      c.atomic_updates += t.atomic_updates;
      c.plain_updates += t.plain_updates;
      t = {};
    }
  }

  // Exposed for tests: whether particle p required protection.
  bool is_shared(std::int32_t p) const {
    return shared_[static_cast<std::size_t>(p)] != 0;
  }

 private:
  // Record that thread `tid` updates particle `p` under some partition;
  // a second distinct owner makes the particle shared.
  void mark(std::int32_t p, int tid) {
    auto& o = owner_[static_cast<std::size_t>(p)];
    if (o < 0) {
      o = static_cast<std::int16_t>(tid);
    } else if (o != tid) {
      shared_[static_cast<std::size_t>(p)] = 1;
    }
  }

  std::vector<detail::ThreadTally> tallies_;
  std::vector<std::int16_t> owner_;
  std::vector<std::uint8_t> shared_;
};

// ---------------------------------------------------------------------------
// Common base for the three array-reduction methods: each thread owns a
// private force array it accumulates into without protection.
template <int D>
class PrivateArrayBase {
 public:
  void prepare(int team_size, const LinkList&, std::size_t nparticles,
               const SectionPlacement&) {
    team_size_ = team_size;
    nparticles_ = nparticles;
    priv_.resize(static_cast<std::size_t>(team_size));
    for (auto& a : priv_) a.assign(nparticles, Vec<D>{});
    tallies_.assign(static_cast<std::size_t>(team_size), {});
    bytes_ = 0;
  }
  void thread_begin(int tid, ParticleStore<D>&) {
    auto& a = priv_[static_cast<std::size_t>(tid)];
    std::fill(a.begin(), a.end(), Vec<D>{});
  }
  void add(int tid, std::int32_t i, const Vec<D>& f, ParticleStore<D>&) {
    priv_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(i)] += f;
    ++tallies_[static_cast<std::size_t>(tid)].plain_updates;
  }

 protected:
  // Zeroing + reading every private array is the memory traffic that
  // saturates bandwidth in the paper's Figure 4; count it.
  std::uint64_t merge_traffic_bytes() const {
    return 2ull * static_cast<std::uint64_t>(team_size_) *
           static_cast<std::uint64_t>(nparticles_) * sizeof(Vec<D>);
  }
  void collect_base(Counters& c) {
    for (auto& t : tallies_) {
      c.atomic_updates += t.atomic_updates;
      c.plain_updates += t.plain_updates;
      t = {};
    }
    c.reduction_bytes += bytes_;
    bytes_ = 0;
  }

  int team_size_ = 1;
  std::size_t nparticles_ = 0;
  std::vector<std::vector<Vec<D>>> priv_;
  std::vector<detail::ThreadTally> tallies_;
  std::uint64_t bytes_ = 0;
};

// Merge in one critical region per thread (serialised O(T * N) work).
template <int D>
class CriticalAccumulator : public PrivateArrayBase<D> {
 public:
  void thread_finish(smp::ThreadTeam& team, int tid, ParticleStore<D>& store) {
    team.barrier();  // all accumulation done before any merge
    team.critical([&] {
      const auto& a = this->priv_[static_cast<std::size_t>(tid)];
      auto frc = store.forces();
      for (std::size_t i = 0; i < this->nparticles_; ++i) frc[i] += a[i];
    });
    team.barrier();
    if (tid == 0) this->bytes_ += this->merge_traffic_bytes();
  }
  void collect(Counters& c) { this->collect_base(c); }
};

// Merge in T barrier-separated phases; in phase ph thread t adds its
// private copy of stripe (t + ph) mod T, so no two threads ever touch the
// same portion of the global array.
template <int D>
class StripeAccumulator : public PrivateArrayBase<D> {
 public:
  void thread_finish(smp::ThreadTeam& team, int tid, ParticleStore<D>& store) {
    const int t_count = this->team_size_;
    auto frc = store.forces();
    const auto& a = this->priv_[static_cast<std::size_t>(tid)];
    for (int ph = 0; ph < t_count; ++ph) {
      team.barrier();
      const int stripe = (tid + ph) % t_count;
      const auto r = smp::static_block(
          0, static_cast<std::int64_t>(this->nparticles_), stripe, t_count);
      for (std::int64_t i = r.lo; i < r.hi; ++i) {
        frc[static_cast<std::size_t>(i)] += a[static_cast<std::size_t>(i)];
      }
    }
    team.barrier();
    if (tid == 0) this->bytes_ += this->merge_traffic_bytes();
  }
  void collect(Counters& c) { this->collect_base(c); }
};

// One barrier, then a parallel merge over the particle index: thread t
// sums column i over all private arrays for its particle block.
template <int D>
class TransposeAccumulator : public PrivateArrayBase<D> {
 public:
  void thread_finish(smp::ThreadTeam& team, int tid, ParticleStore<D>& store) {
    team.barrier();
    auto frc = store.forces();
    const auto r = smp::static_block(
        0, static_cast<std::int64_t>(this->nparticles_), tid,
        this->team_size_);
    for (std::int64_t i = r.lo; i < r.hi; ++i) {
      Vec<D> sum{};
      for (int t = 0; t < this->team_size_; ++t) {
        sum += this->priv_[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(i)];
      }
      frc[static_cast<std::size_t>(i)] += sum;
    }
    team.barrier();
    if (tid == 0) this->bytes_ += this->merge_traffic_bytes();
  }
  void collect(Counters& c) { this->collect_base(c); }
};

// ---------------------------------------------------------------------------
// Conflict-free colored schedule: every update is a plain store, yet the
// result is correct *and* bit-identical to the serial driver.
//
// The list's ColorPlan (built at every rebuild) partitions links into
// chunks along the grid's axis-0 slabs such that chunks of equal parity
// ("color") write pairwise-disjoint particle sets.  The force pass (which
// detects kColoredSchedule) walks the phases
//
//   core color 0 | barrier | core color 1 | barrier |
//   halo color 0 | barrier | halo color 1            (halo phases only
//                                                     when halo links exist)
//
// matching the serial core-then-halo traversal of the pair-swapped link
// layout exactly (each particle sees its even chunk's contributions before
// its odd chunk's in both), which is what makes the trajectories
// deterministic and bit-identical for every thread count.  Which thread
// runs a chunk is the pass's choice (ColorSchedule in force_pass.hpp):
// contiguous runs balanced by link count, or, with set_steal(true),
// deterministic work stealing from a per-phase cursor.  Within a color
// every particle is written by at most one chunk, so neither choice can
// change any particle's accumulation order.
template <int D>
class ColoredAccumulator {
 public:
  // Tag detected by the force pass to run the phased traversal instead of
  // the static link partition.
  static constexpr bool kColoredSchedule = true;

  void prepare(int team_size, const LinkList& list, std::size_t,
               const SectionPlacement&) {
    if (!list.plan.active()) {
      throw std::logic_error("ColoredAccumulator: link list has no ColorPlan");
    }
    ncolors_ = list.plan.ncolors;
    nchunks_ = list.plan.nchunks;
    tallies_.assign(static_cast<std::size_t>(team_size), {});
  }

  void thread_begin(int, ParticleStore<D>&) {}
  void add(int tid, std::int32_t i, const Vec<D>& f, ParticleStore<D>& store) {
    store.frc(static_cast<std::size_t>(i)) += f;
    ++tallies_[static_cast<std::size_t>(tid)].plain_updates;
  }
  void thread_finish(smp::ThreadTeam&, int, ParticleStore<D>&) {}
  void collect(Counters& c) {
    for (auto& t : tallies_) {
      c.plain_updates += t.plain_updates;
      t = {};
    }
    c.colors = static_cast<std::uint64_t>(ncolors_);
    c.colored_chunks = static_cast<std::uint64_t>(nchunks_);
    // color_barriers is tallied by the force pass, which knows how many
    // phases it actually ran (a section pass runs a subset).
  }

  // Dynamic chunk claiming (survives re-prepares).
  void set_steal(bool steal) { steal_ = steal; }
  bool stealing() const { return steal_; }

 private:
  int ncolors_ = 1;
  int nchunks_ = 0;
  bool steal_ = false;
  std::vector<detail::ThreadTally> tallies_;
};

}  // namespace hdem

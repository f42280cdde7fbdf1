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
// Each strategy implements:
//   prepare(team_size, links, n_core_links, nparticles)  (per rebuild)
//   thread_begin(tid, store)          (per iteration, inside the region)
//   add(tid, i, f)                    (hot path)
//   thread_finish(team, tid, store)   (merge phase, inside the region)
//   collect(counters)                 (after the region)
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
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

// ---------------------------------------------------------------------------
template <int D>
class AtomicAllAccumulator {
 public:
  void prepare(int team_size, std::span<const Link>, std::size_t,
               std::size_t) {
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
  void prepare(int team_size, std::span<const Link>, std::size_t,
               std::size_t) {
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
  void prepare(int team_size, std::span<const Link> links,
               std::size_t n_core_links, std::size_t nparticles) {
    tallies_.assign(static_cast<std::size_t>(team_size), {});
    owner_.assign(nparticles, -1);
    shared_.assign(nparticles, 0);
    // Core and halo links are partitioned independently by the force pass
    // — whether it traverses both sections in one region or one section
    // per region (the overlapped schedule), the per-section static ranges
    // are the same — so both partitions must feed the conflict table.
    for (int tid = 0; tid < team_size; ++tid) {
      const auto rc = smp::static_block(0, static_cast<std::int64_t>(n_core_links),
                                        tid, team_size);
      for (std::int64_t l = rc.lo; l < rc.hi; ++l) {
        mark(links[static_cast<std::size_t>(l)].i, tid);
        mark(links[static_cast<std::size_t>(l)].j, tid);
      }
      const auto rh = smp::static_block(static_cast<std::int64_t>(n_core_links),
                                        static_cast<std::int64_t>(links.size()),
                                        tid, team_size);
      for (std::int64_t l = rh.lo; l < rh.hi; ++l) {
        mark(links[static_cast<std::size_t>(l)].i, tid);
        // halo ends (j) are never updated
      }
    }
  }
  // Conflict table for the fused hybrid scheme (the paper's Section 11
  // proposal): this block's links occupy [offset, offset + nlinks) of one
  // global link range that is statically partitioned over the team, so a
  // thread's share of the block is the overlap of its global range with
  // the block.  Most blocks are then touched by a single thread, which is
  // precisely why fusing reduces inter-thread dependencies.
  void prepare_global(int team_size, std::span<const Link> links,
                      std::size_t n_core_links, std::size_t nparticles,
                      std::int64_t offset, std::int64_t total_links) {
    tallies_.assign(static_cast<std::size_t>(team_size), {});
    owner_.assign(nparticles, -1);
    shared_.assign(nparticles, 0);
    const auto nlinks = static_cast<std::int64_t>(links.size());
    for (int tid = 0; tid < team_size; ++tid) {
      const auto g = smp::static_block(0, total_links, tid, team_size);
      const std::int64_t lo = std::max<std::int64_t>(g.lo - offset, 0);
      const std::int64_t hi = std::min<std::int64_t>(g.hi - offset, nlinks);
      for (std::int64_t l = lo; l < hi; ++l) {
        mark(links[static_cast<std::size_t>(l)].i, tid);
        if (static_cast<std::size_t>(l) < n_core_links) {
          mark(links[static_cast<std::size_t>(l)].j, tid);
        }
      }
    }
  }

  // Extend the conflict table with the overlapped fused schedule's split
  // partitions: when core forces run while halos are in flight, the global
  // core-link and halo-link ranges are partitioned separately, so a
  // particle may be shared under the split partitions but not the unsplit
  // one.  Marking on top of prepare_global keeps the table valid for both
  // schedules (extra atomics never change a per-thread sum order).
  void mark_global_split(int team_size, std::span<const Link> links,
                         std::size_t n_core_links, std::int64_t core_offset,
                         std::int64_t total_core, std::int64_t halo_offset,
                         std::int64_t total_halo) {
    const auto ncore = static_cast<std::int64_t>(n_core_links);
    const auto nhalo = static_cast<std::int64_t>(links.size()) - ncore;
    for (int tid = 0; tid < team_size; ++tid) {
      const auto gc = smp::static_block(0, total_core, tid, team_size);
      const std::int64_t lo = std::max<std::int64_t>(gc.lo - core_offset, 0);
      const std::int64_t hi = std::min<std::int64_t>(gc.hi - core_offset, ncore);
      for (std::int64_t l = lo; l < hi; ++l) {
        mark(links[static_cast<std::size_t>(l)].i, tid);
        mark(links[static_cast<std::size_t>(l)].j, tid);
      }
      const auto gh = smp::static_block(0, total_halo, tid, team_size);
      const std::int64_t hlo = std::max<std::int64_t>(gh.lo - halo_offset, 0);
      const std::int64_t hhi = std::min<std::int64_t>(gh.hi - halo_offset, nhalo);
      for (std::int64_t l = hlo; l < hhi; ++l) {
        mark(links[static_cast<std::size_t>(ncore + l)].i, tid);
        // halo ends (j) are never updated
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
  void prepare(int team_size, std::span<const Link>, std::size_t,
               std::size_t nparticles) {
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
// ("color") write pairwise-disjoint particle sets.  prepare() assigns each
// color's chunks to threads as contiguous runs balanced by link count —
// any assignment is race-free, so load balance costs nothing.  The force
// pass (which detects kColoredSchedule) then walks the phases
//
//   core color 0 | barrier | core color 1 | barrier |
//   halo color 0 | barrier | halo color 1            (halo phases only
//                                                     when halo links exist)
//
// matching the serial core-then-halo traversal of the pair-swapped link
// layout exactly (each particle sees its even chunk's contributions before
// its odd chunk's in both), which is what makes the trajectories
// deterministic and bit-identical for every thread count.
//
// set_steal(true) switches the force pass from the static contiguous chunk
// runs to deterministic work stealing: threads claim chunks of the current
// color from an atomic cursor.  Within a color every particle is written
// by at most one chunk, so which thread runs a chunk — and in what order
// the chunks run — cannot change any particle's accumulation order; the
// trajectories stay bit-identical to the static schedule (and the serial
// driver) at any team size.  Only the potential-energy partials are
// schedule-shaped, so the stealing pass stores them in per-chunk slots and
// sums them in fixed chunk order (per-thread sums would pick up the
// claiming order).
template <int D>
class ColoredAccumulator {
 public:
  // Tag detected by smp_force_pass to run the phased traversal instead of
  // the static link partition.
  static constexpr bool kColoredSchedule = true;

  // Unlike the other strategies this one needs the list's ColorPlan, not
  // just the link span; prepare_accumulator() dispatches accordingly.
  void prepare(int team_size, const LinkList& list, std::size_t) {
    const ColorPlan& plan = list.plan;
    if (!plan.active()) {
      throw std::logic_error("ColoredAccumulator: link list has no ColorPlan");
    }
    team_size_ = team_size;
    ncolors_ = plan.ncolors;
    nchunks_ = plan.nchunks;
    has_halo_ = list.size() > list.n_core;
    core_lo_ = plan.core_lo;
    core_hi_ = plan.core_hi;
    halo_lo_ = plan.halo_lo;
    halo_hi_ = plan.halo_hi;
    tallies_.assign(static_cast<std::size_t>(team_size), {});

    for (int color = 0; color < 2; ++color) chunks_[color].clear();
    for (int c = 0; c < nchunks_; ++c) {
      chunks_[plan.color_of(c)].push_back(c);
    }
    const auto tsz = static_cast<std::size_t>(team_size);
    for (int color = 0; color < ncolors_; ++color) {
      const auto& cs = chunks_[color];
      const std::size_t m = cs.size();
      // Prefix link weights (core + halo) over this color's chunks.
      std::uint64_t total = 0;
      prefix_.assign(m + 1, 0);
      for (std::size_t k = 0; k < m; ++k) {
        const auto c = static_cast<std::size_t>(cs[k]);
        total += (core_hi_[c] - core_lo_[c]) + (halo_hi_[c] - halo_lo_[c]);
        prefix_[k + 1] = total;
      }
      auto& bound = bounds_[color];
      bound.assign(tsz + 1, m);
      bound[0] = 0;
      std::size_t cursor = 0;
      for (std::size_t t = 1; t < tsz; ++t) {
        if (total == 0) {
          cursor = m * t / tsz;  // empty color: split by chunk count
        } else {
          // Cut at the chunk boundary nearest the ideal split: a chunk
          // goes left of the cut iff its weight midpoint does.
          const std::uint64_t target = total * t / tsz;
          while (cursor < m &&
                 (prefix_[cursor] + prefix_[cursor + 1]) / 2 <= target) {
            ++cursor;
          }
        }
        bound[t] = cursor;
      }
    }
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
    // color_barriers is tallied by smp_force_pass, which knows how many
    // phases the pass actually ran (a section pass runs a subset).
  }

  // Dynamic chunk claiming (survives re-prepares; set once by the driver).
  void set_steal(bool steal) { steal_ = steal; }
  bool stealing() const { return steal_; }

  // -- phased-traversal queries (used by smp_force_pass and tests) ----------
  int phase_count() const { return ncolors_ * (has_halo_ ? 2 : 1); }
  bool phase_is_halo(int ph) const { return ph >= ncolors_; }
  int phase_color(int ph) const { return ph % ncolors_; }
  int ncolors() const { return ncolors_; }
  int nchunks() const { return nchunks_; }
  // All chunk ids of one color, in the plan's canonical order (the
  // stealing schedule claims positions in this list; the per-chunk energy
  // slots sum in this order).
  std::span<const int> color_chunks(int color) const {
    return std::span<const int>(chunks_[static_cast<std::size_t>(color)]);
  }
  // Chunk ids of `color` assigned to thread `tid` (contiguous run).
  std::span<const int> thread_chunks(int color, int tid) const {
    const auto& bound = bounds_[color];
    const auto t = static_cast<std::size_t>(tid);
    return std::span<const int>(chunks_[color])
        .subspan(bound[t], bound[t + 1] - bound[t]);
  }
  // Absolute link-index ranges of one chunk.
  std::pair<std::size_t, std::size_t> core_range(int chunk) const {
    const auto c = static_cast<std::size_t>(chunk);
    return {core_lo_[c], core_hi_[c]};
  }
  std::pair<std::size_t, std::size_t> halo_range(int chunk) const {
    const auto c = static_cast<std::size_t>(chunk);
    return {halo_lo_[c], halo_hi_[c]};
  }

 private:
  int team_size_ = 1;
  int ncolors_ = 1;
  int nchunks_ = 0;
  bool has_halo_ = false;
  bool steal_ = false;
  std::array<std::vector<int>, 2> chunks_;          // chunk ids per color
  std::array<std::vector<std::size_t>, 2> bounds_;  // per color: T+1 splits
  std::vector<std::size_t> core_lo_, core_hi_, halo_lo_, halo_hi_;
  std::vector<std::uint64_t> prefix_;  // prepare() scratch
  std::vector<detail::ThreadTally> tallies_;
};

}  // namespace hdem

// Message-passing and hybrid driver.
//
// Pure message passing (nthreads = 1): the paper's MPI implementation —
// block-cyclic domain decomposition, per-block halo swaps with indexed
// templates, migration at rebuilds, global reductions for energies and the
// rebuild criterion.
//
// Hybrid (nthreads > 1): "The domain decomposition gives each MPI process
// a set of blocks with accompanying halos.  The OpenMP parallelisation
// occurs lower down at the level of loops over the links or particles
// within each block, so MPI communications never take place within a
// parallel region."  Each rank owns a thread team; per-block force and
// update loops run on the team (one parallel region per block per loop,
// reproducing the hybrid overhead structure the paper analyses), while all
// communication is performed by the master thread.  The fused scheme (the
// paper's Section 11 proposal) runs the same team passes over all of the
// rank's blocks at once: one region per loop.
//
// Both schemes run one step schedule (step()) on one thread team; pure
// message passing runs it on a one-member team.  The only place the two
// differ is the force kernel (plain_kernel()).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/boundary.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "core/step_loop.hpp"
#include "decomp/block.hpp"
#include "decomp/halo.hpp"
#include "decomp/layout.hpp"
#include "decomp/migrate.hpp"
#include "decomp/rebalance.hpp"
#include "driver/knobs.hpp"
#include "mp/comm.hpp"
#include "mp/nodemap.hpp"
#include "reduction/force_pass.hpp"
#include "smp/thread_team.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

namespace hdem {

// StateRecord (core/init.hpp) is the snapshot type gather_state returns.

template <int D, class Model = ElasticSphere>
class MpSim {
 public:
  using Options = MpOptions;  // driver/knobs.hpp

  MpSim(const SimConfig<D>& cfg, const DecompLayout<D>& layout,
        mp::Comm& comm, const Model& model,
        std::span<const ParticleInit<D>> global_particles,
        Options opts = {})
      : cfg_(cfg),
        layout_(layout),
        comm_(&comm),
        model_(model),
        boundary_(cfg.bc, cfg.box),
        // The exchanger aliases this driver's layout_ (declared before
        // halo_), so rebalancer edits to the assignment table are visible
        // at the next template rebuild.  Templates are built at the
        // widened width rc + skin: the extra ring of copies is what lets
        // one template survive every step of a list-reuse interval.
        halo_(layout_, boundary_, cfg.list_radius()),
        opts_(opts) {
    cfg_.validate();
    layout_.validate(cfg_);
    if (layout_.nprocs() != comm.size()) {
      throw std::invalid_argument("MpSim: layout rank count != comm size");
    }
    opts_.validate();
    team_ = std::make_unique<smp::ThreadTeam>(opts_.nthreads);
    if (opts_.shared_halo) {
      halo_.enable_shared_windows(mp::NodeMap(opts_.ranks_per_node));
    }
    // Framed swaps (delta compression and/or coalescing) come from the
    // config — a collective setting, validated by cfg_.validate() above —
    // so every rank's exchanger frames identically.
    halo_.set_frame_modes(cfg_.halo_delta, cfg_.halo_coalesce);

    // Instantiate this rank's blocks and adopt its share of the global
    // initial condition (every rank scans the same deterministic list).
    for (const auto& coords : layout_.blocks_of_rank(comm.rank())) {
      BlockDomain<D> b;
      b.coords = coords;
      b.index = layout_.block_index(coords);
      b.lo = layout_.block_lo(coords, cfg_.box);
      b.hi = b.lo + layout_.block_width(cfg_.box);
      blocks_.push_back(std::move(b));
    }
    for (std::size_t i = 0; i < global_particles.size(); ++i) {
      const auto& p = global_particles[i];
      const auto c = layout_.block_of_position(p.pos, cfg_.box);
      if (layout_.owner_rank(c) != comm.rank()) continue;
      const int bi = layout_.block_index(c);
      for (auto& b : blocks_) {
        if (b.index == bi) {
          b.store.push_back(p.pos, p.vel, static_cast<std::int32_t>(i));
          b.ncore = b.store.size();
          break;
        }
      }
    }
    counters_.blocks = blocks_.size();
    rebuild();
  }

  bool hybrid() const { return team_->size() > 1; }

  // One step, one schedule: start the halo swap; complete it before the
  // force pass over every link (synchronous), or run the pass over core
  // links — which never read halo data — while messages are in flight and
  // complete the swap before the pass over halo links (overlapped); then
  // one update pass and one collective.  Each block accumulates its core
  // links before its halo links either way, so both schedules give the
  // same bits.  Every block's forces may run before any block's update:
  // halo entries are copies, so no block reads another block's core.
  void step() {
    if (!list_valid()) {
      rebuild();
    } else if (counters_.iterations > 0) {
      // A reused list skips the whole rebuild pipeline: no migration
      // check, no halo-template refresh (and hence no shared-window
      // republication), no link regeneration.  The per-step halo swap
      // still runs — positions change every step — but against the
      // templates built at the widened width.
      ++counters_.rebuilds_skipped;
      ++counters_.migrations_skipped;
      ++counters_.halo_rebuilds_skipped;
    }
    trace::Scope iteration(trace::Phase::kIteration, comm_->rank());
    {
      trace::Scope scope(trace::Phase::kHaloSwap, comm_->rank());
      halo_.begin_swap(blocks_, *comm_, counters_);
    }
    const bool overlap = opts_.overlap;
    if (!overlap) finish_swap();
    pe_.assign(2 * (opts_.fused ? 1 : blocks_.size()), 0.0);
    force_pass(overlap ? ForceSection::kCore : ForceSection::kAll);
    if (overlap) {
      finish_swap();
      force_pass(ForceSection::kHalo);
    }
    // Summed in block order, core before halo, as every executor always
    // summed them: the reported potential keeps its bits in both schedules.
    potential_ = 0.0;
    for (const double pe : pe_) potential_ += pe;
    double max_v = 0.0;
    double max_d = 0.0;
    {
      trace::Scope scope(trace::Phase::kUpdate, comm_->rank());
      update_positions(max_v, max_d);
    }
    // The rebuild criterion must be a global decision: take the worldwide
    // maximum (also how the paper's global quantities are formed — reduced
    // per block, then across processes).
    trace::Scope collective_scope(trace::Phase::kCollective, comm_->rank());
    advance_drift(max_v, max_d);
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<MpSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return drift_.valid(cfg_.drift_allowance()); }

  void rebuild() {
    for (auto& b : blocks_) b.store.truncate(b.ncore);
    // Rebalance before particle migration: whole blocks move first, then
    // the ordinary migration re-homes stray particles against the (possibly
    // updated) table, and everything below — templates, lists, accumulator
    // plans — is rebuilt against the new ownership.
    if (opts_.rebalance) maybe_rebalance();
    {
      trace::Scope scope(trace::Phase::kMigrate, comm_->rank());
      migrate_particles(blocks_, layout_, boundary_, *comm_, counters_);
    }

    // Cells (and the halo margin around the block) are sized for
    // binning_radius() >= rc + skin so the one-cell stencil still covers
    // the widened candidate radius.
    const Vec<D> margin_vec(cfg_.binning_radius());
    {
      // Core-only binning for the reorder permutation and halo templates.
      // The whole pipeline runs on the team (serially on a one-member
      // team).
      trace::Scope scope(trace::Phase::kBin, comm_->rank());
      Timer t;
      for (auto& b : blocks_) {
        b.grid.configure(b.lo - margin_vec, b.hi + margin_vec,
                         cfg_.binning_radius(), no_wrap());
        b.grid.bin_parallel(b.store.cpositions(), b.ncore, *team_);
      }
      counters_.rebuild_bin_ns += t.nanoseconds();
    }
    if (cfg_.reorder) {
      trace::Scope scope(trace::Phase::kReorder, comm_->rank());
      Timer t;
      for (auto& b : blocks_) {
        b.store.apply_permutation_parallel(b.grid.order(), b.ncore, *team_);
        b.grid.reset_order_to_identity();
        ++counters_.reorders;
      }
      counters_.rebuild_reorder_ns += t.nanoseconds();
    }
    {
      trace::Scope scope(trace::Phase::kHaloBuild, comm_->rank());
      halo_.build_templates(blocks_, *comm_, counters_);
    }

    counters_.links_core = 0;
    counters_.links_halo = 0;
    counters_.halo_particles = 0;
    counters_.particles = 0;
    trace::Scope link_scope(trace::Phase::kLinkBuild, comm_->rank());
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      auto& b = blocks_[k];
      {
        // Re-bin including the fresh halo copies.
        trace::Scope scope(trace::Phase::kBin, comm_->rank());
        Timer t;
        b.grid.bin_parallel(b.store.cpositions(), b.store.size(), *team_);
        counters_.rebuild_bin_ns += t.nanoseconds();
      }
      {
        // The one link build (list + color plan + stats, see
        // link_list.hpp).  Blocks see shifted halo copies, so the
        // displacement is plain subtraction.
        trace::Scope scope(trace::Phase::kLinkGen, comm_->rank());
        Timer t;
        build_links_fused(b.links, b.grid, b.store.cpositions(), b.ncore,
                          cfg_.list_radius(), PairDisp<D>{}, *team_,
                          fused_link_scratch_, &counters_);
        counters_.rebuild_linkgen_ns += t.nanoseconds();
      }
      counters_.halo_particles += b.halo_count();
      counters_.particles += b.ncore;
    }
    ref_pos_.resize(blocks_.size());
    if (cfg_.drift_measured) {
      for (std::size_t k = 0; k < blocks_.size(); ++k) {
        const auto pos = blocks_[k].store.cpositions();
        ref_pos_[k].assign(pos.begin(),
                           pos.begin() + static_cast<std::ptrdiff_t>(
                                             blocks_[k].ncore));
      }
    }
    prepare_team_passes();
    // Fresh cost window for the next rebuild interval (and the right size
    // after a block handoff).
    block_cost_ns_.assign(blocks_.size(), 0);
    drift_.reset();
    ++counters_.rebuilds;
  }

  // -- energies (collective: every rank must call together) -----------------
  double local_potential() const { return potential_; }
  double local_kinetic() const {
    double ke = 0.0;
    for (const auto& b : blocks_) ke += kinetic_energy(b.store, b.ncore);
    return ke;
  }
  double global_potential() { return reduce_energy(local_potential()); }
  double global_kinetic() { return reduce_energy(local_kinetic()); }
  double global_energy() {
    return reduce_energy(local_potential() + local_kinetic());
  }

  // Full particle state at the root rank, sorted by id (empty elsewhere).
  // Collective.
  std::vector<StateRecord<D>> gather_state(int root = 0) {
    std::vector<StateRecord<D>> mine;
    for (const auto& b : blocks_) {
      for (std::size_t i = 0; i < b.ncore; ++i) {
        mine.push_back({b.store.id(i), b.store.pos(i), b.store.vel(i)});
      }
    }
    auto all = comm_->gatherv(std::span<const StateRecord<D>>(mine), root);
    std::sort(all.begin(), all.end(),
              [](const StateRecord<D>& a, const StateRecord<D>& b) {
                return a.id < b.id;
              });
    return all;
  }

  // This rank's counters including communication and (hybrid) team
  // synchronisation tallies.  A one-member team runs its regions inline,
  // so its tallies are left out: pure message passing reports no fork/join.
  Counters counters() const {
    Counters c = counters_;
    const Counters& mc = comm_->counters();
    c.msgs_sent = mc.msgs_sent;
    c.bytes_sent = mc.bytes_sent;
    c.collectives = mc.collectives;
    c.irecvs_posted = mc.irecvs_posted;
    c.waits_blocked = mc.waits_blocked;
    c.bytes_overlapped = mc.bytes_overlapped;
    c.bytes_exposed = mc.bytes_exposed;
    c.exposed_wait_ns = mc.exposed_wait_ns;
    if (hybrid()) {
      c.parallel_regions = team_->regions();
      c.barriers = team_->barriers();
      c.critical_sections = team_->criticals();
    }
    // Live per-block cost window (since the last rebuild), for the
    // imbalance diagnostics and tests.
    c.block_cost_ns = block_cost_ns_;
    return c;
  }

  const std::vector<BlockDomain<D>>& blocks() const { return blocks_; }
  const DecompLayout<D>& layout() const { return layout_; }
  const SimConfig<D>& config() const { return cfg_; }
  mp::Comm& comm() { return *comm_; }

 private:
  // The tentpole's decision step, run at every list rebuild when enabled.
  // Collective: every rank contributes its measured per-block costs to one
  // allgatherv, then runs the identical pure-integer procedure (permille
  // imbalance of the current table vs the deterministic LPT candidate) on
  // the identical vector — so all ranks adopt, or keep, the same table
  // with no further communication.  On adoption, whole blocks hand their
  // particles to the new owners before the ordinary migration runs.
  void maybe_rebalance() {
    trace::Scope scope(trace::Phase::kRebalance, comm_->rank());
    std::vector<BlockCost> mine(blocks_.size());
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      mine[k].block = blocks_[k].index;
      mine[k].cost = k < block_cost_ns_.size() ? block_cost_ns_[k] : 0;
    }
    const auto cost = exchange_block_costs(layout_.nblocks(), mine, *comm_);
    // Construction rebuild (or a rebuild before any step): nothing has
    // been measured anywhere, so keep the current table.  The check is on
    // the gathered vector, which every rank sees identically.
    bool measured = false;
    for (const std::uint64_t c : cost) measured = measured || c != 0;
    if (!measured) return;
    const std::uint64_t current =
        imbalance_permille(cost, layout_.assignment(), layout_.nprocs());
    std::vector<int> candidate = lpt_assignment<D>(layout_, cost);
    const std::uint64_t cand =
        imbalance_permille(cost, candidate, layout_.nprocs());
    if (!should_adopt(current, cand, opts_.rebalance_threshold)) return;
    std::uint64_t moved = 0;
    for (std::size_t b = 0; b < candidate.size(); ++b) {
      if (candidate[b] != layout_.assignment()[b]) ++moved;
    }
    layout_.set_assignment(std::move(candidate));
    migrate_blocks(blocks_, layout_, cfg_.box, *comm_, counters_);
    counters_.blocks_reassigned += moved;
    ++counters_.rebalances;
    counters_.blocks = blocks_.size();
  }

  // The force kernel at T = 1 is the plain serial kernel, which needs no
  // accumulators.  Routed through the one-member team's colored pass, the
  // pure message-passing force phase on hot2d rose from about 400 to 463
  // µs per step per rank (4-core x86 host).  Everything else runs on the
  // team at every T.
  bool plain_kernel() const { return team_->size() == 1; }

  // Rebuild-time setup of the team passes: the block set and, off the
  // plain kernel, per-block accumulators prepared for their sets.
  void prepare_team_passes() {
    accs_.resize(blocks_.size());
    set_.clear();
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      auto& b = blocks_[k];
      set_.push_back({&b.links, &b.store,
                      plain_kernel() ? nullptr : &accs_[k], b.ncore,
                      ref_pos_[k]});
    }
    if (plain_kernel()) return;
    for (auto& a : accs_) a = make_accumulator<D>(opts_.reduction, opts_.steal);
    for_each_set([&](std::size_t, std::span<const PassBlock<D>> set) {
      prepare_force_pass<D>(set, team_->size());
    });
  }

  // The block sets of the team passes: all of the rank's blocks in one
  // set (fused), or one set per block.  f(slot, set) gets the set's
  // position, which indexes its energy partials in pe_.
  template <class F>
  void for_each_set(F&& f) {
    const std::span<const PassBlock<D>> all(set_);
    if (opts_.fused) {
      if (!all.empty()) f(0, all);
      return;
    }
    for (std::size_t k = 0; k < all.size(); ++k) f(k, all.subspan(k, 1));
  }

  static std::int64_t section_size(const LinkList& l, ForceSection section) {
    switch (section) {
      case ForceSection::kCore: return static_cast<std::int64_t>(l.n_core);
      case ForceSection::kHalo:
        return static_cast<std::int64_t>(l.size() - l.n_core);
      case ForceSection::kAll: break;
    }
    return static_cast<std::int64_t>(l.size());
  }

  void finish_swap() {
    trace::Scope scope(trace::Phase::kHaloWait, comm_->rank());
    halo_.finish_swap(blocks_, *comm_, counters_);
  }

  // The force executor: one pass over `section` of every block's links,
  // the team pass over each block set or the plain kernel block by block.
  // The energy lands in pe_ as (core, halo) partials, one pair per set.
  void force_pass(ForceSection section) {
    trace::Scope scope(trace::Phase::kForce, comm_->rank());
    if (plain_kernel()) {
      for (std::size_t k = 0; k < blocks_.size(); ++k) {
        plain_block_pass(k, section);
      }
    } else {
      // Halo copies are geometrically shifted, so displacement is plain
      // xi - xj; PairDisp (not an opaque lambda) keeps the batched
      // kernel's vector gather phase active.
      for_each_set([&](std::size_t slot, std::span<const PassBlock<D>> set) {
        const SectionEnergy e = team_force_pass<D>(
            *team_, set, model_, PairDisp<D>{}, &counters_, section);
        pe_[2 * slot] += e.core;
        pe_[2 * slot + 1] += e.halo;
      });
    }
    // Links walked per section is the cost signal (links walked ×
    // ns/link — the scale factor cancels out of LPT's relative weights).
    // Unlike wall-clock timings it is identical on every run, rank and team
    // size, so every schedule adopts the same tables at the same rebuilds
    // and the bit-identity gate holds by construction.
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      block_cost_ns_[k] +=
          static_cast<std::uint64_t>(section_size(blocks_[k].links, section));
    }
  }

  // One block's section on the plain kernel.
  void plain_block_pass(std::size_t k, ForceSection section) {
    auto& b = blocks_[k];
    const PairDisp<D> disp{};
    if (section != ForceSection::kHalo) {
      zero_forces(b.store);
      pe_[2 * k] = accumulate_forces<D>(b.links.core(), b.store, model_, disp,
                                        /*update_both=*/true, 1.0, &counters_);
    }
    if (section != ForceSection::kCore) {
      pe_[2 * k + 1] =
          accumulate_forces<D>(b.links.halo(), b.store, model_, disp,
                               /*update_both=*/false, 0.5, &counters_);
    }
  }

  // The update pass: kick-drift every block's core particles on the team,
  // one region per block set.  Each thread also takes the maximum speed
  // and, under the measured trigger, the maximum displacement since the
  // last rebuild over its own particles.
  void update_positions(double& max_v, double& max_d) {
    for_each_set([&](std::size_t, std::span<const PassBlock<D>> set) {
      double d = 0.0;
      max_v = std::max(max_v, team_update_pass<D>(
                                  *team_, set, cfg_.dt, cfg_.gravity,
                                  boundary_, &counters_,
                                  cfg_.drift_measured ? &d : nullptr));
      max_d = std::max(max_d, d);
    });
  }

  static std::array<bool, D> no_wrap() {
    std::array<bool, D> w{};
    w.fill(false);
    return w;
  }

  double reduce_energy(double local) {
    return comm_->allreduce(local, mp::Op::kSum);
  }

  // Advance the rebuild criterion — one kMax allreduce per step either
  // way.  The measured trigger reduces the true maximum core displacement
  // since the last rebuild (taken per thread inside the update pass)
  // instead of accumulating the worldwide maximum speed times dt (its
  // upper bound), so rebuilds can only become rarer.
  void advance_drift(double max_v, double max_d) {
    if (!cfg_.drift_measured) max_v = comm_->allreduce(max_v, mp::Op::kMax);
    drift_.advance(max_v,
                   [&] { return comm_->allreduce(max_d, mp::Op::kMax); });
  }

  SimConfig<D> cfg_;
  DecompLayout<D> layout_;
  mp::Comm* comm_;
  Model model_;
  Boundary<D> boundary_;
  HaloExchanger<D> halo_;
  Options opts_;
  std::unique_ptr<smp::ThreadTeam> team_;
  std::vector<AnyAccumulator<D>> accs_;
  std::vector<BlockDomain<D>> blocks_;
  // The blocks as the team passes take them, rebuilt at every rebuild.
  std::vector<PassBlock<D>> set_;
  FusedBuildScratch fused_link_scratch_;  // link build, reused per block
  // Per-step (core, halo) potential-energy partials, one pair per block
  // set, summed in order by step().
  std::vector<double> pe_;
  // Per-block step cost accumulated since the last rebuild, in links
  // walked (the cost model's dominant term and, unlike a wall-clock
  // timing, identical across runs, ranks and team sizes — the rebalancer
  // must see the same vector everywhere to adopt the same table); reset
  // at every rebuild.
  std::vector<std::uint64_t> block_cost_ns_;
  // Per-block rebuild-time core-position snapshots for the measured-drift
  // trigger (empty when it is off).
  std::vector<std::vector<Vec<D>>> ref_pos_;
  double potential_ = 0.0;
  DriftTracker drift_{cfg_.drift_measured, cfg_.dt};
  Counters counters_;
};

}  // namespace hdem

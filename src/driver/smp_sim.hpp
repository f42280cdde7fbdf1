// Shared-memory driver: the paper's pure OpenMP implementation, and on a
// one-member team its serial code.
//
// One undecomposed domain; the force loop is parallelised over *links*
// with a static block schedule (automatically load-balanced "since the
// work is tied directly to the links rather than the particles"), the
// position update over particles, and link generation over cells.  The
// force-array update conflict is resolved by a selectable strategy
// (src/reduction).
//
// The serial reference driver is this class on a one-member team with the
// colored reduction (the defaults; core/serial_sim.hpp names it
// SerialSim), as in the paper, where the OpenMP code at T = 1 is measured
// against the serial one.  Every stage of the step and of the rebuild runs
// on the team at every T; the one T = 1 special case is the force kernel
// (plain_kernel()).  Optional permanent bonds (the grain examples) run on
// the master after the team's force pass.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "core/link_list.hpp"
#include "core/particle_store.hpp"
#include "core/step_loop.hpp"
#include "driver/knobs.hpp"
#include "reduction/force_pass.hpp"
#include "smp/thread_team.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

namespace hdem {

template <int D, class Model = ElasticSphere>
class SmpSim {
 public:
  // steal: replace the colored schedule's static chunk runs with
  // deterministic work stealing over the color-plan chunks (colored
  // reduction only; trajectories stay bit-identical to the static
  // schedule at any team size).
  SmpSim(const SimConfig<D>& cfg, const Model& model,
         std::span<const ParticleInit<D>> particles, int nthreads = 1,
         ReductionKind reduction = ReductionKind::kColored,
         bool steal = false)
      : cfg_(cfg),
        model_(model),
        boundary_(cfg.bc, cfg.box),
        team_(make_team(nthreads, reduction, steal)),
        reduction_kind_(reduction),
        steal_(steal),
        acc_(make_accumulator<D>(reduction, steal)) {
    cfg_.validate();
    store_.reserve(particles.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      store_.push_back(particles[i].pos, particles[i].vel,
                       static_cast<std::int32_t>(i));
    }
    counters_.particles = particles.size();
    rebuild();
  }

  // Convenience: the paper's uniform random benchmark system.
  static SmpSim make_random(const SimConfig<D>& cfg, const Model& model,
                            std::uint64_t n, int nthreads = 1,
                            ReductionKind reduction = ReductionKind::kColored) {
    const auto init = uniform_random_particles(cfg, n);
    return SmpSim(cfg, model, init, nthreads, reduction);
  }

  // Permanent bond between the particles with ids ida and idb (grain
  // construction).  Ids are stable across the cell-order reordering that
  // happens at every rebuild (including the one in the constructor), so
  // this is the only safe way to address a particle from outside.
  void add_bond(std::int32_t ida, std::int32_t idb,
                const BondedSpring& spring) {
    if (ida == idb || ida < 0 || idb < 0 ||
        static_cast<std::size_t>(ida) >= store_.size() ||
        static_cast<std::size_t>(idb) >= store_.size()) {
      throw std::invalid_argument("add_bond: bad particle ids");
    }
    bonds_.push_back({index_of_id(ida), index_of_id(idb)});
    bond_springs_.push_back(spring);
  }

  // Current storage index of the particle with the given id.  The map is
  // rebuilt on the first query after a reorder, so a run that never asks
  // pays no per-rebuild pass for it.
  std::int32_t index_of_id(std::int32_t id) const {
    if (index_of_id_stale_) {
      index_of_id_.resize(store_.size());
      for (std::size_t i = 0; i < store_.size(); ++i) {
        index_of_id_[static_cast<std::size_t>(store_.id(i))] =
            static_cast<std::int32_t>(i);
      }
      index_of_id_stale_ = false;
    }
    return index_of_id_[static_cast<std::size_t>(id)];
  }

  // One force + position-update step, rebuilding the link list first if it
  // is no longer valid.
  void step() {
    if (!list_valid()) {
      rebuild();
    } else if (counters_.iterations > 0) {
      ++counters_.rebuilds_skipped;
    }
    trace::Scope iteration(trace::Phase::kIteration);
    // PairDisp (not an opaque lambda) lets the batched kernel run its
    // vector gather phase.
    const PairDisp<D> disp = boundary_.pair_disp();
    {
      trace::Scope scope(trace::Phase::kForce);
      if (plain_kernel()) {
        zero_forces(store_);
        potential_ = accumulate_forces<D>(links_.core(), store_, model_, disp,
                                          /*update_both=*/true, 1.0,
                                          &counters_);
      } else {
        potential_ = dispatch_force_pass<D>(acc_, *team_, links_, store_,
                                            model_, disp, &counters_);
      }
      // After the join every particle has all of its link forces, so the
      // bond forces land last at any team size.
      potential_ += bond_forces(disp);
    }
    // The measured drift is taken per thread inside the update pass.
    double max_v = 0.0;
    double max_d = 0.0;
    {
      trace::Scope scope(trace::Phase::kUpdate);
      const PassBlock<D> self{&links_, &store_, &acc_, store_.size(),
                              ref_pos_};
      max_v = team_update_pass<D>(*team_, {&self, 1}, cfg_.dt, cfg_.gravity,
                                  boundary_, &counters_,
                                  cfg_.drift_measured ? &max_d : nullptr);
    }
    drift_.advance(max_v, [&] { return max_d; });
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<SmpSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return drift_.valid(cfg_.drift_allowance()); }

  // The whole rebuild pipeline runs thread-parallel: wrap, binning
  // (two-level counting sort), cell-order reorder (parallel gather), and
  // the fused link build, which emits the list already in the color plan's
  // canonical order.  Every stage is exactly reproducing its serial
  // counterpart's output, so trajectories stay bit-identical for any team
  // size.
  void rebuild() {
    trace::Scope rebuild_scope(trace::Phase::kLinkBuild);
    {
      trace::Scope scope(trace::Phase::kBin);
      Timer t;
      // Wrap positions (parallel over particles).
      team_->parallel_for(0, static_cast<std::int64_t>(store_.size()),
                          [&](int, std::int64_t lo, std::int64_t hi) {
                            auto pos = store_.positions();
                            for (std::int64_t i = lo; i < hi; ++i) {
                              boundary_.wrap(pos[static_cast<std::size_t>(i)]);
                            }
                          });
      // Cells are sized for binning_radius() >= list_radius() so the
      // one-cell stencil still covers rc + skin.
      grid_.configure(Vec<D>{}, cfg_.box, cfg_.binning_radius(), wrap_flags());
      grid_.bin_parallel(store_.cpositions(), store_.size(), *team_);
      counters_.rebuild_bin_ns += t.nanoseconds();
    }
    if (cfg_.reorder) {
      trace::Scope scope(trace::Phase::kReorder);
      Timer t;
      remap_bonds(grid_.order());
      store_.apply_permutation_parallel(grid_.order(), store_.size(), *team_);
      grid_.reset_order_to_identity();
      index_of_id_stale_ = true;
      ++counters_.reorders;
      counters_.rebuild_reorder_ns += t.nanoseconds();
    }
    {
      trace::Scope scope(trace::Phase::kLinkGen);
      Timer t;
      counters_.links_core = 0;
      counters_.links_halo = 0;
      build_links_fused(links_, grid_, store_.cpositions(), store_.size(),
                        cfg_.list_radius(), boundary_.pair_disp(), *team_,
                        fused_scratch_, &counters_);
      counters_.rebuild_linkgen_ns += t.nanoseconds();
    }
    if (!plain_kernel()) {
      prepare_accumulator<D>(acc_, team_->size(), links_, store_.size());
    }
    if (cfg_.drift_measured) {
      const auto pos = store_.cpositions();
      ref_pos_.assign(pos.begin(), pos.begin() + store_.size());
    }
    drift_.reset();
    ++counters_.rebuilds;
  }

  double potential_energy() const { return potential_; }
  double kinetic() const { return kinetic_energy(store_, store_.size()); }
  double total_energy() const { return potential_ + kinetic(); }

  const SimConfig<D>& config() const { return cfg_; }
  const Boundary<D>& boundary() const { return boundary_; }
  ParticleStore<D>& store() { return store_; }
  const ParticleStore<D>& store() const { return store_; }
  const LinkList& links() const { return links_; }
  smp::ThreadTeam& team() { return *team_; }
  ReductionKind reduction_kind() const { return reduction_kind_; }

  // Counters including the team's synchronisation tallies.  A one-member
  // team runs its regions inline, so its tallies are left out: the serial
  // driver reports no fork/join.
  Counters counters() const {
    Counters c = counters_;
    if (team_->size() > 1) {
      c.parallel_regions = team_->regions();
      c.barriers = team_->barriers();
      c.critical_sections = team_->criticals();
    }
    return c;
  }

 private:
  // The team, once MpOptions has checked the threading knobs.
  static std::unique_ptr<smp::ThreadTeam> make_team(int nthreads,
                                                    ReductionKind reduction,
                                                    bool steal) {
    MpOptions{.nthreads = nthreads, .reduction = reduction, .steal = steal}
        .validate();
    return std::make_unique<smp::ThreadTeam>(nthreads);
  }

  // At T = 1 the colored pass is the plain kernel over the list in storage
  // order: the color plan's pair-swapped chunk order already gives every
  // particle the phases' accumulation order, so the bits are the same and
  // the one-member phase walk's overhead is saved.  The other strategies
  // keep their team pass at T = 1, whose overhead the paper measures, and
  // so does stealing, whose energy is summed per chunk at every T.
  bool plain_kernel() const {
    return team_->size() == 1 &&
           reduction_kind_ == ReductionKind::kColored && !steal_;
  }

  std::array<bool, D> wrap_flags() const {
    std::array<bool, D> w{};
    w.fill(boundary_.periodic());
    return w;
  }

  double bond_forces(const PairDisp<D>& disp) {
    double pe = 0.0;
    auto pos = store_.positions();
    auto vel = store_.velocities();
    auto frc = store_.forces();
    for (std::size_t b = 0; b < bonds_.size(); ++b) {
      const auto i = static_cast<std::size_t>(bonds_[b].i);
      const auto j = static_cast<std::size_t>(bonds_[b].j);
      const Vec<D> d = disp(pos[i], pos[j]);
      const double rv = dot(vel[i] - vel[j], d);
      double s, e;
      if (!bond_springs_[b].pair(norm2(d), rv, s, e)) continue;
      pe += e;
      const Vec<D> f = s * d;
      frc[i] += f;
      frc[j] -= f;
    }
    return pe;
  }

  // Bond endpoints are particle indices, so the cell-order permutation
  // (new index k holds old particle perm[k]) must be inverted and applied.
  void remap_bonds(const std::vector<std::int32_t>& perm) {
    if (bonds_.empty()) return;
    inverse_perm_.resize(perm.size());
    for (std::size_t k = 0; k < perm.size(); ++k) {
      inverse_perm_[static_cast<std::size_t>(perm[k])] =
          static_cast<std::int32_t>(k);
    }
    for (auto& b : bonds_) {
      b.i = inverse_perm_[static_cast<std::size_t>(b.i)];
      b.j = inverse_perm_[static_cast<std::size_t>(b.j)];
    }
  }

  SimConfig<D> cfg_;
  Model model_;
  Boundary<D> boundary_;
  // Behind a pointer so the driver stays movable.
  std::unique_ptr<smp::ThreadTeam> team_;
  ReductionKind reduction_kind_;
  bool steal_;
  AnyAccumulator<D> acc_;
  ParticleStore<D> store_;
  CellGrid<D> grid_;
  LinkList links_;
  FusedBuildScratch fused_scratch_;
  std::vector<Link> bonds_;
  std::vector<BondedSpring> bond_springs_;
  std::vector<std::int32_t> inverse_perm_;
  // id -> storage index, rebuilt lazily by index_of_id().
  mutable std::vector<std::int32_t> index_of_id_;
  mutable bool index_of_id_stale_ = true;
  double potential_ = 0.0;
  DriftTracker drift_{cfg_.drift_measured, cfg_.dt};
  // Rebuild-time position snapshot for the measured-drift trigger.
  std::vector<Vec<D>> ref_pos_;
  Counters counters_;
};

}  // namespace hdem

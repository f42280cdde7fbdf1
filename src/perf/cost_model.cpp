#include "perf/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hdem::perf {

ModelLayout paper_scale_layout(const RunMeasurement& run, int ranks_per_node,
                               double target_particles) {
  ModelLayout l;
  l.ranks_per_node = ranks_per_node;
  const Workload& w = run.workload;
  const double ratio = target_particles / static_cast<double>(w.n ? w.n : 1);
  if (ratio <= 1.0) return l;
  const double surface = std::pow(ratio, (w.D - 1.0) / w.D);
  l.count_scale = ratio;
  l.cache_gap_scale = run.knobs.reorder ? surface : ratio;
  l.comm_scale = surface;
  l.sync_scale = 1.0;
  return l;
}

double halo_change_fraction(const RunMeasurement& run) {
  if (run.agg.halo_bytes_eager == 0) return 1.0;
  return static_cast<double>(run.agg.halo_bytes_delta) /
         static_cast<double>(run.agg.halo_bytes_eager);
}

double CostModel::bytes_per_particle(int D) {
  // Positions and forces of the partner particle plus the link record:
  // 2 vectors of D doubles + two 4-byte indices.
  return 2.0 * 8.0 * D + 8.0;
}

double CostModel::miss_fraction(double capacity_bytes,
                                const RunMeasurement& run, double gap_scale) {
  // A link access to particle j has reuse span ~ |i - j| particles.
  // Scaling every gap by gap_scale is equivalent to shrinking the capacity.
  const double capacity = capacity_bytes /
                          bytes_per_particle(run.workload.D) /
                          std::max(gap_scale, 1e-12);
  return run.agg.gap_fraction_above(capacity);
}

double CostModel::miss_probability(const MachineSpec& machine,
                                   const RunMeasurement& run,
                                   double gap_scale) {
  return miss_fraction(machine.cache_bytes, run, gap_scale);
}

CostModel::TrafficSplit CostModel::split_traffic(const RunMeasurement& run,
                                                 int ranks_per_node) {
  TrafficSplit s;
  const int p = run.knobs.nprocs;
  if (run.bytes_matrix.size() != static_cast<std::size_t>(p) * p ||
      run.msgs_matrix.size() != static_cast<std::size_t>(p) * p) {
    return s;  // no traffic recorded (serial / threaded runs)
  }
  const int rpn = std::max(1, ranks_per_node);
  for (int src = 0; src < p; ++src) {
    for (int dst = 0; dst < p; ++dst) {
      if (src == dst) continue;  // self-messages are local copies
      const auto idx = static_cast<std::size_t>(src) * p + dst;
      const bool same_node = (src / rpn) == (dst / rpn);
      if (same_node) {
        s.msgs_intra += static_cast<double>(run.msgs_matrix[idx]);
        s.bytes_intra += static_cast<double>(run.bytes_matrix[idx]);
      } else {
        s.msgs_inter += static_cast<double>(run.msgs_matrix[idx]);
        s.bytes_inter += static_cast<double>(run.bytes_matrix[idx]);
      }
    }
  }
  return s;
}

CostBreakdown CostModel::predict(const MachineSpec& machine,
                                 const RunMeasurement& run,
                                 const Layout& layout) {
  const int nprocs = run.knobs.nprocs;
  if (run.iterations == 0 || nprocs < 1) {
    throw std::invalid_argument("CostModel::predict: empty measurement");
  }
  const double per_rank_iter =
      layout.count_scale /
      (static_cast<double>(nprocs) * static_cast<double>(run.iterations));

  const double links = static_cast<double>(run.agg.force_evals) * per_rank_iter;
  const double contacts =
      static_cast<double>(run.agg.contacts) * per_rank_iter;
  const double updates =
      static_cast<double>(run.agg.position_updates) * per_rank_iter;
  const double atomics =
      static_cast<double>(run.agg.atomic_updates) * per_rank_iter;
  const double force_updates =
      static_cast<double>(run.agg.atomic_updates + run.agg.plain_updates) *
      per_rank_iter;
  const double per_rank_iter_sync =
      layout.sync_scale /
      (static_cast<double>(nprocs) * static_cast<double>(run.iterations));
  const double regions =
      static_cast<double>(run.agg.parallel_regions) * per_rank_iter_sync;
  const double barriers =
      static_cast<double>(run.agg.barriers) * per_rank_iter_sync;
  const double criticals =
      static_cast<double>(run.agg.critical_sections) * per_rank_iter_sync;
  const double red_bytes =
      static_cast<double>(run.agg.reduction_bytes) * per_rank_iter;

  const int t_count = std::max(1, run.knobs.nthreads);
  const int busy_cpus = std::min(machine.cpus_per_node,
                                 std::max(1, layout.ranks_per_node) * t_count);
  const double saturation = 1.0 + machine.mem_saturation * (busy_cpus - 1);
  // Two-level cache: reuse spans past L1 (but within L2) cost t_mem_l1;
  // spans past L2 cost t_mem.  An unset L1 (0 bytes) collapses to the
  // single-level model.
  const double miss_l2 =
      miss_fraction(machine.cache_bytes, run, layout.cache_gap_scale);
  const double l1_bytes = machine.cache_l1_bytes > 0.0
                              ? machine.cache_l1_bytes
                              : machine.cache_bytes;
  const double miss_l1 = miss_fraction(l1_bytes, run, layout.cache_gap_scale);
  // Only beyond-L2 traffic rides the node's shared memory system, so only
  // that share is subject to the multi-CPU saturation penalty; L1-miss /
  // L2-hit traffic stays within the CPU's own cache hierarchy.
  const double mem_per_link =
      machine.t_mem_l1 * (miss_l1 - miss_l2) +
      machine.t_mem * miss_l2 * saturation;

  CostBreakdown out;
  // Work terms execute concurrently on the rank's threads.
  const double t_link =
      machine.t_pair + (run.workload.D == 3 ? machine.t_pair3 : 0.0);
  out.compute = (links * t_link + updates * machine.t_update) / t_count;
  out.memory =
      (links * mem_per_link + contacts * machine.t_contact * miss_l1) /
      t_count;
  // Threads sharing one force array pay coherence traffic on its cache
  // lines; like fork/barrier costs, normalised to a 4-thread team.
  const double contend_scale =
      t_count > 1 ? static_cast<double>(t_count - 1) / 3.0 : 0.0;
  out.memory += force_updates * machine.t_contend * contend_scale / t_count;
  out.atomic = atomics * machine.t_atomic / t_count;
  // Private-array traffic is bandwidth-bound: all threads share the node's
  // memory system, so dividing by T would be double counting.
  out.reduction =
      red_bytes / std::max(machine.reduction_bw, 1.0) * saturation;
  // Synchronisation episodes: cost grows with team size (normalise the
  // spec's constants to a 4-thread team, zero for a single thread).
  const double sync_scale = t_count > 1 ? static_cast<double>(t_count - 1) / 3.0
                                        : 0.0;
  out.sync = (regions * machine.t_fork + barriers * machine.t_barrier) *
                 sync_scale +
             criticals * machine.t_critical;

  // Traffic matrices hold totals over all ranks and iterations; reduce to
  // a per-rank per-iteration cost (bulk-synchronous, balanced workload).
  const TrafficSplit ts = split_traffic(run, layout.ranks_per_node);
  // Bandwidths are node resources: the interconnect adapter is shared by
  // every rank on the node (multiply the per-rank byte cost back up by
  // ranks_per_node), and intra-node transfers ride the saturating memory
  // system.  Message latencies are CPU overhead, paid per rank.
  const double rpn = std::max(1, layout.ranks_per_node);
  const double p2p_scale =
      layout.comm_scale / (static_cast<double>(nprocs) *
                           static_cast<double>(run.iterations));
  const double p2p_latency =
      (ts.msgs_intra * machine.lat_intra + ts.msgs_inter * machine.lat_inter) *
      p2p_scale;
  const double p2p_bytes =
      (ts.bytes_intra * saturation / std::max(machine.bw_intra, 1.0) +
       ts.bytes_inter * rpn / std::max(machine.bw_inter, 1.0)) *
      p2p_scale;
  out.comm = p2p_latency + p2p_bytes;
  // Nonblocking overlap: the measured overlapped/exposed byte split says
  // what fraction of halo transfer time the schedule hid behind core-link
  // compute.  Hide that share of the byte cost (transfer time overlaps;
  // per-message latency is CPU overhead and never does), capped by the
  // compute term — there is nothing to hide behind past that.  Only the
  // overlapped schedule earns the credit: the synchronous one also records
  // overlapped bytes (buffered sends may land before the immediately
  // following wait), but nothing hides behind compute there.
  const double ov_bytes = static_cast<double>(run.agg.bytes_overlapped);
  const double ex_bytes = static_cast<double>(run.agg.bytes_exposed);
  if (run.knobs.overlap && ov_bytes + ex_bytes > 0.0) {
    const double overlap_fraction = ov_bytes / (ov_bytes + ex_bytes);
    out.comm_hidden = std::min(p2p_bytes * overlap_fraction, out.compute);
    out.comm -= out.comm_hidden;
  }
  // Same-rank block-to-block halo copies: the transfer count is a
  // per-block quantity (sync_scale); the byte volume scales with block
  // surface (comm_scale).  Bytes move at node-memory speed, shared by the
  // node's busy CPUs.
  const double lmsgs =
      static_cast<double>(run.agg.msgs_local) * per_rank_iter_sync;
  const double lbytes = static_cast<double>(run.agg.bytes_local) *
                        layout.comm_scale /
                        (static_cast<double>(nprocs) *
                         static_cast<double>(run.iterations));
  out.comm += lmsgs * machine.lat_local +
              lbytes * saturation / std::max(machine.reduction_bw, 1.0);
  // Shared-window halo gathers: never on the wire (absent from the traffic
  // matrices), priced like the same-rank copies — a per-gather local
  // latency plus bytes at node-memory speed under saturation.
  const double smsgs =
      static_cast<double>(run.agg.msgs_shared) * per_rank_iter_sync;
  const double sbytes = static_cast<double>(run.agg.bytes_shared) *
                        layout.comm_scale /
                        (static_cast<double>(nprocs) *
                         static_cast<double>(run.iterations));
  out.comm += smsgs * machine.lat_local +
              sbytes * saturation / std::max(machine.reduction_bw, 1.0);
  // Delta-compressed halo frames: the wire and shared-window byte terms
  // above already price the *reduced* traffic — the matrices and
  // bytes_shared record what actually moved, so the measured change
  // fraction and the coalesced message count arrive through the counts.
  // What delta adds on top is the pack-time compare: every swap streams
  // the packed slice and its shadow (2x the eager byte volume) through the
  // node's memory system before deciding what to ship.  Zero when the run
  // recorded no eager baseline (delta off).
  const double cmp_bytes = 2.0 *
                           static_cast<double>(run.agg.halo_bytes_eager) *
                           layout.comm_scale /
                           (static_cast<double>(nprocs) *
                            static_cast<double>(run.iterations));
  out.comm += cmp_bytes * saturation / std::max(machine.reduction_bw, 1.0);
  // Amortised list-rebuild cost.  agg.rebuilds is a per-rank count (it
  // merges by max), so rebuilds / iterations is the drift-driven rebuild
  // frequency; steady-state measurement windows that exclude rebuilds
  // leave the term at zero.  Binning, reordering and link generation run
  // on the rank's team; the prefix-scan/layout share (t_scan) is the
  // rebuild's serial fraction and is paid at full cost per rebuild.
  // A Verlet skin (SimConfig::skin_factor) drops this frequency toward
  // 1 / reuse-interval while inflating links_core with rc+skin candidates;
  // both effects arrive through the measured counts, so the same formula
  // prices any skin.
  const double rebuilds_per_iter = static_cast<double>(run.agg.rebuilds) /
                                   static_cast<double>(run.iterations);
  if (rebuilds_per_iter > 0.0) {
    const double n_rank = static_cast<double>(run.agg.particles) *
                          layout.count_scale /
                          static_cast<double>(nprocs);
    const double links_rank =
        static_cast<double>(run.agg.links_core + run.agg.links_halo) *
        layout.count_scale / static_cast<double>(nprocs);
    const double per_particle =
        machine.t_bin + (run.knobs.reorder ? machine.t_reorder : 0.0);
    out.rebuild = rebuilds_per_iter *
                  ((n_rank * per_particle + links_rank * machine.t_linkgen) /
                       t_count +
                   n_rank * machine.t_scan);
    // Halo-template refresh and migration ride the same schedule: both
    // happen only at true rebuilds, so skipped rebuilds skip them too
    // (Counters::halo_rebuilds_skipped / migrations_skipped).  Template
    // selection packs and unpacks each halo copy — a gather/scatter of the
    // same flavour as the reorder permutation copy — and the migration
    // check classifies every core particle like a binning pass.  Zero for
    // the undecomposed drivers (no halo copies measured).
    const double halo_rank = static_cast<double>(run.agg.halo_particles) *
                             layout.count_scale /
                             static_cast<double>(nprocs);
    out.rebuild += rebuilds_per_iter *
                   (halo_rank * machine.t_reorder + n_rank * machine.t_bin) /
                   t_count;
  }
  return out;
}

// --- FittedModel -----------------------------------------------------------

const char* FittedModel::phase_name(int phase) {
  switch (phase) {
    case kForce: return "force";
    case kRebuild: return "rebuild";
    case kHalo: return "halo";
    case kMigrate: return "migrate";
    case kRebalance: return "rebalance";
    case kOther: return "other";
  }
  return "?";
}

bool FittedModel::fitted() const {
  for (const auto& phase : beta) {
    for (const double b : phase) {
      if (b != 0.0) return true;
    }
  }
  return false;
}

double FittedModel::rebuilds_per_step(const Workload& w,
                                      double skin) const {
  const ClassRates* best = nullptr;
  bool best_scenario_match = false;
  double best_gap = 0.0;
  for (const ClassRates& r : rates) {
    const bool scenario_match = r.scenario == w.scenario;
    const double gap = std::abs(r.skin - skin);
    const bool better =
        best == nullptr ||
        (scenario_match && !best_scenario_match) ||
        (scenario_match == best_scenario_match && gap < best_gap);
    if (better) {
      best = &r;
      best_scenario_match = scenario_match;
      best_gap = gap;
    }
  }
  return best != nullptr ? best->rebuilds_per_step : 1.0;
}

std::array<double, FittedModel::kFeatureCount> FittedModel::features(
    int phase, const Workload& w, const RunKnobs& c,
    double rebuild_rate) {
  const double P = static_cast<double>(std::max(c.nprocs, 1));
  const double T = static_cast<double>(std::max(c.nthreads, 1));
  const double B = static_cast<double>(std::max(c.blocks_per_proc, 1));
  const double n_r = static_cast<double>(w.n) / P;  // particles per rank
  const double rho = std::max(rebuild_rate, 0.0);
  // Per-rank halo surface: B blocks, each exposing (n_b)^((D-1)/D)
  // boundary particles in dimension D.
  const double exponent = (static_cast<double>(w.D) - 1.0) / w.D;
  const double surface = B * std::pow(std::max(n_r / B, 1.0), exponent);
  // Only inter-rank sides hit the wire: blocks within a rank exchange by
  // local copies, so the wire payload scales with the rank-interface area
  // (B-independent), not the total block boundary above.
  const double interface = std::pow(std::max(n_r, 1.0), exponent);
  // A skin widens the candidate cutoff to rc·(1+skin): the pair kernel
  // walks ~(1+skin)^D more candidate links per step and halo slabs /
  // templates widen by (1+skin).  Without these factors the fit would
  // average force cost across skin values and conclude a skin only
  // removes rebuilds — and the tuner would always pick the widest one.
  const double skin = std::max(c.skin_factor, 0.0);
  const double link_gain = std::pow(1.0 + skin, static_cast<double>(w.D));
  const double slab_gain = 1.0 + skin;
  const bool decomposed = c.nprocs > 1;
  std::array<double, kFeatureCount> f{};
  switch (phase) {
    case kForce:
      // Parallel pair work, serial-fraction pair work, per-step constant,
      // per-extra-thread overhead (sync + contention).
      f = {link_gain * n_r / T, link_gain * n_r, 1.0, T - 1.0};
      break;
    case kRebuild:
      // Rebuild pipeline amortised by the measured rebuild rate: parallel
      // and serial per-particle shares, per-rebuild constant, halo-template
      // work on the block surface.
      f = {rho * link_gain * n_r / T, rho * link_gain * n_r, rho,
           rho * slab_gain * surface};
      break;
    case kHalo:
      // Bytes move with the (skin-widened) rank interface, message count
      // with the side count (2 sides per dim per block).  The /T² term is
      // empirical: a hybrid team packs in parallel AND overlaps the post
      // with force work, so the traced swap collapses faster than 1/T.
      if (decomposed) {
        f = {slab_gain * interface, 2.0 * w.D * B,
             slab_gain * interface / (T * T), 1.0};
      }
      break;
    case kMigrate:
      // Movers are scanned per rebuild; the migrating set scales with the
      // surface; plus a per-rebuild constant.
      if (decomposed) f = {rho * n_r, rho * slab_gain * surface, rho, 0.0};
      break;
    case kRebalance:
      // Cost exchange grows with P, the handoff with the local count.
      if (decomposed && c.rebalance) f = {rho * P, rho * n_r, rho, 0.0};
      break;
    case kOther:
      // Collectives, scheduling slack and the untraced remainder: per-step
      // constant plus per-thread, per-rank and per-particle shares.
      f = {1.0, T - 1.0, P - 1.0, n_r};
      break;
    default:
      break;
  }
  return f;
}

FittedModel::Phases FittedModel::predict(const Workload& w,
                                         const RunKnobs& c) const {
  const double rho = rebuilds_per_step(w, c.skin_factor);
  Phases out;
  for (int p = 0; p < kPhaseCount; ++p) {
    const auto f = features(p, w, c, rho);
    double t = 0.0;
    for (int j = 0; j < kFeatureCount; ++j) {
      t += beta[static_cast<std::size_t>(p)][static_cast<std::size_t>(j)] *
           f[static_cast<std::size_t>(j)];
    }
    out[p] = t;
  }
  return out;
}

}  // namespace hdem::perf

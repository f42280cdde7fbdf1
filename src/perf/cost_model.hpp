// Analytic cost model: measured operation counts x machine constants.
//
// Every figure-reproduction bench follows the same recipe: run the real
// (instrumented) simulation at the figure's configuration, aggregate the
// counters into a RunMeasurement, then ask the model for the predicted
// per-iteration time on the paper's platform.  Shapes (speedups,
// crossovers, efficiency decay) emerge from how the measured counts vary
// with P, T and B — never from per-figure special cases.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/counters.hpp"
#include "core/init.hpp"
#include "driver/knobs.hpp"
#include "perf/machine.hpp"

namespace hdem::perf {

// The record of one measured run: the workload it simulated, the knobs
// that ran, what the model prices and the host's wall clock.  Counters are
// summed over ranks; cumulative fields cover `iterations` iterations.  The
// run had knobs.nprocs * knobs.blocks_per_proc blocks.
struct RunMeasurement {
  Workload workload;
  RunKnobs knobs;
  std::uint64_t iterations = 0;
  Counters agg;
  // Per-rank counters (message-passing runs only) — the raw material for
  // load-imbalance analysis; agg is their merge.
  std::vector<Counters> per_rank;
  // Point-to-point traffic matrices, src-major: entry [src * P + dst].
  std::vector<std::uint64_t> bytes_matrix;
  std::vector<std::uint64_t> msgs_matrix;
  double host_seconds = 0.0;  // whole window, slowest rank

  double host_seconds_per_iter() const {
    return iterations ? host_seconds / static_cast<double>(iterations) : 0.0;
  }
};

struct CostBreakdown {
  double compute = 0.0;    // link arithmetic + position updates
  double memory = 0.0;     // cache-miss penalty (with node saturation)
  double atomic = 0.0;     // protected force updates
  double reduction = 0.0;  // private-array zero+merge traffic
  double sync = 0.0;       // fork/join + barriers + criticals
  double comm = 0.0;       // halo swaps, migration, collectives
  double rebuild = 0.0;    // amortised list rebuild (bin/reorder/linkgen)
  // Halo byte cost hidden behind core-link compute by the overlapped
  // schedule (measured overlapped/exposed split).  Informational: comm is
  // already net of this, so it does not enter total().
  double comm_hidden = 0.0;
  double total() const {
    return compute + memory + atomic + reduction + sync + comm + rebuild;
  }
};

// ranks_per_node: how MPI ranks pack onto SMP nodes (e.g. 4 for pure MPI
// on the ES40 cluster, 1 for the hybrid scheme).  count_scale multiplies
// all per-rank operation counts — used to extrapolate a reduced-size
// measurement to the paper's one-million-particle system.
// cache_gap_scale rescales the link-gap locality estimate by the same
// system-size ratio (gaps grow with the particle count).
struct ModelLayout {
  int ranks_per_node = 1;
  double count_scale = 1.0;
  double cache_gap_scale = 1.0;
  double comm_scale = 1.0;  // halo traffic scales with surface, not volume
  // Parallel regions / barriers / criticals are per block per iteration —
  // independent of the particle count — so extrapolating a reduced-size
  // measurement to the paper's system leaves them unscaled.
  double sync_scale = 1.0;
};

// Extrapolation of a reduced-size measurement to `target_particles` (the
// paper's one-million-particle system): operation counts scale linearly,
// halo traffic scales with block surface area.  Link gaps grow with the
// particle count in random order; after cell-order reordering the dominant
// gaps are cross-sections of the cell grid, which grow as n^((D-1)/D).
// Nothing scales down: a run at or above the target keeps every scale 1.
ModelLayout paper_scale_layout(const RunMeasurement& run, int ranks_per_node,
                               double target_particles);

class CostModel {
 public:
  using Layout = ModelLayout;

  // Predicted per-iteration wall-clock on `machine` for the measured run.
  static CostBreakdown predict(const MachineSpec& machine,
                               const RunMeasurement& run,
                               const Layout& layout = Layout{});

  // Estimated probability that a link's second-particle access has a
  // reuse span exceeding `capacity_bytes`, from the measured link-gap
  // histogram.
  static double miss_fraction(double capacity_bytes,
                              const RunMeasurement& run,
                              double gap_scale = 1.0);

  // Outer-cache (L2) miss probability for `machine`.
  static double miss_probability(const MachineSpec& machine,
                                 const RunMeasurement& run,
                                 double gap_scale = 1.0);

  // Bytes of particle state touched per link access in dimension D
  // (positions + forces of both ends plus the link record itself).
  static double bytes_per_particle(int D);

  // Split the traffic matrices into (intra-node, inter-node) totals given
  // the rank->node packing.  Returns {msgs_intra, bytes_intra, msgs_inter,
  // bytes_inter}.
  struct TrafficSplit {
    double msgs_intra = 0.0, bytes_intra = 0.0;
    double msgs_inter = 0.0, bytes_inter = 0.0;
  };
  static TrafficSplit split_traffic(const RunMeasurement& run,
                                    int ranks_per_node);
};

// Measured fraction of halo entries that changed between swaps: delta
// bytes shipped over the eager bytes the same swaps would have shipped.
// 1.0 when the run recorded no eager baseline (delta compression off) —
// every entry ships every swap.  The benches report this next to the
// model's comm term: the wire traffic the model prices (the byte/message
// matrices) already reflects this fraction, since the matrices record what
// actually moved.
double halo_change_fraction(const RunMeasurement& run);

// ---------------------------------------------------------------------------
// Fitted per-phase scaling model (closed-loop auto-tuning, DESIGN §3.10).
//
// CostModel prices *measured counters* with MachineSpec constants; the
// FittedModel goes the other way around.  A sweep (perf/tune) measures
// per-phase step times over an (N, P, T, B, skin) grid on *this* host and
// each phase's coefficients are least-squares-fitted (perf/fit.hpp) to
// analytic features of the configuration.  Prediction then needs no
// counters — just a workload description and a candidate configuration —
// which is what lets the serving layer rank configurations before a job
// has ever run.  Because the coefficients come from this host's own
// measurements, the model automatically absorbs host realities the
// MachineSpec constants can't know (an oversubscribed CI runner where
// extra threads buy nothing fits a near-zero 1/T term, so the tuner
// correctly picks T = 1 there).

class FittedModel {
 public:
  enum Phase : int {
    kForce = 0,  // force accumulation + position update
    kRebuild,    // list rebuild pipeline + halo templates (amortised)
    kHalo,       // halo exchange, wire + shared-window paths
    kMigrate,    // particle re-homing at rebuilds
    kRebalance,  // cost exchange + repartition + handoff
    kOther,      // collectives, scheduling slack, untraced remainder
    kPhaseCount
  };
  static constexpr int kFeatureCount = 4;
  static const char* phase_name(int phase);

  // Predicted seconds per step, by phase.
  struct Phases {
    std::array<double, kPhaseCount> seconds{};
    double& operator[](int p) { return seconds[static_cast<std::size_t>(p)]; }
    double operator[](int p) const {
      return seconds[static_cast<std::size_t>(p)];
    }
    double total() const {
      double t = 0.0;
      for (const double s : seconds) t += s;
      return t;
    }
  };

  // Measured auxiliary rates per (scenario, skin) class.  The rebuild rate
  // closes the loop between workload and features: a settled bed under a
  // skin rebuilds orders of magnitude less often than a hot gas at skin 0,
  // and every rebuild-coupled term scales with that rate.
  struct ClassRates {
    Scenario scenario = Scenario::kUniform;
    double skin = 0.0;
    double rebuilds_per_step = 1.0;
    double imbalance = 1.0;  // per-rank traced-work spread, max/mean
  };

  std::array<std::array<double, kFeatureCount>, kPhaseCount> beta{};
  // In-sample mean relative error per phase, recorded at fit time.
  std::array<double, kPhaseCount> mean_rel_error{};
  std::vector<ClassRates> rates;

  bool fitted() const;

  // Expected rebuilds per step for a workload at a given skin: exact
  // (scenario, nearest-skin) class match, falling back to the nearest
  // class of any scenario, then to 1 (rebuild every step — conservative).
  double rebuilds_per_step(const Workload& w, double skin) const;

  // The per-phase analytic feature vector; shared by fitting and
  // prediction so the two can never drift apart.
  static std::array<double, kFeatureCount> features(int phase,
                                                    const Workload& w,
                                                    const RunKnobs& c,
                                                    double rebuild_rate);

  // Predicted phases of a candidate knob set on a workload.
  Phases predict(const Workload& w, const RunKnobs& c) const;
};

// Convenience: speedup/efficiency bookkeeping used by the figure benches.
inline double efficiency(double t_ref, double p_ref, double t, double p) {
  return (t_ref * p_ref) / (t * p);
}

}  // namespace hdem::perf

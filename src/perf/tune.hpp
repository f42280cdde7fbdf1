// Closed-loop auto-tuning: sweep driver, fitted per-phase scaling models,
// and configuration ranking (DESIGN §3.10, ROADMAP item 4).
//
// The loop has three stages:
//
//   1. *Measure* — run_sweep() runs an (N, P, T, B, skin) grid over the
//      real drivers with the global tracer on, producing one TuneRow per
//      grid point: the workload, the full effective knob set, and the
//      per-phase seconds per step (force, rebuild, halo wire/shared,
//      migrate, rebalance, imbalance).  Rows persist in a documented
//      plain-text format under results/tune/ (see below).
//   2. *Fit* — fit_model() least-squares-fits each phase's coefficients
//      (perf/fit.hpp) against the analytic features in
//      FittedModel::features, plus a per-(scenario, skin) rebuild-rate
//      table measured from the same rows.
//   3. *Predict* — predict_ranked() scores candidate configurations for a
//      workload without running them, and choose_serving() turns the
//      ranking into an inner-thread / quantum decision for the serving
//      layer's admission path (--auto in examples/sim_server).
//
// Tune file format (plain text, '#' comments):
//
//     # hdem-tune v3
//     # host: <host_report() of the measuring process>
//     # columns: <space-separated column names>
//     <one row per line, tokens in column order>
//
// Every row carries every run knob (one column per RunKnobs field,
// named by for_each_knob in driver/knobs.hpp), so the header records only
// the host: its CPU count and model, the compiled and active SIMD ISA and
// the dispatch width every row ran at.  History: v2 put every knob in a
// column; v3 drops v2's per-row `simd` column for the host line, and v2
// files still parse (an extra column is ignored).
//
// The "# columns:" header is authoritative: rows are parsed by column
// name, so readers tolerate reordered or additional columns, and a file
// missing a required column fails loudly.  All *_s columns are seconds
// per step averaged over ranks; step_s is the slowest rank's wall clock
// per step (their difference, with the named phases, is scheduling slack
// recorded in other_s).  scenario is a scenario name (core/init.hpp; an
// unknown one fails the parse), reduction a strategy name
// (reduction/kind.hpp); booleans are 0/1.  A value that is not a finite
// number, an integer column outside its range (D not 2 or 3; n, iters,
// P, T or B below 1; ranks_per_node or stride below 0), a negative
// measured column or a knob set MpOptions::validate() rejects fails the
// parse with std::invalid_argument, naming the column.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "perf/cost_model.hpp"

namespace hdem::perf {

// One measured grid point.
struct TuneRow {
  Workload workload;
  RunKnobs config;  // the full effective knob set of the run
  std::uint64_t iterations = 0;
  double step_seconds = 0.0;  // wall per step, slowest rank
  // Per-phase seconds per step (mean over ranks).
  double force_s = 0.0;
  double rebuild_s = 0.0;
  double halo_wire_s = 0.0;
  double halo_shared_s = 0.0;
  // Waiting on in-flight receives.  Recorded separately because it is
  // arrival slack (imbalance + scheduling), not surface-scaled comm work:
  // the fit prices halo_s() with the surface features and lets the slack
  // phase absorb the wait (it is counted inside other_s).
  double halo_wait_s = 0.0;
  double migrate_s = 0.0;
  double rebalance_s = 0.0;
  double other_s = 0.0;
  // Per-rank traced-work spread (max/mean of force+update seconds).
  double imbalance = 1.0;
  double rebuilds_per_step = 0.0;

  double halo_s() const { return halo_wire_s + halo_shared_s; }
  double steps_per_second() const {
    return step_seconds > 0.0 ? 1.0 / step_seconds : 0.0;
  }
};

// Grid specification for one workload class.
struct SweepSpec {
  Workload workload;
  std::vector<int> procs{1, 2, 4};
  std::vector<int> threads{1, 2};
  std::vector<int> blocks{1, 2};
  std::vector<double> skins{0.0, 0.3};
  // Knobs of every grid point, which sets P, T, B and the skin.  The
  // reduction is the serving layer's production one: bit-identical at any
  // team size, and the only one the stealing path supports.
  RunKnobs fixed{{}, {.reduction = ReductionKind::kColored}};
  std::uint64_t iterations = 8;
  std::uint64_t warmup = 2;
  // Minimum wall-clock per measured window (doubling re-runs below it).
  double min_seconds = 0.02;
  // Repetitions per grid point; the fastest is kept (the paper's
  // minimum-of-independent-runs rule).
  int reps = 1;
  // > 0: skip grid points with procs * threads above this.
  int max_cpus = 0;
};

// Measure one grid point: per-phase times come from the global tracer
// (enabled for the duration, restored afterwards); the window re-runs
// with doubled iterations until it spans min_seconds.
TuneRow measure_tune_point(const Workload& w, const RunKnobs& c,
                           std::uint64_t iterations, std::uint64_t warmup,
                           double min_seconds, int reps);

std::vector<TuneRow> run_sweep(const SweepSpec& spec);

// Serialisation in the documented plain-text format.
std::string format_tune_rows(std::span<const TuneRow> rows);
std::vector<TuneRow> parse_tune_rows(const std::string& text);

// Save under <results>/tune/<name>; load from an explicit filesystem path.
std::string save_tune_rows(const std::string& name,
                           std::span<const TuneRow> rows);
std::vector<TuneRow> load_tune_rows(const std::string& path);

// The closed loop behind --auto: the rows of the tune file at `path`, or,
// when it is missing or does not parse (a file in an older format lacks
// columns), the rows `measure` returns, written to `path` for the next
// run.  Prints a progress line per stage; `sweep` names the measurement.
std::vector<TuneRow> load_or_measure_tune_rows(
    const std::string& path, const std::string& sweep,
    const std::function<std::vector<TuneRow>()>& measure);

// Fit the per-phase coefficients and the class-rate table from measured
// rows.  Phases whose features are identically zero over the rows (halo on
// a P = 1 sweep, say) keep zero coefficients; within a phase, features the
// grid cannot identify are pruned rather than rejected.  Throws
// std::invalid_argument on an empty row set.
FittedModel fit_model(std::span<const TuneRow> rows);

// A candidate configuration scored by the fitted model.
struct RankedConfig {
  RunKnobs config;
  FittedModel::Phases predicted;
  double step_seconds = 0.0;  // predicted wall per step
  double cpu_seconds = 0.0;   // predicted work: step_seconds * P * T
};

// Score and sort candidates, fastest predicted step time first (ties go
// to the cheaper CPU-seconds config).
std::vector<RankedConfig> predict_ranked(const FittedModel& model,
                                         const Workload& w,
                                         std::span<const RunKnobs> candidates);

// The serving layer's admission decision for one job class: how many
// inner threads the job's driver (run with the job's knobs) should use and
// how many steps one scheduling quantum should cover.  Latency-sensitive classes minimise
// predicted step time; batch classes minimise predicted CPU-seconds (a
// thread that buys no speedup is given back to other jobs).  The quantum
// targets target_quantum_seconds of predicted work, clamped to [8, 256].
struct ServingChoice {
  int inner_threads = 1;
  std::uint64_t quantum_steps = 32;
  double predicted_step_seconds = 0.0;
};

ServingChoice choose_serving(const FittedModel& model, const Workload& w,
                             const RunKnobs& job, bool latency_sensitive,
                             int max_threads,
                             double target_quantum_seconds = 0.004);

}  // namespace hdem::perf

// Figure 15 (extension) — closed-loop auto-tuning: the sweep driver
// measures an (N, P, T, B, skin) grid over the real drivers, the fitted
// per-phase scaling model (perf/tune, perf/fit, DESIGN §3.10) is trained
// on those rows, and --auto's configuration choice is checked against the
// sweep's own ground truth.
//
// Three gated claims, per workload (a settled bed whose skin pays, and a
// hot uniform gas whose drift forces frequent rebuilds):
//   1. Fit accuracy: the model's predicted step time is within 15% of the
//      measured step time (mean over the grid), and each named phase
//      (force, rebuild, halo, migrate, rebalance) is within 25% (median)
//      on the rows where that phase carries >= 5% of the step.
//   2. Auto choice: the measured throughput of the configuration the
//      model ranks first is >= 90% of the best measured throughput in the
//      sweep (re-measured head-to-head when the configs differ) —
//      choosing by prediction costs at most 10%.
//   3. Serving identity: admission knobs picked by choose_serving (inner
//      threads, quantum) leave every served trajectory bit-identical to a
//      standalone re-run of the same spec — the tuner selects knobs, it
//      never moves a trajectory bit.
//
// The tune files land under results/tune/fig15_*.tune and are parsed back
// as a round-trip check of the documented format.  --smoke shrinks the
// grid and skips the tolerance assertions (the TSan CI leg runs it:
// instrumentation skews absolute times, not code paths — the sweep,
// fit, ranking and identity gate all still execute).  Results land in
// results/BENCH_autotune.json; any gate failure exits nonzero.
#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "perf/tune.hpp"
#include "serve/scheduler.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

constexpr double kTotalTol = 0.15;   // mean total rel error per workload
constexpr double kPhaseTol = 0.25;   // median per-phase rel error
constexpr double kPhaseShare = 0.05; // gate phases carrying >= 5% of a step
constexpr double kAutoFloor = 0.90;  // chosen config vs sweep-best sps

double phase_measured(const perf::TuneRow& r, int phase) {
  switch (phase) {
    case perf::FittedModel::kForce: return r.force_s;
    case perf::FittedModel::kRebuild: return r.rebuild_s;
    case perf::FittedModel::kHalo: return r.halo_s();
    case perf::FittedModel::kMigrate: return r.migrate_s;
    case perf::FittedModel::kRebalance: return r.rebalance_s;
    case perf::FittedModel::kOther: return r.other_s;
  }
  return 0.0;
}

struct WorkloadEval {
  std::string name;
  std::vector<perf::TuneRow> rows;
  perf::FittedModel model;
  double mean_total_err = 0.0;
  // Mean rel error and row count per phase, over rows where the phase
  // carries >= kPhaseShare of the step.
  std::array<double, perf::FittedModel::kPhaseCount> phase_err{};
  std::array<int, perf::FittedModel::kPhaseCount> phase_rows{};
  RunKnobs chosen;
  double chosen_sps = 0.0;
  double best_sps = 0.0;
  bool total_ok = true;
  bool phases_ok = true;
  bool auto_ok = true;
};

WorkloadEval evaluate_workload(const std::string& name,
                               const perf::SweepSpec& sweep, bool smoke,
                               std::ostringstream& out) {
  WorkloadEval ev;
  ev.name = name;
  out << "== " << name << " workload (scenario "
      << to_string(sweep.workload.scenario)
      << ", n=" << sweep.workload.n << ") ==\n\n";
  ev.rows = perf::run_sweep(sweep);

  // Persist + round-trip the documented format.
  const std::string path =
      perf::save_tune_rows("fig15_" + name + ".tune", ev.rows);
  const auto reread = perf::load_tune_rows(path);
  if (reread.size() != ev.rows.size()) {
    throw std::runtime_error("fig15: tune-file round trip lost rows");
  }
  for (std::size_t i = 0; i < ev.rows.size(); ++i) {
    const double a = ev.rows[i].step_seconds;
    const double b = reread[i].step_seconds;
    if (std::abs(a - b) > 1e-6 * std::max(std::abs(a), 1e-12)) {
      throw std::runtime_error("fig15: tune-file round trip moved step_s");
    }
  }
  out << "saved " << ev.rows.size() << " measurement rows to " << path
      << " (round-trip checked)\n\n";

  ev.model = perf::fit_model(ev.rows);

  Table t({"P", "T", "B", "skin", "rebuilds/step", "imb", "meas step(ms)",
           "pred step(ms)", "err"});
  double sum_total_err = 0.0;
  std::array<std::vector<double>, perf::FittedModel::kPhaseCount> phase_errs;
  for (const perf::TuneRow& r : ev.rows) {
    const auto pred = ev.model.predict(r.workload, r.config);
    const double err =
        std::abs(pred.total() - r.step_seconds) / r.step_seconds;
    sum_total_err += err;
    for (int p = 0; p < perf::FittedModel::kPhaseCount; ++p) {
      const double meas = phase_measured(r, p);
      if (meas < kPhaseShare * r.step_seconds) continue;
      phase_errs[static_cast<std::size_t>(p)].push_back(
          std::abs(pred[p] - meas) / meas);
    }
    if (r.steps_per_second() > ev.best_sps) ev.best_sps = r.steps_per_second();
    t.add_row({std::to_string(r.config.nprocs),
               std::to_string(r.config.nthreads),
               std::to_string(r.config.blocks_per_proc),
               Table::num(r.config.skin_factor, 2),
               Table::num(r.rebuilds_per_step, 3),
               Table::num(r.imbalance, 2),
               Table::num(1e3 * r.step_seconds, 3),
               Table::num(1e3 * pred.total(), 3),
               Table::num(1e2 * err, 1) + "%"});
  }
  ev.mean_total_err = sum_total_err / static_cast<double>(ev.rows.size());
  out << t.render() << "\n";

  out << "prediction accuracy: total mean " << Table::num(1e2 * ev.mean_total_err, 1)
      << "% (gate <= " << Table::num(1e2 * kTotalTol, 0) << "%)\n";
  ev.total_ok = ev.mean_total_err <= kTotalTol;
  for (int p = 0; p < perf::FittedModel::kPhaseCount; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    auto& errs = phase_errs[pi];
    if (errs.empty()) continue;
    ev.phase_rows[pi] = static_cast<int>(errs.size());
    // Gate each phase on the median over qualifying rows: one scheduler
    // spike during one tiny phase's window is measurement noise, not a
    // model failure, and would dominate a mean.  The mean is reported
    // alongside.
    std::sort(errs.begin(), errs.end());
    const std::size_t mid = errs.size() / 2;
    ev.phase_err[pi] = errs.size() % 2 == 1
                           ? errs[mid]
                           : 0.5 * (errs[mid - 1] + errs[mid]);
    double mean = 0.0;
    for (const double e : errs) mean += e;
    mean /= static_cast<double>(errs.size());
    // The issue's phase gate covers the named phases; "other" is
    // scheduling slack and untraced remainder, reported but not gated.
    const bool gated = p != perf::FittedModel::kOther;
    const bool ok = !gated || ev.phase_err[pi] <= kPhaseTol;
    ev.phases_ok = ev.phases_ok && ok;
    out << "  " << perf::FittedModel::phase_name(p) << ": median "
        << Table::num(1e2 * ev.phase_err[pi], 1) << "% (mean "
        << Table::num(1e2 * mean, 1) << "%) over " << ev.phase_rows[pi]
        << " row(s)"
        << (gated ? (ok ? "" : "  <-- FAIL (> 25%)") : "  (not gated)")
        << "\n";
  }

  // --auto's choice, checked against the sweep's best measured config.
  std::vector<RunKnobs> candidates;
  for (const perf::TuneRow& r : ev.rows) candidates.push_back(r.config);
  const auto ranked = perf::predict_ranked(ev.model, sweep.workload,
                                           candidates);
  ev.chosen = ranked.front().config;
  const perf::TuneRow* best_row = nullptr;
  for (const perf::TuneRow& r : ev.rows) {
    if (best_row == nullptr ||
        r.steps_per_second() > best_row->steps_per_second()) {
      best_row = &r;
    }
  }
  if (best_row != nullptr && ev.chosen == best_row->config) {
    ev.chosen_sps = ev.best_sps = best_row->steps_per_second();
  } else if (best_row != nullptr) {
    // Re-measure the two configs head-to-head (interleaved, keep-fastest):
    // comparing two sweep rows taken minutes apart confounds the model's
    // choice with the host's noise epochs.
    double chosen_s = 0.0, best_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double c_s =
          perf::measure_tune_point(sweep.workload, ev.chosen, sweep.iterations,
                                   sweep.warmup, sweep.min_seconds, 1)
              .step_seconds;
      const double b_s =
          perf::measure_tune_point(sweep.workload, best_row->config,
                                   sweep.iterations, sweep.warmup,
                                   sweep.min_seconds, 1)
              .step_seconds;
      if (rep == 0 || c_s < chosen_s) chosen_s = c_s;
      if (rep == 0 || b_s < best_s) best_s = b_s;
    }
    ev.chosen_sps = chosen_s > 0.0 ? 1.0 / chosen_s : 0.0;
    ev.best_sps = best_s > 0.0 ? 1.0 / best_s : 0.0;
  }
  ev.auto_ok = ev.best_sps > 0.0 && ev.chosen_sps >= kAutoFloor * ev.best_sps;
  out << "auto choice: P=" << ev.chosen.nprocs << " T=" << ev.chosen.nthreads
      << " B=" << ev.chosen.blocks_per_proc << " skin="
      << Table::num(ev.chosen.skin_factor, 2) << " -> measured "
      << Table::num(ev.chosen_sps, 1) << " steps/s vs sweep best "
      << Table::num(ev.best_sps, 1) << " ("
      << Table::num(ev.best_sps > 0.0 ? 1e2 * ev.chosen_sps / ev.best_sps
                                      : 0.0, 1)
      << "%, gate >= " << Table::num(1e2 * kAutoFloor, 0) << "%)\n\n";

  if (smoke) {
    // TSan instrumentation skews the absolute times the tolerances
    // assume; the paths above all ran, which is what the leg checks.
    ev.total_ok = ev.phases_ok = ev.auto_ok = true;
    out << "(--smoke: tolerance gates reported, not asserted)\n\n";
  }
  return ev;
}

// Gate 3: serve a mini trace with choose_serving-picked knobs, then
// byte-compare every checkpoint against a standalone re-run.
bool serving_identity_gate(const perf::FittedModel& model,
                           std::ostringstream& out) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(perf::results_dir()) / "tune" / "fig15_serve").string();
  fs::create_directories(dir);

  std::vector<serve::JobSpec> specs;
  const struct {
    serve::Scenario scenario;
    std::uint64_t n, steps;
    serve::DeadlineClass deadline;
  } mini[] = {
      {serve::Scenario::kUniform, 500, 48, serve::DeadlineClass::kBatch},
      {serve::Scenario::kSettled, 600, 48,
       serve::DeadlineClass::kInteractive},
      {serve::Scenario::kClustered, 500, 32, serve::DeadlineClass::kBatch},
      {serve::Scenario::kUniform, 700, 32,
       serve::DeadlineClass::kInteractive},
  };
  std::uint64_t quantum = 0;
  for (const auto& m : mini) {
    serve::JobSpec spec;
    spec.job_id = specs.size();
    spec.scenario = m.scenario;
    spec.n = m.n;
    spec.steps = m.steps;
    spec.deadline = m.deadline;
    spec.seed = 4242;
    spec.checkpoint_path =
        (fs::path(dir) / ("job_" + std::to_string(spec.job_id) + ".ckp"))
            .string();
    const auto choice = perf::choose_serving(
        model, serve::job_workload(spec), serve::job_knobs(spec),
        m.deadline == serve::DeadlineClass::kInteractive, 2);
    spec.inner_threads = choice.inner_threads;
    if (quantum == 0 || choice.quantum_steps < quantum) {
      quantum = choice.quantum_steps;
    }
    specs.push_back(spec);
  }

  {
    smp::ThreadTeam team(2);
    serve::Scheduler sched(team, {.quantum_steps = quantum});
    std::vector<std::future<serve::JobResult>> futures;
    for (const auto& spec : specs) {
      futures.push_back(sched.submit(serve::make_job(spec)));
    }
    sched.drain();
    for (auto& f : futures) f.get();
  }

  bool ok = true;
  for (const auto& spec : specs) {
    serve::JobSpec solo = spec;
    solo.checkpoint_path = spec.checkpoint_path + ".verify";
    auto job = serve::make_job(solo);
    job->advance(solo.steps);
    const auto read = [](const std::string& p) {
      std::ifstream in(p, std::ios::binary);
      std::ostringstream os;
      os << in.rdbuf();
      return os.str();
    };
    const std::string served = read(spec.checkpoint_path);
    const std::string alone = read(solo.checkpoint_path);
    const bool same = !served.empty() && served == alone;
    out << "  job " << spec.job_id << " (" << to_string(spec.scenario)
        << ", T=" << spec.inner_threads << "): "
        << (same ? "bit-identical" : "DIVERGED") << "\n";
    ok = ok && same;
    fs::remove(solo.checkpoint_path);
  }
  out << "serving identity (quantum " << quantum << "): "
      << (ok ? "PASS" : "FAIL") << "\n\n";
  return ok;
}

std::vector<double> parse_skins(const std::string& s) {
  std::vector<double> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stod(tok));
  }
  if (out.empty()) out.push_back(0.0);
  return out;
}

std::vector<int> to_ints(const std::vector<std::int64_t>& v) {
  std::vector<int> out;
  for (const auto x : v) out.push_back(static_cast<int>(x));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  auto n = static_cast<std::uint64_t>(
      cli.integer("n", 2500, "particles per workload"));
  auto iters = static_cast<std::uint64_t>(
      cli.integer("iters", 8, "measured iterations per grid point"));
  const auto warmup = static_cast<std::uint64_t>(
      cli.integer("warmup", 2, "warmup iterations per grid point"));
  auto reps = static_cast<int>(cli.integer(
      "reps", 5, "repetitions per grid point (fastest kept)"));
  auto procs = to_ints(cli.integer_list("procs", {1, 2, 4}, "rank counts"));
  auto threads = to_ints(
      cli.integer_list("threads", {1, 2}, "threads per rank"));
  auto blocks = to_ints(
      cli.integer_list("blocks", {1, 2}, "blocks per rank (P > 1)"));
  auto skins = parse_skins(cli.str(
      "skins", "0,0.3", "comma-separated skin factors"));
  auto min_seconds = cli.real(
      "min-seconds", 0.08, "minimum wall-clock per measured window");
  const auto max_cpus = static_cast<int>(cli.integer(
      "max-cpus", 0, "skip grid points with P*T above this (0: no cap)"));
  const bool smoke = cli.flag(
      "smoke", "tiny grid, tolerance gates reported but not asserted (TSan)");
  if (cli.finish()) return cli.exit_code();

  if (smoke) {
    n = 800;
    iters = 4;
    reps = 1;
    procs = {1, 2};
    threads = {2};
    blocks = {1};
    skins = {0.0};
    min_seconds = 0.005;
  }

  std::ostringstream out;
  out << "Figure 15 (extension): closed-loop auto-tuning — sweep, fit, "
         "predict\n"
      << perf::host_report() << "\n\n";

  const auto make_sweep = [&](Scenario scenario) {
    perf::SweepSpec sweep;
    sweep.workload = {.scenario = scenario,
                      .D = 2,
                      .n = n,
                      .velocity_scale = 0.25,
                      .settled_stride = 8};
    sweep.procs = procs;
    sweep.threads = threads;
    sweep.blocks = blocks;
    sweep.skins = skins;
    sweep.iterations = iters;
    sweep.warmup = warmup;
    sweep.min_seconds = min_seconds;
    sweep.reps = reps;
    sweep.max_cpus = max_cpus;
    return sweep;
  };

  const WorkloadEval settled =
      evaluate_workload("settled", make_sweep(Scenario::kSettled), smoke, out);
  const WorkloadEval hot =
      evaluate_workload("hot", make_sweep(Scenario::kUniform), smoke, out);

  out << "== serving identity (choose_serving knobs) ==\n\n";
  const bool identity_ok = serving_identity_gate(hot.model, out);

  int failures = 0;
  for (const WorkloadEval* ev : {&settled, &hot}) {
    if (!ev->total_ok) {
      out << "FAIL: " << ev->name << " total prediction error "
          << Table::num(1e2 * ev->mean_total_err, 1) << "% > "
          << Table::num(1e2 * kTotalTol, 0) << "%\n";
      ++failures;
    }
    if (!ev->phases_ok) {
      out << "FAIL: " << ev->name << " per-phase prediction error > "
          << Table::num(1e2 * kPhaseTol, 0) << "%\n";
      ++failures;
    }
    if (!ev->auto_ok) {
      out << "FAIL: " << ev->name << " auto-chosen config below "
          << Table::num(1e2 * kAutoFloor, 0) << "% of sweep best\n";
      ++failures;
    }
  }
  if (!identity_ok) {
    out << "FAIL: served trajectory diverged under auto-chosen knobs\n";
    ++failures;
  }
  if (failures == 0) out << "All fig15 gates PASS\n";

  // -- JSON artifact -------------------------------------------------------
  JsonArray workloads;
  for (const WorkloadEval* ev : {&settled, &hot}) {
    JsonObject phases;
    for (int p = 0; p < perf::FittedModel::kPhaseCount; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (ev->phase_rows[pi] == 0) continue;
      phases.num(perf::FittedModel::phase_name(p), ev->phase_err[pi]);
    }
    JsonObject chosen;
    chosen.num("P", ev->chosen.nprocs)
        .num("T", ev->chosen.nthreads)
        .num("B", ev->chosen.blocks_per_proc)
        .num("skin", ev->chosen.skin_factor);
    JsonObject w;
    w.str("name", ev->name)
        .num("rows", static_cast<double>(ev->rows.size()))
        .num("mean_total_rel_err", ev->mean_total_err)
        .raw("phase_rel_err", phases.render())
        .num("best_steps_per_s", ev->best_sps)
        .num("auto_steps_per_s", ev->chosen_sps)
        .raw("auto_config", chosen.render())
        .boolean("total_gate", ev->total_ok)
        .boolean("phase_gate", ev->phases_ok)
        .boolean("auto_gate", ev->auto_ok);
    workloads.push(w.render());
  }
  JsonObject root;
  root.raw("workloads", workloads.render())
      .boolean("serving_identity", identity_ok)
      .boolean("smoke", smoke)
      .num("total_tolerance", kTotalTol)
      .num("phase_tolerance", kPhaseTol)
      .num("auto_floor", kAutoFloor);
  perf::save_artifact("BENCH_autotune.json", root.render() + "\n");
  out << "Per-workload results written to results/BENCH_autotune.json\n";

  emit("fig15.txt", out.str());
  return failures == 0 ? 0 : 1;
}

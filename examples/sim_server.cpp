// Multi-tenant simulation server: many independent DEM jobs multiplexed
// over one shared thread team.
//
// The paper's shared-memory result, applied to serving: instead of one
// team per simulation (oversubscribing the node) or one simulation at a
// time (idling it), a single persistent ThreadTeam serves a whole job
// trace through the work-stealing scheduler in src/serve.  Each job is an
// independent trajectory (scenario, particle count, step budget, deadline
// class); results stream to per-job checkpoint files that any driver can
// resume from.
//
// A job trace is a text file, one job per line:
//
//     # scenario  n  steps  deadline
//     uniform    1200  200  batch
//     clustered   800  120  interactive
//
// Without --trace a synthetic mixed trace of --jobs jobs is generated.
// With --verify every served trajectory is re-run standalone after the
// serve and the checkpoint bytes compared — exits nonzero on any mismatch
// (the CI serving smoke runs this).
//
// With --auto the admission path consults the fitted per-phase scaling
// model (perf/tune.hpp): per job class it picks the inner-thread count
// (latency classes minimise predicted step time, batch classes predicted
// CPU-seconds), derives the scheduling quantum from the fastest predicted
// step, and places batch jobs longest-predicted-first onto the least
// loaded worker.  The model is fitted from --tune-file when it exists;
// otherwise a serving-shaped sweep is measured and saved there first, so
// the next run starts from measurements — the closed loop.  --auto only
// selects knobs that could equally be passed explicitly (--inner-threads,
// --quantum-steps), so trajectories are bit-identical either way; the
// fig15 gate and --verify enforce that.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "perf/tune.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/tune_cli.hpp"

using namespace hdem;

namespace {

std::string checkpoint_name(const std::string& dir, std::uint64_t job_id) {
  return (std::filesystem::path(dir) /
          ("job_" + std::to_string(job_id) + ".ckp"))
      .string();
}

// Parse "scenario n steps deadline" lines; '#' starts a comment.
std::vector<serve::JobSpec> read_trace(const std::string& path,
                                       std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("sim_server: cannot open trace " + path);
  std::vector<serve::JobSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream is(line);
    std::string scenario, deadline;
    std::uint64_t n = 0, steps = 0;
    if (!(is >> scenario >> n >> steps >> deadline)) continue;  // blank line
    serve::JobSpec spec;
    spec.job_id = specs.size();
    spec.scenario = scenario_from_string(scenario);
    spec.n = n;
    spec.steps = steps;
    spec.deadline = serve::deadline_from_string(deadline);
    spec.seed = seed;
    specs.push_back(spec);
  }
  if (specs.empty()) {
    throw std::runtime_error("sim_server: trace has no jobs: " + path);
  }
  return specs;
}

// Synthetic mixed trace: cycling scenarios, varying sizes and budgets,
// every fourth job interactive — enough shape to exercise both priority
// lanes and uneven per-job cost.
std::vector<serve::JobSpec> synthetic_trace(std::uint64_t jobs,
                                            std::uint64_t seed) {
  const serve::Scenario cycle[3] = {serve::Scenario::kUniform,
                                    serve::Scenario::kClustered,
                                    serve::Scenario::kSettled};
  std::vector<serve::JobSpec> specs;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    serve::JobSpec spec;
    spec.job_id = i;
    spec.scenario = cycle[i % 3];
    spec.n = 400 + 200 * (i % 4);
    spec.steps = 64 + 32 * (i % 3);
    spec.deadline = i % 4 == 3 ? serve::DeadlineClass::kInteractive
                               : serve::DeadlineClass::kBatch;
    spec.seed = seed;
    specs.push_back(spec);
  }
  return specs;
}

// A serving-shaped sweep: P = 1, B = 1, thread counts up to the worker
// pool, one workload class per distinct trace scenario at its median size.
std::vector<perf::TuneRow> measure_serving_rows(
    std::span<const serve::JobSpec> specs, int workers) {
  std::vector<int> threads{1};
  for (int t = 2; t <= workers; t *= 2) threads.push_back(t);
  if (workers > 1 && threads.back() != workers) threads.push_back(workers);
  std::vector<perf::TuneRow> rows;
  std::vector<serve::Scenario> seen;
  for (const auto& spec : specs) {
    if (std::find(seen.begin(), seen.end(), spec.scenario) != seen.end()) {
      continue;
    }
    seen.push_back(spec.scenario);
    std::vector<std::uint64_t> sizes;
    for (const auto& s : specs) {
      if (s.scenario == spec.scenario) sizes.push_back(s.n);
    }
    std::sort(sizes.begin(), sizes.end());
    perf::SweepSpec sweep;
    sweep.workload = serve::job_workload(spec);
    sweep.workload.n = sizes[sizes.size() / 2];
    sweep.procs = {1};
    sweep.blocks = {1};
    sweep.threads = threads;
    sweep.skins = {spec.skin_factor};
    sweep.iterations = 6;
    sweep.warmup = 2;
    sweep.min_seconds = 0.01;
    const auto swept = perf::run_sweep(sweep);
    rows.insert(rows.end(), swept.begin(), swept.end());
  }
  return rows;
}

// Load the tune file, or measure a serving-shaped sweep and save it there
// first.
perf::FittedModel ensure_serving_model(const TuneCliOptions& tune,
                                       std::span<const serve::JobSpec> specs,
                                       int workers) {
  return perf::fit_model(perf::load_or_measure_tune_rows(
      tune.tune_file_path("serving"), "serving",
      [&] { return measure_serving_rows(specs, workers); }));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto jobs = static_cast<std::uint64_t>(
      cli.integer("jobs", 8, "synthetic trace size (ignored with --trace)"));
  const auto workers = static_cast<int>(
      cli.integer("workers", 2, "thread-team size serving the jobs"));
  const auto quantum_opt = static_cast<std::uint64_t>(cli.integer(
      "quantum-steps", 0,
      "steps per scheduling slice (0: model-chosen with --auto, else 32)"));
  const auto inner_threads_opt = static_cast<int>(cli.integer(
      "inner-threads", 0,
      "inner team size per job (0: model-chosen with --auto, else 1)"));
  const auto seed = static_cast<std::uint64_t>(
      cli.integer("seed", 12345, "trace-wide scenario seed"));
  const std::string trace_path =
      cli.str("trace", "", "job trace file (scenario n steps deadline)");
  const std::string out_dir =
      cli.str("out-dir", "serve_out", "directory for per-job checkpoints");
  const bool verify = cli.flag(
      "verify", "re-run every job standalone and byte-compare checkpoints");
  const TuneCliOptions tune = declare_tune_options(cli);
  if (cli.finish()) return cli.exit_code();

  auto specs = trace_path.empty() ? synthetic_trace(jobs, seed)
                                  : read_trace(trace_path, seed);
  std::filesystem::create_directories(out_dir);
  for (auto& spec : specs) {
    spec.checkpoint_path = checkpoint_name(out_dir, spec.job_id);
    if (inner_threads_opt > 0) spec.inner_threads = inner_threads_opt;
  }

  // Admission decisions.  placement[i] < 0 means the injector queue (the
  // default path; interactive jobs always take it so they spread one at a
  // time across workers).
  std::vector<int> placement(specs.size(), -1);
  std::uint64_t quantum = quantum_opt > 0 ? quantum_opt : 32;
  if (tune.auto_mode) {
    const perf::FittedModel model =
        ensure_serving_model(tune, specs, workers);
    std::vector<perf::ServingChoice> choices(specs.size());
    std::uint64_t auto_quantum = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& spec = specs[i];
      const bool latency =
          spec.deadline == serve::DeadlineClass::kInteractive;
      choices[i] = perf::choose_serving(model, serve::job_workload(spec),
                                        serve::job_knobs(spec), latency,
                                        workers);
      if (inner_threads_opt == 0) {
        specs[i].inner_threads = choices[i].inner_threads;
      }
      // The scheduler's quantum is global; the fastest predicted step sets
      // it so the smallest job still bounds slice latency.
      if (auto_quantum == 0 || choices[i].quantum_steps < auto_quantum) {
        auto_quantum = choices[i].quantum_steps;
      }
    }
    if (quantum_opt == 0 && auto_quantum > 0) quantum = auto_quantum;

    // Longest-predicted-first placement of batch jobs onto the least
    // loaded worker (LPT); predicted wall cost of a job is its predicted
    // step time times its step budget.
    std::vector<std::size_t> batch_order;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].deadline == serve::DeadlineClass::kBatch) {
        batch_order.push_back(i);
      }
    }
    std::stable_sort(batch_order.begin(), batch_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return choices[a].predicted_step_seconds *
                                  static_cast<double>(specs[a].steps) >
                              choices[b].predicted_step_seconds *
                                  static_cast<double>(specs[b].steps);
                     });
    std::vector<double> load(static_cast<std::size_t>(workers), 0.0);
    for (std::size_t i : batch_order) {
      const auto best = static_cast<int>(
          std::min_element(load.begin(), load.end()) - load.begin());
      placement[i] = best;
      load[static_cast<std::size_t>(best)] +=
          choices[i].predicted_step_seconds *
          static_cast<double>(specs[i].steps);
    }

    double fit_err = 0.0;
    int fit_cnt = 0;
    for (int p = 0; p < perf::FittedModel::kPhaseCount; ++p) {
      const double e = model.mean_rel_error[static_cast<std::size_t>(p)];
      if (e > 0.0) {
        fit_err += e;
        ++fit_cnt;
      }
    }
    if (fit_cnt > 0) fit_err /= fit_cnt;
    Table at({"job", "scenario", "class", "n", "threads", "quantum",
              "pred step(us)", "worker"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      at.add_row({std::to_string(specs[i].job_id),
                  to_string(specs[i].scenario),
                  to_string(specs[i].deadline), std::to_string(specs[i].n),
                  std::to_string(specs[i].inner_threads),
                  std::to_string(choices[i].quantum_steps),
                  Table::num(1e6 * choices[i].predicted_step_seconds, 1),
                  placement[i] < 0 ? std::string("inject")
                                   : std::to_string(placement[i])});
    }
    std::printf("auto admission decisions (model mean fit error %.0f%%):\n%s\n",
                1e2 * fit_err, at.render().c_str());
  }

  std::printf("serving %zu jobs over %d workers (quantum %llu steps)\n\n",
              specs.size(), workers,
              static_cast<unsigned long long>(quantum));

  smp::ThreadTeam team(workers);
  serve::Scheduler sched(team, {.quantum_steps = quantum});
  std::vector<std::future<serve::JobResult>> futures;
  futures.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto job = serve::make_job(specs[i]);
    futures.push_back(placement[i] >= 0
                          ? sched.submit_to_worker(placement[i],
                                                   std::move(job))
                          : sched.submit(std::move(job)));
  }
  sched.drain();

  Table t({"job", "scenario", "class", "n", "steps", "quanta", "moves",
           "cost", "latency", "wall(ms)", "checkpoint"});
  std::vector<serve::JobResult> results;
  for (auto& f : futures) results.push_back(f.get());
  const auto stats = sched.stats();
  for (const auto& r : results) {
    const auto& spec = specs[static_cast<std::size_t>(r.job_id)];
    // Completion latency on the deterministic cost clock, in per-worker
    // work units (see serve/scheduler.hpp).
    const double latency =
        static_cast<double>(r.finish_cost - r.submit_cost) /
        static_cast<double>(stats.workers);
    t.add_row({std::to_string(r.job_id), to_string(spec.scenario),
               to_string(r.deadline), std::to_string(spec.n),
               std::to_string(r.steps), std::to_string(r.quanta),
               std::to_string(r.migrations), std::to_string(r.cost_units),
               Table::num(latency, 0), Table::num(1e3 * r.wall_seconds, 1),
               r.checkpoint_path});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", perf::serve_line(serve::serve_summary(stats)).c_str());

  if (!verify) return 0;

  // Re-run each spec standalone and compare checkpoint bytes: the served
  // trajectory must be bit-identical to an isolated run of the same spec.
  std::printf("\nverifying %zu trajectories against standalone runs...\n",
              specs.size());
  int failures = 0;
  for (const auto& spec : specs) {
    serve::JobSpec solo = spec;
    solo.checkpoint_path = checkpoint_name(
        out_dir, spec.job_id) + ".verify";
    auto job = serve::make_job(solo);
    job->advance(solo.steps);
    const auto read = [](const std::string& p) {
      std::ifstream in(p, std::ios::binary);
      std::ostringstream os;
      os << in.rdbuf();
      return os.str();
    };
    const std::string served = read(spec.checkpoint_path);
    const std::string solo_bytes = read(solo.checkpoint_path);
    const bool same = !served.empty() && served == solo_bytes;
    if (!same) {
      std::fprintf(stderr, "FAIL: job %llu diverged from standalone run\n",
                   static_cast<unsigned long long>(spec.job_id));
      ++failures;
    }
    std::filesystem::remove(solo.checkpoint_path);
  }
  if (failures > 0) return 1;
  std::printf("all %zu trajectories bit-identical to standalone runs\n",
              specs.size());
  return 0;
}

// Figure 14 (extension) — multi-tenant serving throughput: many
// independent DEM jobs multiplexed over one shared thread team by the
// work-stealing, step-quantum scheduler in src/serve.
//
// Gated claims:
//   1. Bit-identity: multiplexing never moves a bit of any trajectory.
//      A mixed 8-job trace served at team size {1, 2, 4} x quantum
//      {16, 64} produces, for every job, checkpoint bytes identical to the
//      same spec run standalone.
//   2. Throughput: at saturation the scheduler's priced makespan beats the
//      naive sequential baseline (one job at a time on one core) by >= 2x
//      at T = 4.  Pricing uses the *measured* schedule: each worker's
//      accumulated quantum cost in deterministic work units (force
//      evaluations + position updates, the same bit-reproducible wall-time
//      proxy the rebalancer prices blocks with); the sequential baseline's
//      makespan is the total work on one worker.  Wall-clock jobs/sec for
//      all three architectures (sequential, one-team-per-job, scheduler)
//      is reported alongside but not gated — on this repo's oversubscribed
//      single-core CI hosts wall-clock parallel speedup measures OS
//      scheduler skew, not the schedule (same approach as the fig9 gates).
//   3. Latency: small interactive jobs submitted against a saturating
//      batch backlog complete within 2x their isolated cost (p99 on the
//      cost clock: latency = (finish_cost - submit_cost) / workers,
//      isolated = the job's own cost units).  This is what the per-class
//      priority lanes and the step-quantum slicing buy.
//
// Results land in results/BENCH_serving.json; any gate failure exits
// nonzero.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/scheduler.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct ScopedFile {
  std::string path;
  ~ScopedFile() { std::filesystem::remove(path); }
};

// The mixed identity/throughput trace: uneven sizes and budgets across all
// three scenarios so the schedule actually has imbalance to absorb.
std::vector<serve::JobSpec> mixed_trace(std::uint64_t jobs, std::uint64_t n,
                                        std::uint64_t steps,
                                        std::uint64_t seed) {
  const serve::Scenario cycle[3] = {serve::Scenario::kUniform,
                                    serve::Scenario::kClustered,
                                    serve::Scenario::kSettled};
  std::vector<serve::JobSpec> specs;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    serve::JobSpec spec;
    spec.job_id = i;
    spec.scenario = cycle[i % 3];
    spec.n = n / 2 + (n / 4) * (i % 3);
    spec.steps = steps / 2 + (steps / 4) * (i % 3);
    spec.seed = seed;
    specs.push_back(spec);
  }
  return specs;
}

// Standalone reference: the spec run to completion in isolation.  Returns
// the checkpoint bytes and the job's total cost units.
struct SoloRun {
  std::string bytes;
  std::uint64_t cost_units = 0;
  double wall_seconds = 0.0;
};

SoloRun run_solo(serve::JobSpec spec, const std::string& path) {
  spec.checkpoint_path = path;
  ScopedFile cleanup{path};
  auto job = serve::make_job(spec);
  Timer t;
  job->advance(spec.steps);
  SoloRun out;
  out.wall_seconds = t.seconds();
  out.cost_units = job->cost_units();
  out.bytes = file_bytes(path);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  // Defaults sized so every job spans many quanta: the stolen schedule
  // can only balance at quantum granularity, so coarse jobs (few quanta)
  // turn the throughput gate into a measurement of OS timeslicing luck.
  const auto jobs = static_cast<std::uint64_t>(
      cli.integer("jobs", 12, "jobs in the identity/throughput trace"));
  const auto n = static_cast<std::uint64_t>(
      cli.integer("n", 800, "base particle count (jobs span n/2 .. n)"));
  const auto steps = static_cast<std::uint64_t>(cli.integer(
      "steps", 192, "base step budget (jobs span steps/2 .. steps)"));
  const auto n_small = static_cast<std::uint64_t>(
      cli.integer("n-small", 400, "latency probe particle count"));
  const auto steps_small = static_cast<std::uint64_t>(
      cli.integer("steps-small", 192, "latency probe step budget"));
  const auto smalls = static_cast<std::uint64_t>(
      cli.integer("smalls", 4, "interactive latency probes"));
  const auto seed =
      static_cast<std::uint64_t>(cli.integer("seed", 2026, "trace seed"));
  if (cli.finish()) return cli.exit_code();

  std::ostringstream out;
  out << "== Fig 14: multi-tenant serving over one shared thread team ==\n\n";
  std::ostringstream json;

  const std::string dir = perf::results_dir();
  const auto ckp = [&dir](const std::string& tag, std::uint64_t id) {
    return (std::filesystem::path(dir) /
            ("fig14_" + tag + "_" + std::to_string(id) + ".ckp"))
        .string();
  };

  // -- standalone references --------------------------------------------------
  const auto specs = mixed_trace(jobs, n, steps, seed);
  std::vector<SoloRun> solo;
  double wall_sequential = 0.0;
  std::uint64_t total_cost = 0;
  for (const auto& s : specs) {
    solo.push_back(run_solo(s, ckp("solo", s.job_id)));
    wall_sequential += solo.back().wall_seconds;
    total_cost += solo.back().cost_units;
  }

  // -- identity gate ----------------------------------------------------------
  out << "Identity gate: " << jobs << " mixed jobs (uniform/clustered/"
      << "settled), served checkpoints vs standalone runs\n";
  Table ti({"T", "quantum", "identical", "quanta", "steals", "balance"});
  json << "{\n  \"identity_gate\": [";
  bool identity_ok = true;
  bool first = true;
  // Per-(T, quantum) priced makespans for the throughput table below.
  struct SchedRun {
    int workers;
    std::uint64_t quantum;
    serve::ServeStats stats;
    double wall_seconds;
  };
  std::vector<SchedRun> sched_runs;
  for (const int T : {1, 2, 4}) {
    for (const std::uint64_t quantum : {std::uint64_t{16}, std::uint64_t{64}}) {
      smp::ThreadTeam team(T);
      serve::Scheduler sched(team, {.quantum_steps = quantum});
      std::vector<ScopedFile> files;
      files.reserve(specs.size());  // no reallocation: dtor deletes the file
      std::vector<std::future<serve::JobResult>> futs;
      for (const auto& s : specs) {
        serve::JobSpec spec = s;
        spec.checkpoint_path = ckp("mux", s.job_id);
        files.push_back({spec.checkpoint_path});
        futs.push_back(sched.submit(serve::make_job(spec)));
      }
      Timer t;
      sched.drain();
      const double wall = t.seconds();
      bool same = true;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        futs[i].get();
        same = same && file_bytes(files[i].path) == solo[i].bytes;
      }
      identity_ok = identity_ok && same;
      const auto stats = sched.stats();
      const auto summary = serve::serve_summary(stats);
      sched_runs.push_back({T, quantum, stats, wall});
      ti.add_row({std::to_string(T), std::to_string(quantum),
                  same ? "yes" : "NO", std::to_string(stats.quanta),
                  std::to_string(stats.steals),
                  T > 1 ? Table::num(summary.balance, 3) : "-"});
      json << (first ? "" : ",") << "\n    {\"workers\": " << T
           << ", \"quantum_steps\": " << quantum
           << ", \"jobs\": " << jobs
           << ", \"identical\": " << (same ? "true" : "false")
           << ", \"quanta\": " << stats.quanta
           << ", \"steals\": " << stats.steals
           << ", \"balance\": " << summary.balance
           << ", \"wall_seconds\": " << wall << "}";
      first = false;
    }
  }
  out << ti.render() << "\n";
  out << "identity: " << (identity_ok ? "PASS" : "FAIL") << "\n\n";

  // -- one-team-per-job baseline ----------------------------------------------
  // Each job gets its own 4-thread colored SmpSim, run one after another —
  // the architecture the scheduler replaces.  Fork/join episodes per step
  // are its structural overhead; the scheduler's jobs run the serial
  // engine (zero per-step regions) and parallelise across jobs instead.
  double wall_team = 0.0;
  std::uint64_t team_regions = 0;
  std::uint64_t team_steps = 0;
  for (const auto& s : specs) {
    serve::JobSpec spec = s;
    spec.inner_threads = 4;
    spec.checkpoint_path = ckp("team", s.job_id);
    ScopedFile cleanup{spec.checkpoint_path};
    auto job = serve::make_job(spec);
    Timer t;
    job->advance(spec.steps);
    wall_team += t.seconds();
    team_regions += job->counters().parallel_regions;
    team_steps += spec.steps;
  }

  // -- throughput gate --------------------------------------------------------
  // Priced makespan of the measured schedule: max per-worker accumulated
  // cost.  Sequential baseline: all work on one worker.
  out << "Throughput at saturation (" << jobs << " jobs, total "
      << total_cost << " cost units):\n";
  Table tt({"architecture", "T", "quantum", "priced makespan",
            "priced speedup", "wall jobs/s"});
  tt.add_row({"sequential", "1", "-", std::to_string(total_cost),
              Table::num(1.0, 2),
              Table::num(static_cast<double>(jobs) / wall_sequential, 2)});
  tt.add_row({"team-per-job", "4", "-", std::to_string(total_cost / 4),
              "4.00 - sync",
              Table::num(static_cast<double>(jobs) / wall_team, 2)});
  double speedup_t4 = 0.0;
  json << "\n  ],\n  \"throughput\": {\"total_cost_units\": " << total_cost
       << ", \"sequential_wall_seconds\": " << wall_sequential
       << ", \"team_per_job_wall_seconds\": " << wall_team
       << ", \"team_per_job_regions_per_step\": "
       << (team_steps > 0
               ? static_cast<double>(team_regions) /
                     static_cast<double>(team_steps)
               : 0.0)
       << ",\n    \"scheduler\": [";
  first = true;
  for (const auto& r : sched_runs) {
    std::uint64_t makespan = 0;
    for (std::uint64_t c : r.stats.worker_cost_units) {
      makespan = std::max(makespan, c);
    }
    const double speedup = makespan > 0 ? static_cast<double>(total_cost) /
                                              static_cast<double>(makespan)
                                        : 0.0;
    if (r.workers == 4 && r.quantum == 16) speedup_t4 = speedup;
    tt.add_row({"scheduler", std::to_string(r.workers),
                std::to_string(r.quantum), std::to_string(makespan),
                Table::num(speedup, 2),
                Table::num(static_cast<double>(jobs) / r.wall_seconds, 2)});
    json << (first ? "" : ",") << "\n      {\"workers\": " << r.workers
         << ", \"quantum_steps\": " << r.quantum
         << ", \"priced_makespan\": " << makespan
         << ", \"priced_speedup\": " << speedup
         << ", \"wall_jobs_per_sec\": "
         << static_cast<double>(jobs) / r.wall_seconds << "}";
    first = false;
  }
  const bool throughput_ok = speedup_t4 >= 2.0;
  out << tt.render() << "\n";
  out << "priced speedup at T=4, quantum 16: " << Table::num(speedup_t4, 2)
      << "x (gate: >= 2x vs sequential) -> "
      << (throughput_ok ? "PASS" : "FAIL") << "\n\n";

  // -- latency gate -----------------------------------------------------------
  // Saturate T=4 with batch work, then submit interactive probes from a
  // replayer thread as the backlog drains; each probe's completion latency
  // on the cost clock must stay within 2x its isolated cost.
  const int T_lat = 4;
  const std::uint64_t quantum_lat = 16;
  serve::JobSpec probe_spec;
  probe_spec.scenario = serve::Scenario::kUniform;
  probe_spec.n = n_small;
  probe_spec.steps = steps_small;
  probe_spec.deadline = serve::DeadlineClass::kInteractive;
  probe_spec.seed = seed;
  probe_spec.job_id = 1000;
  const std::uint64_t isolated =
      run_solo(probe_spec, ckp("probe", probe_spec.job_id)).cost_units;

  smp::ThreadTeam team(T_lat);
  serve::Scheduler sched(team, {.quantum_steps = quantum_lat});
  std::vector<std::future<serve::JobResult>> batch_futs;
  for (std::uint64_t i = 0; i < 2 * jobs; ++i) {
    serve::JobSpec spec = specs[i % specs.size()];
    spec.job_id = 100 + i;
    batch_futs.push_back(sched.submit(serve::make_job(spec)));
  }
  std::vector<std::future<serve::JobResult>> probe_futs(smalls);
  std::thread replayer([&] {
    // A closed-loop interactive client: one outstanding probe at a time,
    // submissions staggered across the backlog's drain on the cost clock.
    // (Open-loop submission would measure probe-vs-probe queueing whenever
    // the replayer thread gets scheduled late, not probe-vs-batch.)
    const std::uint64_t backlog = 2 * total_cost;
    for (std::uint64_t i = 0; i < smalls; ++i) {
      const std::uint64_t mark = backlog * (i + 1) / (2 * (smalls + 1));
      while (sched.cost_clock() < mark) std::this_thread::yield();
      if (i > 0) probe_futs[i - 1].wait();
      serve::JobSpec spec = probe_spec;
      spec.job_id = 1000 + i;
      probe_futs[i] = sched.submit(serve::make_job(spec));
    }
    sched.close();
  });
  std::thread server([&] { sched.run(); });
  replayer.join();
  server.join();
  for (auto& f : batch_futs) f.get();

  std::vector<double> ratios;
  for (auto& f : probe_futs) {
    const auto r = f.get();
    const double latency =
        static_cast<double>(r.finish_cost - r.submit_cost) /
        static_cast<double>(T_lat);
    ratios.push_back(latency / static_cast<double>(isolated));
  }
  std::sort(ratios.begin(), ratios.end());
  const auto pct = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(ratios.size() - 1) + 0.5);
    return ratios[std::min(idx, ratios.size() - 1)];
  };
  const double p50 = pct(0.50), p99 = pct(0.99);
  const bool latency_ok = p99 <= 2.0;
  out << "Interactive latency under a saturating batch backlog (T=" << T_lat
      << ", quantum " << quantum_lat << ", " << smalls
      << " probes of " << isolated << " cost units each):\n"
      << "  completion latency / isolated cost: p50 = " << Table::num(p50, 2)
      << "x, p99 = " << Table::num(p99, 2)
      << "x (gate: p99 <= 2x) -> " << (latency_ok ? "PASS" : "FAIL")
      << "\n  " << perf::serve_line(serve::serve_summary(sched.stats()))
      << "\n\n";

  json << "\n    ]\n  },\n  \"latency\": {\"workers\": " << T_lat
       << ", \"quantum_steps\": " << quantum_lat
       << ", \"probes\": " << smalls
       << ", \"isolated_cost_units\": " << isolated
       << ", \"p50_ratio\": " << p50 << ", \"p99_ratio\": " << p99
       << ", \"ok\": " << (latency_ok ? "true" : "false")
       << "},\n  \"gates\": {\"identity\": "
       << (identity_ok ? "true" : "false")
       << ", \"throughput\": " << (throughput_ok ? "true" : "false")
       << ", \"latency\": " << (latency_ok ? "true" : "false") << "}\n}\n";

  out << "Shape checks:\n"
      << "  - every identity row says yes: step-quantum multiplexing and\n"
      << "    work stealing never move a bit of any trajectory\n"
      << "  - priced speedup grows with T and balance stays near 1: the\n"
      << "    stolen schedule spreads the mixed trace evenly\n"
      << "  - interactive probes ride the priority lanes to ~1.5x their\n"
      << "    isolated cost while the batch backlog saturates all workers\n";
  perf::save_artifact("BENCH_serving.json", json.str());
  out << "Per-configuration results written to results/BENCH_serving.json\n";
  emit("fig14.txt", out.str());
  if (!identity_ok || !throughput_ok || !latency_ok) {
    std::fputs("FAIL: serving identity/throughput/latency gate\n", stderr);
    return 1;
  }
  return 0;
}

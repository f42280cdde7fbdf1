// Wall-clock benchmark of the hdem library on this host.
//
//   perfbench --workload <dense3d|hot2d> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload is one class of system, run two ways: as one large
// simulation under each of the five parallel schemes (the paper's
// question, Figs 6-8), and as a stream of small jobs of the same class
// through the serving layer.  --trace 0 times both and prints the
// end-to-end metrics; --trace 1 makes the separate traced run that gives
// the per-layer metrics.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  See README.md for the
// metric definitions and the predictions each workload was chosen to test.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench_stamp.hpp"
#include "serve_part.hpp"
#include "sim_part.hpp"
#include "util/simd.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  SimWorkload sim;
  ServeWorkload serve;
};

// The serving mix, run beside each sim workload so that every workload
// reports every end-to-end metric: small 2-D interactive jobs (400-600
// particles, 100 steps) with one larger batch job (3000-4000 particles,
// 200 steps) in ten, across the uniform, clustered and settled scenarios.
// Thousands of cache-resident simulations, where job setup, quantum
// slicing and checkpoint I/O matter and the large-system layers barely
// do; it exposes a change that speeds up large systems at the price of
// per-job setup.  Predictions: serve.make_job_ms and serve.queue_ms move
// serve.interactive_ms.*; serve.overhead_frac, serve.balance and
// io.checkpoint_ms move capacity_jobs_per_s and serve.batch_ms.p50.
//   The open-loop rate is fixed in jobs/s and never re-derived: 120
// jobs/s, about 30% of the drain capacity this shared 4-core host gave
// when the benchmark was defined (400-560 jobs/s).  At 60% of capacity
// the queue amplified the host's own speed swings about 2.5x into the
// latencies (interactive p99 spread 0.33 over ten runs) and busy periods
// saturated the open loop; at 30% latency tracks the program instead.
ServeWorkload serve_mix() {
  ServeWorkload w;
  w.mix.dim = 2;
  w.mix.rate = 120.0;
  w.mix.batch_every = 10;
  w.mix.interactive = {400, 600, 100};
  w.mix.batch = {3000, 4000, 200};
  w.segment_seconds = 1.0;
  w.min_interactive = 1000;
  w.backlog = 90;
  w.traced_drains = 8;
  return w;
}

// dense3d -- 3-D, uniform random at the paper's density, rc = 2.0 d,
// default velocity scale, B/P = 1; n = 64k, so the particle and link
// arrays (about 13 MB) exceed a core's 2 MiB L2 and live in the shared L3.
//   Why: the list rebuilds about once in 200 steps after construction and
//   the force phase is most of the serial step.  The pair kernel and the
//   force reduction do most of the work; rebuilds and halos little.  The
//   timed windows hold no rebuild, so a change that buys kernel speed with
//   extra per-rebuild work looks best here -- and shows in setup_s, which
//   holds the first rebuild of every scheme.
//   Predictions: core.ns_per_link moves steps_per_s.serial (and every
//   scheme); reduction.* move steps_per_s.smp4/.hybrid2x2/.fused2x2; mp.*
//   and decomp.* barely move anything; the rebuild stages move setup_s,
//   not the steps_per_s.
//
// hot2d -- 2-D, uniform at the paper's density, rc = 1.5 d, B/P = 4 (16
// blocks), velocity scale 12: at skin 0 the list rebuilds every other
// step; n = 32k, so one rank's blocks fit in L2.
//   Why: link building dominates the serial step; mp4 spends its time in
//   halo waits and halo-template rebuilds; the per-block fork/joins of
//   hybrid2x2 show against fused2x2.  A kernel gain should barely move
//   this workload; a rebuild or decomposition change should.  It also
//   exposes a kernel change that shifts work into the rebuild.
//   Predictions: core.bin_ms/reorder_ms/linkgen_ms move every
//   steps_per_s; mp.* and decomp.* move steps_per_s.mp4/.hybrid2x2/
//   .fused2x2; smp.regions_per_step separates hybrid2x2 (a region per
//   block per loop) from fused2x2 (one per loop); core.ns_per_link does
//   not move the steps_per_s here.
//
// trace.overhead_frac must stay small on both.
const Workload kWorkloads[] = {
    {"dense3d",
     {3, 65536, 2.0, 0.05, 1, /*warmup=*/3, /*window=*/6, /*trace_cap=*/400,
      /*windows=*/3},
     serve_mix()},
    {"hot2d",
     {2, 32768, 1.5, 12.0, 4, /*warmup=*/3, /*window=*/8, /*trace_cap=*/60,
      /*windows=*/3},
     serve_mix()},
};

// The benchmark refuses to run under any HDEM_* variable: several
// library defaults (halo transport, SIMD width, skin) read them, so a
// stray export would silently change which program is measured.
const char* hdem_env() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "HDEM_", 5) == 0) return *e;
  }
  return nullptr;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Host, build, revision, seed and the effective knob set.
std::string stamp(const Workload& w, std::uint64_t seed, double seconds,
                  bool traced) {
  namespace simd = hdem::simd;
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"host\":{\"nproc\":%u,\"cpu\":%s,\"isa_compiled\":%s,"
      "\"simd_width\":%d},"
      "\"build\":{\"type\":%s,\"flags\":%s,\"compiler\":%s},"
      "\"revision\":%s,"
      "\"knobs\":{\"skin\":0,\"skin_cap\":0,\"halo_delta\":false,"
      "\"halo_coalesce\":false,\"shared_halo\":false,\"ranks_per_node\":0,"
      "\"overlap\":false,\"steal\":false,\"rebalance\":false,"
      "\"reduction\":\"colored\",\"fused\":\"fused2x2 only\","
      "\"reorder\":true,\"drift_measured\":true,\"simd_width\":%d,"
      "\"blocks_per_proc_mp4\":%d,\"serve_workers\":%d,"
      "\"quantum_steps\":%llu,\"open_loop_rate\":%g}}",
      json_str(w.name).c_str(), static_cast<unsigned long long>(seed),
      seconds, traced ? 1 : 0, std::thread::hardware_concurrency(),
      json_str(cpu_model()).c_str(),
      json_str(simd::isa_name(simd::kCompiledIsa)).c_str(),
      simd::dispatch_width(), json_str(stamp::kBuildType).c_str(),
      json_str(stamp::kFlags).c_str(), json_str(stamp::kCompiler).c_str(),
      json_str(stamp::kRevision).c_str(), simd::dispatch_width(),
      w.sim.blocks_per_proc, kServeWorkers,
      static_cast<unsigned long long>(kQuantumSteps), w.serve.mix.rate);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_spans(const std::string& path, const std::string& stamp_json,
                 const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"stamp\":" << stamp_json << ",\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                  "\"end\":%.9f,\"parent\":%lld,\"owner\":%lld}",
                  i ? "," : "", i, s.name, s.start, s.end,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.owner));
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

// Timed run: sim rounds, open-loop segments and drains, interleaved so
// that every metric samples the whole run.  Each next part is the one
// furthest behind its share of the time spent, until --seconds have
// passed and the open loop holds min_interactive interactive jobs.
// Traced run: each half once, traced, plus the untraced repeats that
// price the tracing.
constexpr double kShare[3] = {0.50, 0.20, 0.30};  // sim, open loop, drains

template <int D>
void run_workload(const Workload& w, std::uint64_t seed, double seconds,
                  bool traced, const std::string& out_dir,
                  const std::string& stamp_json, Metrics& metrics,
                  Tally& tally) {
  const std::string serve_dir =
      out_dir + "/serve-" + std::to_string(::getpid());
  std::filesystem::create_directories(serve_dir);
  const ServeWorkload& sw = w.serve;
  std::vector<OpenLoopSamples> segments;
  std::size_t interactive = 0;
  auto segment = [&](SpanLog* log) {
    segments.push_back(
        open_loop(sw, seed, segments.size(), serve_dir, log, tally));
    interactive += segments.back().interactive_ms.size();
  };
  if (!traced) {
    SimTimed<D> sim(w.sim, seed, tally);
    std::vector<double> capacity;
    double spent[3] = {0.0, 0.0, 0.0};
    const double start = now();
    while (now() - start < seconds || interactive < sw.min_interactive ||
           sim.rounds() == 0 || capacity.empty()) {
      int part = 0;
      for (int k = 1; k < 3; ++k) {
        if (spent[k] / kShare[k] < spent[part] / kShare[part]) part = k;
      }
      if (now() - start >= seconds && interactive < sw.min_interactive) {
        part = 1;
      }
      const double t0 = now();
      if (part == 0) {
        sim.round();
      } else if (part == 1) {
        segment(nullptr);
      } else {
        for (const double m :
             run_drains(sw, seed, 1, serve_dir, nullptr, tally)) {
          capacity.push_back(static_cast<double>(sw.backlog) / m);
        }
      }
      spent[part] += now() - t0;
    }
    std::printf("run: %.1f s sim, %.1f s open loop, %.1f s in %zu drains\n",
                spent[0], spent[1], spent[2], capacity.size());
    sim.report(metrics);
    report_open_loop(sw, segments, false, metrics);
    // The fastest tenth of the drains, for the reason the sim rates use it.
    metrics.add("capacity_jobs_per_s", percentile(capacity, 900), "jobs/s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    hdem::trace::Tracer::global().enable(true);
    SpanLog log;
    double traced_s = 0.0, untraced_s = 0.0;
    sim_traced<D>(w.sim, seed, log, metrics, tally, traced_s, untraced_s);
    while (interactive < sw.min_interactive) segment(&log);
    report_open_loop(sw, segments, true, metrics);
    // Traced and untraced drains alternate, so host drift prices neither.
    for (int k = 0; k < sw.traced_drains; ++k) {
      traced_s += sum(run_drains(sw, seed, 1, serve_dir, &log, tally));
      untraced_s += sum(run_drains(sw, seed, 1, serve_dir, nullptr, tally));
    }
    metrics.add("trace.overhead_frac", 1.0 - untraced_s / traced_s, "ratio");
    const std::string path = out_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(seed) + ".json";
    write_spans(path, stamp_json, log.snapshot());
    std::printf("spans written to %s\n", path.c_str());
  }
  std::filesystem::remove_all(serve_dir);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dense3d|hot2d> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  if (const char* var = hdem_env()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: HDEM_* variables "
                 "change library defaults; unset them\n",
                 var);
    return 2;
  }
  std::string workload, out_dir = ".bench_out";
  long long seed = -1, trace = -1;
  double seconds = -1.0;
  if (argc % 2 == 0) return usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoll(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      trace = std::strtoll(val.c_str(), &end, 10);
    } else if (key == "--out") {
      out_dir = val;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + key).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage("unknown or missing --workload");
  if (seed < 0) return usage("--seed must be a non-negative integer");
  if (!(seconds > 0.0 && seconds <= 60.0)) {
    return usage("--seconds must be in (0, 60]");
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  // Pin the SIMD width to the widest this build and CPU support.
  hdem::simd::set_dispatch_width(hdem::simd::kMaxWidth);
  std::filesystem::create_directories(out_dir);
  const auto useed = static_cast<std::uint64_t>(seed);
  const std::string stamp_json = stamp(*w, useed, seconds, trace == 1);
  std::printf("stamp %s\n", stamp_json.c_str());
  std::fflush(stdout);

  Metrics metrics;
  Tally tally;
  if (w->sim.dim == 2) {
    run_workload<2>(*w, useed, seconds, trace == 1, out_dir, stamp_json,
                    metrics, tally);
  } else {
    run_workload<3>(*w, useed, seconds, trace == 1, out_dir, stamp_json,
                    metrics, tally);
  }

  for (const Metric& m : metrics.items()) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("diagnostic failed_frac = %.6g (%llu of %llu operations)\n",
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  const bool correct = tally.failed == 0 && !metrics.nonfinite();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.items().size(); ++i) {
    const Metric& m = metrics.items()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

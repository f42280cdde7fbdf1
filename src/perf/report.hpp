// Artifact output helpers for the benchmark harness.
//
// Every bench prints its tables/plots to stdout (captured into
// bench_output.txt) and also saves them under results/ so individual
// experiments can be inspected without re-running the whole suite.
#pragma once

#include <string>

#include "core/counters.hpp"

namespace hdem::perf {

// Directory where bench artifacts are written ("results", overridable via
// the HDEM_RESULTS_DIR environment variable).  Created on first use.
std::string results_dir();

// Write `content` to results_dir()/name (overwriting).
void save_artifact(const std::string& name, const std::string& content);

// One line of facts about the host, read at run time, that heads tune
// files and host-timed bench output: the hardware thread count, the CPU
// model (from /proc/cpuinfo, or "unknown"), the SIMD ISA compiled in, the
// one active on this CPU and the kernels' dispatch width.
std::string host_report();

// Verlet-skin amortization at a glance for bench tables: how many steps a
// window ran, how many rebuilt vs reused the candidate list, and the mean
// number of steps each built list served (iterations / rebuilds; equals 1
// when every step rebuilds, iterations when the window never rebuilt).
struct ReuseSummary {
  std::uint64_t iterations = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuilds_skipped = 0;
  std::uint64_t migrations_skipped = 0;
  std::uint64_t halo_rebuilds_skipped = 0;
  double mean_reuse_interval = 0.0;
};
ReuseSummary reuse_summary(const Counters& c);

// One-line rendering of the summary ("rebuilds=3 skipped=117 reuse=40.0x").
std::string reuse_line(const ReuseSummary& s);

// Halo-swap traffic at a glance for bench tables and example summaries:
// wire bytes and messages per step, the same-node shared-window bytes, the
// delta hit rate (fraction of eager halo bytes the delta frames avoided
// shipping), and how many per-side wire messages coalescing merged away.
// Built from merged (all-rank) counters over a steady-state window.
struct HaloSummary {
  std::uint64_t iterations = 0;
  double wire_bytes_per_step = 0.0;
  double wire_msgs_per_step = 0.0;
  double shared_bytes_per_step = 0.0;
  double coalesced_per_step = 0.0;
  double delta_hit_rate = 0.0;  // bytes_delta_saved / halo_bytes_eager
};
HaloSummary halo_summary(const Counters& c);

// One-line rendering ("wire=8.4KB/step in 8.0 msgs hit=87% coalesced=24").
std::string halo_line(const HaloSummary& s);

// Serving-scheduler throughput at a glance for the sim server and fig14:
// completed jobs and jobs/sec, quanta executed, steal count, the fraction
// of worker time spent in queue bookkeeping rather than advancing jobs,
// and the priced load balance of the measured schedule
// (sum of per-worker cost / (workers x max per-worker cost); 1.0 is a
// perfectly even schedule).  Built from a thread-safe ServeStats snapshot
// (serve::serve_summary converts one).
struct ServeSummary {
  std::uint64_t jobs = 0;
  double run_seconds = 0.0;
  std::uint64_t quanta = 0;
  std::uint64_t steals = 0;
  std::uint64_t cost_units = 0;
  double overhead_fraction = 0.0;
  int workers = 1;
  double balance = 0.0;
};

// One-line rendering ("jobs=12 (3.4/s) quanta=480 steals=37 overhead=0.8%
// balance=0.96").
std::string serve_line(const ServeSummary& s);

}  // namespace hdem::perf

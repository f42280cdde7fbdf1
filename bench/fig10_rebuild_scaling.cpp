// Figure 10 (extension) — list-rebuild scaling: host-measured time per
// rebuild vs thread count and system size for the parallel rebuild
// pipeline (parallel counting sort, parallel cell-order reorder, the one
// color-tagged link build).  The paper prices the rebuild as "not
// time-critical" and keeps it serial; once the per-step force cost scales,
// the rebuild is the residual Amdahl term, which is what this bench
// quantifies.  The timed systems sit at the paper's number density
// (SimConfig::paper_box_edge).  Alongside the timings it verifies the
// pipeline's defining property: 120-step trajectories are bit-identical
// for every team size (the per-phase breakdown comes from the drivers'
// rebuild counters).  The identity check keeps its small dense box, so
// its hashes stay comparable with earlier runs.
//
// Host timings measure this machine, not the paper's platforms; a team
// larger than the host's core count is oversubscribed and its speedup
// flattens — the numbers are still the honest measurement the JSON
// records (see EXPERIMENTS.md).
#include <cstring>
#include <sstream>

#include "common.hpp"
#include "core/serial_sim.hpp"
#include "driver/smp_sim.hpp"
#include "util/timer.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

struct RebuildTiming {
  double seconds_per_rebuild = 0.0;
  // Per-rebuild phase breakdown from the driver's counters (ns).
  double bin_ns = 0.0, reorder_ns = 0.0, linkgen_ns = 0.0;
};

template <int D>
RebuildTiming time_rebuilds(std::uint64_t n, int nthreads, bool reorder,
                            int rebuilds, int reps) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(n));
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 12345;
  cfg.reorder = reorder;
  const auto init = uniform_random_particles(cfg, n);
  SmpSim<D> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                nthreads, ReductionKind::kColored);
  sim.run(2);  // settle into a representative particle distribution

  RebuildTiming best;
  for (int r = 0; r < reps; ++r) {
    const Counters before = sim.counters();
    Timer t;
    for (int i = 0; i < rebuilds; ++i) sim.rebuild();
    const double per = t.seconds() / rebuilds;
    if (r == 0 || per < best.seconds_per_rebuild) {
      const Counters after = sim.counters();
      const auto d = counters_delta(after, before);
      best.seconds_per_rebuild = per;
      best.bin_ns = static_cast<double>(d.rebuild_bin_ns) / rebuilds;
      best.reorder_ns = static_cast<double>(d.rebuild_reorder_ns) / rebuilds;
      best.linkgen_ns = static_cast<double>(d.rebuild_linkgen_ns) / rebuilds;
    }
  }
  return best;
}

template <int D>
std::uint64_t trajectory_hash(std::uint64_t n, int nthreads, bool reorder,
                              int steps) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 777;
  cfg.velocity_scale = 0.8;  // several rebuilds inside the window
  cfg.reorder = reorder;
  const auto init = uniform_random_particles(cfg, n);
  SmpSim<D> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                nthreads, ReductionKind::kColored);
  sim.run(static_cast<std::uint64_t>(steps));
  return trajectory_digest<D>(sim.store());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::uint64_t n2 = 120'000, n3 = 100'000;
  n2 = static_cast<std::uint64_t>(
      cli.integer("n2", static_cast<std::int64_t>(n2),
                  "particles for the D=2 rebuild timings"));
  n3 = static_cast<std::uint64_t>(
      cli.integer("n3", static_cast<std::int64_t>(n3),
                  "particles for the D=3 rebuild timings"));
  const auto threads =
      cli.integer_list("threads", {1, 2, 4}, "team sizes to time");
  const auto rebuilds = static_cast<int>(
      cli.integer("rebuilds", 3, "rebuilds per timed measurement"));
  const auto reps =
      static_cast<int>(cli.integer("reps", 5, "repetitions (best-of)"));
  const auto traj_n = static_cast<std::uint64_t>(cli.integer(
      "traj-n", 6'000, "particles for the bit-identity trajectory check"));
  const auto traj_steps = static_cast<int>(
      cli.integer("traj-steps", 120, "steps for the trajectory check"));
  if (cli.finish()) return cli.exit_code();

  std::ostringstream out;
  out << "== Fig 10: rebuild-pipeline scaling (host time, colored "
         "reduction, paper density) ==\n\n";
  Table t({"D", "reorder", "N", "T", "ms/rebuild", "speedup", "bin ms",
           "reorder ms", "linkgen ms"});
  std::ostringstream json;
  json << "{\n  \"n2\": " << n2 << ",\n  \"n3\": " << n3
       << ",\n  \"box2\": " << SimConfig<2>::paper_box_edge(n2)
       << ",\n  \"box3\": " << SimConfig<3>::paper_box_edge(n3)
       << ",\n  \"rebuilds_per_measurement\": " << rebuilds
       << ",\n  \"results\": [";
  bool first = true;
  for (int D : {2, 3}) {
    const std::uint64_t n = D == 2 ? n2 : n3;
    for (bool reorder : {true, false}) {
      double t1 = 0.0;
      for (const auto threads_i : threads) {
        const int T = static_cast<int>(threads_i);
        const RebuildTiming m =
            D == 2 ? time_rebuilds<2>(n, T, reorder, rebuilds, reps)
                   : time_rebuilds<3>(n, T, reorder, rebuilds, reps);
        if (T == 1) t1 = m.seconds_per_rebuild;
        const double speedup =
            t1 > 0.0 ? t1 / m.seconds_per_rebuild : 0.0;
        t.add_row({std::to_string(D), reorder ? "on" : "off",
                   std::to_string(n), std::to_string(T),
                   Table::num(m.seconds_per_rebuild * 1e3, 2),
                   speedup > 0.0 ? Table::num(speedup, 3) + "x" : "-",
                   Table::num(m.bin_ns / 1e6, 2),
                   Table::num(m.reorder_ns / 1e6, 2),
                   Table::num(m.linkgen_ns / 1e6, 2)});
        json << (first ? "" : ",") << "\n    {\"D\": " << D
             << ", \"reorder\": " << (reorder ? "true" : "false")
             << ", \"n\": " << n << ", \"nthreads\": " << T
             << ", \"seconds_per_rebuild\": " << m.seconds_per_rebuild
             << ", \"speedup_vs_serial\": " << speedup
             << ", \"bin_ns\": " << m.bin_ns
             << ", \"reorder_ns\": " << m.reorder_ns
             << ", \"linkgen_ns\": " << m.linkgen_ns << "}";
        first = false;
      }
    }
  }

  // Bit-identity: the same 120-step trajectory for every team size, with
  // and without reordering, in both dimensions.
  out << t.render() << "\n";
  out << "Trajectory bit-identity across team sizes {1, 2, 4, 7} ("
      << traj_n << " particles, " << traj_steps << " steps):\n";
  json << "\n  ],\n  \"trajectory_identity\": [";
  bool all_identical = true;
  bool first_traj = true;
  for (int D : {2, 3}) {
    for (bool reorder : {true, false}) {
      std::uint64_t ref = 0;
      bool identical = true;
      std::ostringstream hashes;
      for (const int T : {1, 2, 4, 7}) {
        const std::uint64_t h =
            D == 2 ? trajectory_hash<2>(traj_n, T, reorder, traj_steps)
                   : trajectory_hash<3>(traj_n, T, reorder, traj_steps);
        if (T == 1) ref = h;
        identical = identical && h == ref;
        hashes << (T == 1 ? "" : ", ") << "\"" << std::hex << h << std::dec
               << "\"";
      }
      all_identical = all_identical && identical;
      out << "  D=" << D << " reorder=" << (reorder ? "on " : "off")
          << " -> " << (identical ? "bit-identical" : "MISMATCH") << "\n";
      json << (first_traj ? "" : ",") << "\n    {\"D\": " << D
           << ", \"reorder\": " << (reorder ? "true" : "false")
           << ", \"identical\": " << (identical ? "true" : "false")
           << ", \"hashes\": [" << hashes.str() << "]}";
      first_traj = false;
    }
  }
  json << "\n  ],\n  \"all_identical\": "
       << (all_identical ? "true" : "false") << "\n}\n";
  out << "\nShape checks:\n"
      << "  - the bin/reorder/linkgen breakdown accounts for nearly all of\n"
      << "    the per-rebuild time (no hidden serial splice or re-sort)\n"
      << "  - every trajectory hash is identical across team sizes: the\n"
      << "    parallel pipeline reproduces the serial rebuild exactly\n"
      << "  - speedups track the machine's real core count; teams\n"
      << "    beyond it are oversubscribed and flatten\n";
  perf::save_artifact("BENCH_rebuild.json", json.str());
  out << "Per-configuration results written to results/BENCH_rebuild.json\n";
  emit("fig10.txt", out.str());
  return all_identical ? 0 : 1;
}

// Shared implementation of Figures 1 and 2: scaling of the pure MPI block
// distribution (B = P) with the number of processes, normalised to each
// platform's reference process count P0, with or without particle
// reordering.
#pragma once

#include <map>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "util/knob_cli.hpp"

namespace hdem::bench {

struct ScalingSeries {
  std::string platform;
  int D;
  int p0;
  std::vector<int> procs;
};

inline int run_mpi_scaling_bench(int argc, char** argv, bool reorder,
                                 const std::string& figure,
                                 const std::string& title) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  RunKnobs knobs;
  knobs.reorder = reorder;
  declare_decomp_options(cli, knobs, {1});
  declare_halo_options(cli, knobs);
  if (cli.finish()) return cli.exit_code();
  calibrate_platforms(ctx);

  // The paper's process counts: T3E runs start at P0 = 8 (memory limits),
  // the Sun has 8 CPUs, the Compaq cluster 5 x 4 CPUs.
  const std::vector<ScalingSeries> series = {
      {"Sun", 2, 1, {1, 2, 4, 8}},      {"Sun", 3, 1, {1, 2, 4, 8}},
      {"T3E", 2, 8, {8, 16, 32, 64}},   {"T3E", 3, 8, {8, 16, 32, 64}},
      {"CPQ", 2, 1, {1, 2, 4, 8, 16, 20}},
      {"CPQ", 3, 1, {1, 2, 4, 8, 16, 20}},
  };

  // Measure each distinct (D, P) once; predictions per platform reuse it.
  std::map<std::pair<int, int>, perf::RunMeasurement> measured;
  for (const auto& s : series) {
    for (int p : s.procs) {
      const auto key = std::make_pair(s.D, p);
      if (measured.count(key)) continue;
      perf::MeasureSpec spec{knobs, {}};
      spec.D = s.D;
      spec.n = ctx.n_for(s.D);
      spec.rc_factor = 1.5;  // the paper's Figures 1-3 use rc = 1.5 rmax
      spec.mode = perf::MeasureSpec::Mode::kMp;
      spec.nprocs = p;
      spec.iterations = ctx.iters;
      measured.emplace(key, perf::measure_run(spec));
    }
  }

  std::ostringstream out;
  out << "== " << title << " ==\n\n";
  Table t({"Platform", "D", "P", "P/P0", "model t (s)", "speedup", "eff"});
  AsciiPlot plot(title, "P/P0", "speedup t(P0)/t(P)", 64, 18);
  plot.set_logx(true);
  for (const auto& s : series) {
    const auto& machine = ctx.machine(s.platform);
    std::vector<double> xs, ys;
    double t0 = 0.0;
    for (int p : s.procs) {
      const auto& run = measured.at({s.D, p});
      const double tp = predict_paper_seconds(
          machine, run, mpi_ranks_per_node(machine, p));
      if (p == s.p0) t0 = tp;
      const double speedup = t0 > 0.0 ? t0 / tp : 0.0;
      const double rel = static_cast<double>(p) / s.p0;
      t.add_row({s.platform, std::to_string(s.D), std::to_string(p),
                 Table::num(rel, 0), Table::num(tp, 3),
                 Table::num(speedup, 2), Table::num(speedup / rel, 2)});
      xs.push_back(rel);
      ys.push_back(speedup);
    }
    plot.add_series({s.platform + " D=" + std::to_string(s.D), xs, ys});
  }
  out << t.render() << "\n" << plot.render() << "\n";
  if (!reorder) {
    out << "Paper shape checks (Fig 1):\n"
        << "  - \"surprisingly good scaling, with efficiencies actually in\n"
        << "    excess of one\": poor cache use of the random order benefits\n"
        << "    from aggregate cache as P grows (strongest on the 96 KB T3E)\n"
        << "  - CPQ efficiency jumps past P = 4 when extra boxes add memory\n"
        << "    systems\n";
  } else {
    out << "Paper shape checks (Fig 2):\n"
        << "  - absolute performance better than Fig 1 everywhere, but\n"
        << "    parallel efficiencies reduced (less aggregate-cache benefit)\n"
        << "  - CPQ D = 2 still gains efficiency past one box (memory\n"
        << "    bandwidth)\n";
  }
  emit(figure, out.str());
  return 0;
}

}  // namespace hdem::bench

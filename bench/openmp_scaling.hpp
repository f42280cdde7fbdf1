// Shared implementation of Figures 4 and 5: scaling of the pure OpenMP
// (thread-team) code with the number of threads T for the three viable
// force-update strategies, on a given platform.
//
//   atomic           every update protected ("atomic" method)
//   selected-atomic  conflict table; only genuinely shared particles locked
//   transpose        array reduction (stripe performed identically in the
//                    paper, so one representative is plotted)
//   colored          conflict-free color phases, zero locks (this library's
//                    correct realisation of the Section 9.3 no-lock bound)
//
// Critical-region reduction "gave extremely poor results which are not
// shown" — same here (it is exercised by tests and the ablations).
#pragma once

#include <sstream>
#include <vector>

#include "common.hpp"

namespace hdem::bench {

inline int run_openmp_scaling_bench(int argc, char** argv,
                                    const std::string& platform,
                                    const std::vector<int>& threads,
                                    const std::string& figure,
                                    const std::string& title,
                                    const std::string& shape_notes) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  if (cli.finish()) return cli.exit_code();
  calibrate_platforms(ctx);
  const auto& machine = ctx.machine(platform);

  // Serial reference (the paper normalises thread scaling to one CPU).
  perf::MeasureSpec ref;
  ref.D = 3;
  ref.n = ctx.n_for(3);
  ref.rc_factor = 1.5;
  ref.mode = perf::MeasureSpec::Mode::kSerial;
  ref.iterations = ctx.iters;
  const double t_serial =
      predict_paper_seconds(machine, perf::measure_run(ref), 1);

  const std::vector<ReductionKind> strategies = {
      ReductionKind::kAtomicAll, ReductionKind::kSelectedAtomic,
      ReductionKind::kTranspose, ReductionKind::kColored};

  std::ostringstream out;
  out << "== " << title << " ==\n\n";
  Table t({"method", "T", "model t (s)", "speedup vs serial", "eff"});
  AsciiPlot plot(title, "threads T", "speedup", 60, 16);
  for (const auto kind : strategies) {
    std::vector<double> xs, ys;
    for (int T : threads) {
      perf::MeasureSpec spec = ref;
      spec.mode = perf::MeasureSpec::Mode::kSmp;
      spec.nthreads = T;
      spec.reduction = kind;
      const auto m = perf::measure_run(spec);
      const double tp = predict_paper_seconds(machine, m, 1);
      const double speedup = t_serial / tp;
      t.add_row({to_string(kind), std::to_string(T), Table::num(tp, 3),
                 Table::num(speedup, 2),
                 Table::num(speedup / T, 2)});
      xs.push_back(T);
      ys.push_back(speedup);
    }
    plot.add_series({to_string(kind), xs, ys});
  }
  out << t.render() << "\n" << plot.render() << "\n" << shape_notes;
  emit(figure, out.str());
  return 0;
}

}  // namespace hdem::bench

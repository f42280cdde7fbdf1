// Figure 6 — "P = 4 MPI time vs B compared to OpenMP with T = 4 ...
// Results from Compaq with D = 3": the crossover experiment.  MPI needs
// finer granularity (more blocks) to load-balance a clustered run, and its
// time grows with B; OpenMP load-balances for free over links, so its time
// is a flat line.  Where the lines cross tells you how much imbalance
// justifies the shared-memory implementation: the paper finds ~8 blocks
// per processor at rc = 2.0 rmax and ~30 at rc = 1.5 rmax.
#include <sstream>

#include "common.hpp"

using namespace hdem;
using namespace hdem::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  if (cli.finish()) return cli.exit_code();
  calibrate_platforms(ctx);
  const auto& machine = ctx.cpq;

  const std::vector<int> bpps = {1, 2, 4, 8, 16, 24, 32, 48};

  std::ostringstream out;
  out << "== Fig 6: Compaq D=3 — MPI P=4 time vs blocks/processor against "
         "OpenMP T=4 ==\n\n";
  Table t({"rc/rmax", "B/P", "MPI t (s)", "OpenMP t (s)", "MPI/OpenMP"});
  AsciiPlot plot("Fig 6: MPI (rising) vs OpenMP (flat) on 4 CPQ CPUs", "B/P",
                 "time per iteration (s)", 64, 18);
  plot.set_logx(true);
  std::ostringstream crossings;
  for (double rcf : {1.5, 2.0}) {
    // OpenMP reference: T = 4, selected-atomic, one SMP node.
    perf::MeasureSpec omp;
    omp.D = 3;
    omp.n = ctx.n_for(3);
    omp.rc_factor = rcf;
    omp.mode = perf::MeasureSpec::Mode::kSmp;
    omp.nthreads = 4;
    omp.reduction = ReductionKind::kSelectedAtomic;
    omp.iterations = ctx.iters;
    const double t_omp =
        predict_paper_seconds(machine, perf::measure_run(omp), 1);

    std::vector<double> xs, ys;
    double crossover = -1.0;
    for (int bpp : bpps) {
      perf::MeasureSpec mpi;
      mpi.D = 3;
      mpi.n = ctx.n_for(3);
      mpi.rc_factor = rcf;
      mpi.mode = perf::MeasureSpec::Mode::kMp;
      mpi.nprocs = 4;
      mpi.blocks_per_proc = bpp;
      mpi.iterations = ctx.iters;
      const double t_mpi =
          predict_paper_seconds(machine, perf::measure_run(mpi), 4);
      t.add_row({Table::num(rcf, 1), std::to_string(bpp),
                 Table::num(t_mpi, 3), Table::num(t_omp, 3),
                 Table::num(t_mpi / t_omp, 2)});
      xs.push_back(bpp);
      ys.push_back(t_mpi);
      if (crossover < 0.0 && t_mpi > t_omp) crossover = bpp;
    }
    plot.add_series({"MPI rc=" + Table::num(rcf, 1), xs, ys});
    plot.add_series({"OpenMP rc=" + Table::num(rcf, 1),
                     {xs.front(), xs.back()},
                     {t_omp, t_omp}});
    const double paper = rcf == 2.0 ? perf::kPaperCrossoverBppRc20
                                    : perf::kPaperCrossoverBppRc15;
    crossings << "  rc=" << Table::num(rcf, 1) << ": OpenMP wins beyond B/P~"
              << (crossover < 0 ? std::string(">48")
                                : Table::num(crossover, 0))
              << "   (paper: ~" << Table::num(paper, 0) << ")\n";
  }
  out << t.render() << "\n" << plot.render() << "\n";
  out << "Crossover (smallest measured B/P where OpenMP outperforms MPI):\n"
      << crossings.str()
      << "Paper shape checks:\n"
      << "  - a crossover exists for D=3 at both cutoffs, and it occurs at\n"
      << "    coarser granularity for the larger cutoff\n";
  emit("fig6.txt", out.str());
  return 0;
}

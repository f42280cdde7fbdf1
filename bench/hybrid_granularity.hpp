// Shared implementation of Figures 7 and 8 (and the no-lock ablation):
// efficiency of pure MPI (P = 16, four ranks per ES40 node) versus the
// hybrid scheme (P = 4 ranks, one per node, T = 4 threads each) on the
// Compaq cluster, as a function of granularity B/P, normalised to the MPI
// run at B/P = 1.
#pragma once

#include <sstream>
#include <vector>

#include "common.hpp"
#include "util/knob_cli.hpp"

namespace hdem::bench {

struct HybridFigureResult {
  // efficiency[rc][scheme] aligned with the bpp list
  std::vector<int> bpps;
};

inline int run_hybrid_granularity_bench(int argc, char** argv, int D,
                                        ReductionKind hybrid_reduction,
                                        const std::string& figure,
                                        const std::string& title,
                                        const std::string& shape_notes) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  RunKnobs knobs;
  knobs.reduction = hybrid_reduction;
  const auto bpps = declare_decomp_options(cli, knobs, {1, 2, 4, 8, 16, 32});
  declare_halo_options(cli, knobs);
  if (cli.finish()) return cli.exit_code();
  calibrate_platforms(ctx);
  const auto& machine = ctx.cpq;

  std::ostringstream out;
  out << "== " << title << " ==\n\n";
  Table t({"rc/rmax", "B/P", "MPI t (s)", "hybrid t (s)", "MPI eff",
           "hybrid eff", "hybrid lock frac"});
  AsciiPlot plot(title, "B/P", "efficiency vs MPI at B/P=1", 64, 18);
  plot.set_logx(true);
  for (double rcf : {1.5, 2.0}) {
    std::vector<double> xs, mpi_eff, hyb_eff;
    double t_ref = 0.0;
    for (const std::int64_t b : bpps) {
      const int bpp = static_cast<int>(b);
      // Pure MPI: 16 ranks packed four per node.
      perf::MeasureSpec mpi{knobs, {}};
      mpi.D = D;
      mpi.n = ctx.n_for(D);
      mpi.rc_factor = rcf;
      mpi.mode = perf::MeasureSpec::Mode::kMp;
      mpi.nprocs = 16;
      mpi.blocks_per_proc = bpp;
      mpi.iterations = ctx.iters;
      const double t_mpi =
          predict_paper_seconds(machine, perf::measure_run(mpi), 4);
      if (bpp == 1) t_ref = t_mpi;

      // Hybrid: 4 ranks (one per node) x 4 threads.
      perf::MeasureSpec hyb = mpi;
      hyb.mode = perf::MeasureSpec::Mode::kHybrid;
      hyb.nprocs = 4;
      hyb.nthreads = 4;
      const auto hyb_run = perf::measure_run(hyb);
      const double t_hyb = predict_paper_seconds(machine, hyb_run, 1);
      const double locks =
          static_cast<double>(hyb_run.agg.atomic_updates) /
          std::max<double>(1.0, static_cast<double>(
                                    hyb_run.agg.atomic_updates +
                                    hyb_run.agg.plain_updates));

      t.add_row({Table::num(rcf, 1), std::to_string(bpp),
                 Table::num(t_mpi, 3), Table::num(t_hyb, 3),
                 Table::num(t_ref / t_mpi, 2), Table::num(t_ref / t_hyb, 2),
                 Table::num(100.0 * locks, 0) + "%"});
      xs.push_back(bpp);
      mpi_eff.push_back(t_ref / t_mpi);
      hyb_eff.push_back(t_ref / t_hyb);
    }
    plot.add_series({"MPI rc=" + Table::num(rcf, 1), xs, mpi_eff});
    plot.add_series({"hybrid rc=" + Table::num(rcf, 1), xs, hyb_eff});
  }
  out << t.render() << "\n" << plot.render() << "\n" << shape_notes;
  emit(figure, out.str());
  return 0;
}

}  // namespace hdem::bench

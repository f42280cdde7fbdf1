// Figure 3 — "MPI performance vs number of blocks B for rc = 1.5 rmax":
// the cost of the block-cyclic load-balancing mechanism.  At a fixed large
// process count the number of blocks per process B/P is swept; in this
// load-balanced test system there is nothing to gain, so any change is
// pure overhead (except for residual cache effects — smaller blocks fit in
// cache, which shows up as the Sun's D = 2 uptick).
#include <sstream>

#include "common.hpp"
#include "util/knob_cli.hpp"

using namespace hdem;
using namespace hdem::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  RunKnobs knobs;
  const auto bpps = declare_decomp_options(cli, knobs, {1, 2, 4, 8, 16, 32});
  if (cli.finish()) return cli.exit_code();
  calibrate_platforms(ctx);

  struct Series {
    std::string platform;
    int nprocs;
  };
  const std::vector<Series> series = {{"Sun", 8}, {"T3E", 32}, {"CPQ", 16}};

  std::ostringstream out;
  out << "== Fig 3: MPI performance vs blocks per process B/P (rc=1.5, "
         "reordered) ==\n\n";
  Table t({"Platform", "D", "P", "B/P", "model t (s)",
           "perf vs B/P=1"});
  AsciiPlot plot("Fig 3: normalised performance vs granularity", "B/P",
                 "t(B/P=1) / t(B/P)", 64, 18);
  plot.set_logx(true);
  for (const auto& s : series) {
    const auto& machine = ctx.machine(s.platform);
    for (int D : {2, 3}) {
      std::vector<double> xs, ys;
      double t1 = 0.0;
      for (const std::int64_t b : bpps) {
        const int bpp = static_cast<int>(b);
        perf::MeasureSpec spec{knobs, {}};
        spec.D = D;
        spec.n = ctx.n_for(D);
        spec.rc_factor = 1.5;
        spec.mode = perf::MeasureSpec::Mode::kMp;
        spec.nprocs = s.nprocs;
        spec.blocks_per_proc = bpp;
        spec.iterations = ctx.iters;
        const auto m = perf::measure_run(spec);
        const double tp = predict_paper_seconds(
            machine, m, mpi_ranks_per_node(machine, s.nprocs));
        if (bpp == 1) t1 = tp;
        t.add_row({s.platform, std::to_string(D), std::to_string(s.nprocs),
                   std::to_string(bpp), Table::num(tp, 3),
                   Table::num(t1 / tp, 2)});
        xs.push_back(bpp);
        ys.push_back(t1 / tp);
      }
      plot.add_series({s.platform + " D=" + std::to_string(D), xs, ys});
    }
  }
  out << t.render() << "\n" << plot.render() << "\n";
  out << "Paper shape checks:\n"
      << "  - performance decreases with B/P (finer-grained parallelism\n"
      << "    costs more halo area and more messages), worst where\n"
      << "    communication crosses a real network (T3E, CPQ) and for D=3\n"
      << "  - Sun D=2 shows the residual cache effect: more blocks means\n"
      << "    smaller blocks that fit in cache\n";
  emit("fig3.txt", out.str());
  return 0;
}

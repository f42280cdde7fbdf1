// Table 1 — "Time per iteration (seconds) on P0 processors": the base
// serial time of the benchmark system (one million identical elastic
// spheres, uniform random order, no particle reordering) on the Sun HPC
// 3500, Cray T3E-900 and Compaq ES40.
//
// We run the real serial code (instrumented), calibrate the three
// platforms' kernel constants against Tables 1 AND 2 jointly, and report
// the model's reconstruction of Table 1 next to the paper's numbers.  The
// fit has 4 parameters per platform against 8 observations, so agreement
// is a meaningful consistency check, not an identity.
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

  std::ostringstream out;
  out << "== Table 1: time per iteration (s), 1M particles, random particle "
         "order ==\n\n";
  out << calibration_report(ctx);

  Table t({"Platform", "D", "rc/rmax", "paper (s)", "model (s)", "rel err",
           "host ms/iter (n=" + std::to_string(ctx.n3) + ")"});
  for (const auto& platform : {"Sun", "T3E", "CPQ"}) {
    for (auto [D, rcf] : {std::pair{2, 1.5}, {2, 2.0}, {3, 1.5}, {3, 2.0}}) {
      perf::MeasureSpec s;
      s.D = D;
      s.n = ctx.n_for(D);
      s.rc_factor = rcf;
      s.reorder = false;
      s.mode = perf::MeasureSpec::Mode::kSerial;
      s.iterations = ctx.iters;
      const auto m = perf::measure_run(s);
      const double model =
          predict_paper_seconds(ctx.machine(platform), m, 1);
      const double paper =
          perf::paper_serial_seconds(platform, D, rcf, /*reordered=*/false);
      t.add_row({platform, std::to_string(D), Table::num(rcf, 1),
                 Table::num(paper, 2), Table::num(model, 2),
                 Table::num(100.0 * (model - paper) / paper, 1) + "%",
                 Table::num(1e3 * m.host_seconds_per_iter(), 1)});
    }
  }
  out << t.render() << "\n";
  out << "Paper shape checks:\n"
      << "  - CPQ fastest, T3E slowest on every row (8-byte default\n"
      << "    integers load the T3E memory system; absorbed in its fitted\n"
      << "    t_pair/t_mem)\n"
      << "  - larger cutoff costs more everywhere, more in 3-D than 2-D\n";
  emit("table1.txt", out.str());
  return 0;
}

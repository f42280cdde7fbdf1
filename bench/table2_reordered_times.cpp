// Table 2 — "Time per iteration (seconds) with particle reordering": the
// Section 6.3 cache optimisation (cell-order permutation of the particles
// at every link-list rebuild) applied to the Table 1 system.
//
// The reordering is real: the measured link-gap histograms collapse, the
// model's cache-miss probability drops, and the predicted times fall by
// the same ~25-50% the paper reports.
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
  out << "== Table 2: time per iteration (s), 1M particles, cell-order "
         "particle reordering ==\n\n";

  Table t({"Platform", "D", "rc/rmax", "paper (s)", "model (s)", "rel err",
           "gain vs Table1 (paper)", "gain (model)"});
  for (const auto& platform : {"Sun", "T3E", "CPQ"}) {
    for (auto [D, rcf] : {std::pair{2, 1.5}, {2, 2.0}, {3, 1.5}, {3, 2.0}}) {
      perf::MeasureSpec s;
      s.D = D;
      s.n = ctx.n_for(D);
      s.rc_factor = rcf;
      s.reorder = true;
      s.mode = perf::MeasureSpec::Mode::kSerial;
      s.iterations = ctx.iters;
      const auto m = perf::measure_run(s);

      perf::MeasureSpec s_random = s;
      s_random.reorder = false;
      const auto m_random = perf::measure_run(s_random);

      const auto& machine = ctx.machine(platform);
      const double model = predict_paper_seconds(machine, m, 1);
      const double model_random =
          predict_paper_seconds(machine, m_random, 1);
      const double paper = perf::paper_serial_seconds(platform, D, rcf, true);
      const double paper_random =
          perf::paper_serial_seconds(platform, D, rcf, false);
      t.add_row(
          {platform, std::to_string(D), Table::num(rcf, 1),
           Table::num(paper, 2), Table::num(model, 2),
           Table::num(100.0 * (model - paper) / paper, 1) + "%",
           Table::num(100.0 * (1.0 - paper / paper_random), 0) + "%",
           Table::num(100.0 * (1.0 - model / model_random), 0) + "%"});
    }
  }
  out << t.render() << "\n";
  out << "Paper shape checks:\n"
      << "  - reordering helps everywhere; \"performance increases of up to\n"
      << "    30% on the Sun and T3E, and 50% on the Compaq\"\n";
  emit("table2.txt", out.str());
  return 0;
}

// Section 9.3 — the measured fraction of force updates that require an
// atomic lock in the hybrid scheme, as a function of granularity.  "We see
// a steep increase with B in the total number of atomic locks required
// during the force calculation, rising to around 50% at the finest
// granularity for D = 3.  For D = 2, however, the maximum is around 25%."
//
// This is a pure measurement of the real code (no model): the conflict
// table marks a particle shared when links of more than one thread touch
// it, and blocks shrink as B grows.
#include <map>
#include <sstream>

#include "common.hpp"

using namespace hdem;
using namespace hdem::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  if (cli.finish()) return cli.exit_code();

  const std::vector<int> bpps = {1, 2, 4, 8, 16, 32};

  std::ostringstream out;
  out << "== Ablation: measured lock fraction vs granularity (hybrid P=4, "
         "T=4, rc=1.5) ==\n\n";
  Table t({"D", "B/P", "atomic updates", "plain updates", "lock fraction"});
  AsciiPlot plot("Lock fraction vs B/P (paper: ~25% D=2, ~50% D=3 at finest)",
                 "B/P", "locked fraction of force updates", 60, 14);
  plot.set_logx(true);
  std::map<int, double> finest;
  for (int D : {2, 3}) {
    std::vector<double> xs, ys;
    for (int bpp : bpps) {
      perf::MeasureSpec s;
      s.D = D;
      s.n = ctx.n_for(D);
      s.rc_factor = 1.5;
      s.mode = perf::MeasureSpec::Mode::kHybrid;
      s.nprocs = 4;
      s.nthreads = 4;
      s.blocks_per_proc = bpp;
      s.reduction = ReductionKind::kSelectedAtomic;
      s.iterations = ctx.iters;
      const auto run = perf::measure_run(s);
      const double frac =
          static_cast<double>(run.agg.atomic_updates) /
          std::max<double>(1.0, static_cast<double>(run.agg.atomic_updates +
                                                    run.agg.plain_updates));
      t.add_row({std::to_string(D), std::to_string(bpp),
                 std::to_string(run.agg.atomic_updates),
                 std::to_string(run.agg.plain_updates),
                 Table::num(100.0 * frac, 1) + "%"});
      xs.push_back(bpp);
      ys.push_back(frac);
      finest[D] = frac;
    }
    plot.add_series({"D=" + std::to_string(D), xs, ys});
  }
  out << t.render() << "\n" << plot.render() << "\n";
  out << "Paper shape checks:\n"
      << "  - the fraction rises steeply with B/P for both dimensionalities\n"
      << "  - D=3 tops out roughly twice as high as D=2 (paper: ~50% vs\n"
      << "    ~25%); measured finest-granularity values here: D=2 "
      << Table::num(100.0 * finest[2], 0) << "%, D=3 "
      << Table::num(100.0 * finest[3], 0) << "%\n";
  emit("ablation_lock_fraction.txt", out.str());
  return 0;
}

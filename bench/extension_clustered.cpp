// Extension — the experiment the paper's whole framework points at but
// never runs: a genuinely *clustered* simulation (all particles settled
// into the bottom half of the box), where a coarse block distribution
// leaves most processes idle.  The paper benchmarks a load-balanced system
// and predicts the overheads; here we close the loop and let the measured
// per-rank counters drive an imbalance-aware prediction:
//
//   t(config) = max over ranks of the rank's own predicted compute /
//               memory / lock / sync time + the (balanced) comm estimate.
//
// The question from Section 9.1: "Is it more efficient to improve load
// balance by using MPI with finer granularity, or to use OpenMP to load
// balance across CPUs within the same SMP?"
#include <algorithm>
#include <sstream>

#include "common.hpp"
#include "util/knob_cli.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

struct ImbalancedPrediction {
  double seconds = 0.0;     // slowest rank + comm
  double load_ratio = 0.0;  // max/mean per-rank force evaluations
};

ImbalancedPrediction predict_imbalanced(const perf::MachineSpec& machine,
                                        const perf::RunMeasurement& run,
                                        int ranks_per_node) {
  const auto layout =
      perf::paper_scale_layout(run, ranks_per_node, perf::kPaperParticles);
  ImbalancedPrediction out;
  double worst = 0.0, total_evals = 0.0, max_evals = 0.0;
  for (const auto& rank_counters : run.per_rank) {
    perf::RunMeasurement one = run;  // copies the workload and knobs
    one.per_rank.clear();
    one.bytes_matrix.clear();
    one.msgs_matrix.clear();
    one.knobs.nprocs = 1;
    one.agg = rank_counters;
    worst = std::max(worst,
                     perf::CostModel::predict(machine, one, layout).total());
    const auto evals = static_cast<double>(rank_counters.force_evals);
    total_evals += evals;
    max_evals = std::max(max_evals, evals);
  }
  // Communication is latency/bandwidth on shared resources; approximate it
  // with the balanced per-rank estimate.
  out.seconds = worst + perf::CostModel::predict(machine, run, layout).comm;
  const double mean_evals =
      total_evals / static_cast<double>(run.per_rank.size());
  out.load_ratio = mean_evals > 0.0 ? max_evals / mean_evals : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchContext ctx;
  declare_common_options(cli, ctx);
  const double fraction =
      cli.real("cluster", 0.5, "fraction of the box holding all particles");
  RunKnobs knobs;
  const auto bpps = declare_decomp_options(cli, knobs, {1, 2, 4, 8, 16, 32});
  if (cli.finish()) return cli.exit_code();
  calibrate_platforms(ctx);
  const auto& machine = ctx.cpq;

  std::ostringstream out;
  out << "== Extension: clustered workload (particles in the bottom "
      << Table::num(100 * fraction, 0)
      << "% of the box), Compaq cluster, D=2 ==\n   MPI P=16 (4 ranks/node) "
         "vs hybrid P=4 x T=4 (threads auto-balance within the node)\n\n";
  Table t({"B/P", "MPI load max/mean", "MPI t (s)", "hyb load max/mean",
           "hybrid t (s)", "fused t (s)"});
  AsciiPlot plot("Clustered system: time to solution vs granularity", "B/P",
                 "predicted s/iteration", 64, 16);
  plot.set_logx(true);
  std::vector<double> xs, mpi_t, hyb_t, fus_t;
  double best_mpi = 1e300, best_hyb = 1e300, best_fus = 1e300;
  int best_mpi_bpp = 0, best_hyb_bpp = 0, best_fus_bpp = 0;
  for (const std::int64_t b : bpps) {
    const int bpp = static_cast<int>(b);
    perf::MeasureSpec mpi{knobs, {}};
    mpi.D = 2;
    mpi.n = ctx.n_for(2);
    mpi.rc_factor = 1.5;
    mpi.mode = perf::MeasureSpec::Mode::kMp;
    mpi.nprocs = 16;
    mpi.blocks_per_proc = bpp;
    mpi.scenario = Scenario::kClustered;
    mpi.cluster_fraction = fraction;
    mpi.iterations = ctx.iters;
    // An adaptive run must cross a list rebuild to adopt its table; give
    // it a longer settling window (see bench/fig11_clustered_balance for
    // the direct static-vs-adaptive wall-clock comparison).
    if (knobs.rebalance) mpi.warmup = 20;
    const auto pm = predict_imbalanced(machine, perf::measure_run(mpi), 4);

    perf::MeasureSpec hyb = mpi;
    hyb.mode = perf::MeasureSpec::Mode::kHybrid;
    hyb.nprocs = 4;
    hyb.nthreads = 4;
    const auto ph = predict_imbalanced(machine, perf::measure_run(hyb), 1);

    perf::MeasureSpec fus = hyb;
    fus.fused = true;
    const auto pf = predict_imbalanced(machine, perf::measure_run(fus), 1);

    t.add_row({std::to_string(bpp), Table::num(pm.load_ratio, 2),
               Table::num(pm.seconds, 3), Table::num(ph.load_ratio, 2),
               Table::num(ph.seconds, 3), Table::num(pf.seconds, 3)});
    xs.push_back(bpp);
    mpi_t.push_back(pm.seconds);
    hyb_t.push_back(ph.seconds);
    fus_t.push_back(pf.seconds);
    if (pm.seconds < best_mpi) { best_mpi = pm.seconds; best_mpi_bpp = bpp; }
    if (ph.seconds < best_hyb) { best_hyb = ph.seconds; best_hyb_bpp = bpp; }
    if (pf.seconds < best_fus) { best_fus = pf.seconds; best_fus_bpp = bpp; }
  }
  plot.add_series({"MPI P=16", xs, mpi_t});
  plot.add_series({"hybrid", xs, hyb_t});
  plot.add_series({"hybrid fused", xs, fus_t});
  out << t.render() << "\n" << plot.render() << "\n";
  out << "Best time to solution:\n"
      << "  MPI    " << Table::num(best_mpi, 3) << " s at B/P=" << best_mpi_bpp
      << "\n"
      << "  hybrid " << Table::num(best_hyb, 3) << " s at B/P=" << best_hyb_bpp
      << "\n"
      << "  fused  " << Table::num(best_fus, 3) << " s at B/P=" << best_fus_bpp
      << "\n\n"
      << "Reading: a clustered system makes coarse MPI dreadful (idle\n"
      << "ranks), so every scheme improves with granularity until the\n"
      << "overheads of Figure 3 bite.  The hybrid schemes only need load\n"
      << "balance *between nodes* (threads level the work within a node),\n"
      << "so they reach their optimum at coarser B/P — the paper's Section\n"
      << "9.1 intuition.  Whether they also win outright depends on the\n"
      << "thread-level overheads the paper measured (the per-block hybrid\n"
      << "usually does not; the Section 11 fused variant comes closest).\n";
  emit("extension_clustered.txt", out.str());
  return 0;
}

// Figure 11 (extension) — cost-driven adaptive block remapping and
// deterministic work stealing on a clustered workload.  The paper
// load-balances only statically ("by adjusting the granularity
// appropriately"); when the cluster's spatial period is coarser than the
// process grid the cyclic mod mapping leaves whole ranks idle, and no
// granularity fixes that.  This bench runs the settled-sand workload
// (all particles in the bottom quarter of the box) through four schemes —
// static, work stealing, adaptive remapping, and both — and reports:
//
//   - the steady-state critical path: max over ranks of force evaluations
//     per step.  On a P-node machine the step time is proportional to the
//     slowest rank, so this is the machine-independent step-time metric
//     (host wall seconds are also recorded, but on an oversubscribed or
//     single-CPU host they measure total work, not the critical path);
//   - the measured per-block and per-thread cost imbalance counters;
//   - the defining correctness property: 120-step trajectories are
//     bit-identical across all four schemes at every team size, because
//     remapping changes who computes and stealing changes which thread
//     computes, but never what is computed or in which order it is
//     accumulated.  The process exits nonzero if any hash differs.
#include <algorithm>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "driver/mp_sim.hpp"
#include "util/timer.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

struct SchemeSpec {
  const char* name;
  bool steal;
  bool rebalance;
};

constexpr SchemeSpec kSchemes[] = {
    {"static", false, false},
    {"steal", true, false},
    {"rebalance", false, true},
    {"steal+rebalance", true, true},
};

template <int D>
typename MpSim<D>::Options scheme_options(const SchemeSpec& s, int threads) {
  typename MpSim<D>::Options opts;
  opts.nthreads = threads;
  opts.reduction = ReductionKind::kColored;
  opts.steal = s.steal;
  opts.rebalance = s.rebalance;
  return opts;
}

struct TimedResult {
  double host_s_per_step = 0.0;    // max over ranks (wall clock)
  double critical_evals = 0.0;     // max over ranks, per step
  double load_ratio = 0.0;         // max/mean per-rank force evals
  double block_imbalance = 0.0;    // worst rank's measured block-cost ratio
  double thread_imbalance = 0.0;   // worst rank's measured thread-cost ratio
  std::uint64_t rebalances = 0;
  std::uint64_t blocks_reassigned = 0;
};

template <int D>
TimedResult time_scheme(const SimConfig<D>& cfg,
                        const std::vector<ParticleInit<D>>& init, int nprocs,
                        int bpp, const SchemeSpec& scheme, int threads,
                        std::uint64_t warmup, std::uint64_t iters) {
  const auto layout = DecompLayout<D>::make(nprocs, bpp);
  const auto opts = scheme_options<D>(scheme, threads);
  TimedResult out;
  std::mutex mu;
  mp::run(nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    // Warm up past at least one list rebuild so an adaptive run has a
    // measured cost vector and a chance to adopt its table; the explicit
    // mid-warmup rebuild makes that deterministic even for short windows.
    sim.run(warmup / 2);
    sim.rebuild();
    sim.run(warmup - warmup / 2);
    const Counters before = sim.counters();
    comm.barrier();
    const Timer t;
    sim.run(iters);
    const double el = t.seconds();
    const Counters after = sim.counters();
    const auto d = counters_delta(after, before);
    const double evals =
        static_cast<double>(d.force_evals) / static_cast<double>(iters);
    const double el_max = comm.allreduce(el, mp::Op::kMax);
    const double ev_max = comm.allreduce(evals, mp::Op::kMax);
    const double ev_sum = comm.allreduce(evals, mp::Op::kSum);
    {
      const std::lock_guard<std::mutex> lock(mu);
      out.block_imbalance =
          std::max(out.block_imbalance, after.block_imbalance());
      out.thread_imbalance =
          std::max(out.thread_imbalance, after.thread_imbalance());
      out.rebalances = std::max(out.rebalances, after.rebalances);
      out.blocks_reassigned =
          std::max(out.blocks_reassigned, after.blocks_reassigned);
    }
    if (comm.rank() != 0) return;
    out.host_s_per_step = el_max / static_cast<double>(iters);
    out.critical_evals = ev_max;
    const double mean = ev_sum / nprocs;
    out.load_ratio = mean > 0.0 ? ev_max / mean : 0.0;
  });
  return out;
}

template <int D>
std::uint64_t trajectory_hash(const SimConfig<D>& cfg,
                              const std::vector<ParticleInit<D>>& init,
                              int nprocs, int bpp, const SchemeSpec& scheme,
                              int threads, int steps) {
  const auto layout = DecompLayout<D>::make(nprocs, bpp);
  const auto opts = scheme_options<D>(scheme, threads);
  std::uint64_t hash = 0;
  mp::run(nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    auto state = sim.gather_state();
    if (comm.rank() == 0) hash = trajectory_digest<D>(std::move(state));
  });
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = static_cast<std::uint64_t>(
      cli.integer("n", 20'000, "particles for the timed comparison"));
  const double fraction = cli.real(
      "cluster", 0.25, "fraction of the box holding all particles");
  const auto nprocs =
      static_cast<int>(cli.integer("procs", 4, "MPI ranks"));
  const auto threads =
      static_cast<int>(cli.integer("threads", 4, "threads per rank"));
  const auto bpp = static_cast<int>(
      cli.integer("blocks-per-proc", 4, "blocks per process"));
  const auto warmup = static_cast<std::uint64_t>(cli.integer(
      "warmup", 40, "settling steps before the timed window"));
  const auto iters = static_cast<std::uint64_t>(
      cli.integer("iters", 30, "steady-state steps per measurement"));
  const auto traj_n = static_cast<std::uint64_t>(cli.integer(
      "traj-n", 2'000, "particles for the bit-identity trajectory check"));
  const auto traj_steps = static_cast<int>(
      cli.integer("traj-steps", 120, "steps for the trajectory check"));
  if (cli.finish()) return cli.exit_code();

  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 4242;
  cfg.velocity_scale = 0.8;  // rebuilds + migrations inside the window
  const auto init = clustered_particles(cfg, n, fraction);

  std::ostringstream out;
  out << "== Fig 11: clustered workload, static vs adaptive distribution "
         "(P=" << nprocs << ", T=" << threads << ", B/P=" << bpp
      << ", cluster=" << Table::num(100 * fraction, 0) << "% of the box) ==\n\n";
  Table t({"scheme", "max evals/step", "load max/mean", "block imb",
           "thread imb", "rebalances", "host ms/step"});
  std::ostringstream json;
  json << "{\n  \"n\": " << n << ",\n  \"cluster_fraction\": " << fraction
       << ",\n  \"nprocs\": " << nprocs << ",\n  \"nthreads\": " << threads
       << ",\n  \"blocks_per_proc\": " << bpp
       << ",\n  \"warmup\": " << warmup << ",\n  \"iters\": " << iters
       << ",\n  \"step_time_metric\": \"max_rank_force_evals_per_step\""
       << ",\n  \"schemes\": [";
  double static_critical = 0.0, adaptive_critical = 0.0;
  bool first = true;
  for (const auto& s : kSchemes) {
    const auto r =
        time_scheme<2>(cfg, init, nprocs, bpp, s, threads, warmup, iters);
    if (!s.steal && !s.rebalance) static_critical = r.critical_evals;
    if (!s.steal && s.rebalance) adaptive_critical = r.critical_evals;
    t.add_row({s.name, Table::num(r.critical_evals, 0),
               Table::num(r.load_ratio, 2), Table::num(r.block_imbalance, 2),
               Table::num(r.thread_imbalance, 2),
               std::to_string(r.rebalances),
               Table::num(r.host_s_per_step * 1e3, 2)});
    json << (first ? "" : ",") << "\n    {\"scheme\": \"" << s.name
         << "\", \"steal\": " << (s.steal ? "true" : "false")
         << ", \"rebalance\": " << (s.rebalance ? "true" : "false")
         << ", \"critical_evals_per_step\": " << r.critical_evals
         << ", \"load_ratio\": " << r.load_ratio
         << ", \"block_imbalance\": " << r.block_imbalance
         << ", \"thread_imbalance\": " << r.thread_imbalance
         << ", \"rebalances\": " << r.rebalances
         << ", \"blocks_reassigned\": " << r.blocks_reassigned
         << ", \"host_seconds_per_step\": " << r.host_s_per_step << "}";
    first = false;
  }
  const double speedup =
      adaptive_critical > 0.0 ? static_critical / adaptive_critical : 0.0;
  out << t.render() << "\n";
  out << "Steady-state step-time improvement (critical path, static / "
         "rebalanced): "
      << Table::num(speedup, 2) << "x\n\n";

  // Bit-identity: every scheme, every team size, the same trajectory.
  out << "Trajectory bit-identity across schemes and team sizes {1, 2, 4} ("
      << traj_n << " particles, " << traj_steps << " steps):\n";
  json << "\n  ],\n  \"speedup_static_over_rebalanced\": " << speedup
       << ",\n  \"trajectory_identity\": [";
  SimConfig<2> tcfg = cfg;
  tcfg.seed = 777;
  const auto tinit = clustered_particles(tcfg, traj_n, fraction);
  std::uint64_t ref = 0;
  bool all_identical = true;
  bool first_traj = true;
  for (const auto& s : kSchemes) {
    for (const int T : {1, 2, 4}) {
      const std::uint64_t h =
          trajectory_hash<2>(tcfg, tinit, nprocs, bpp, s, T, traj_steps);
      if (first_traj) ref = h;
      const bool identical = h == ref;
      all_identical = all_identical && identical;
      out << "  " << s.name << " T=" << T << " -> "
          << (identical ? "bit-identical" : "MISMATCH") << "\n";
      json << (first_traj ? "" : ",") << "\n    {\"scheme\": \"" << s.name
           << "\", \"nthreads\": " << T << ", \"hash\": \"" << std::hex << h
           << std::dec << "\", \"identical\": "
           << (identical ? "true" : "false") << "}";
      first_traj = false;
    }
  }
  json << "\n  ],\n  \"all_identical\": "
       << (all_identical ? "true" : "false") << "\n}\n";
  out << "\nShape checks:\n"
      << "  - static leaves the ranks outside the cluster's rows nearly\n"
      << "    idle (load max/mean well above 1); the rebalanced schemes\n"
      << "    bring the ratio close to 1 and cut the critical path\n"
      << "  - stealing levels the per-thread cost within a rank but cannot\n"
      << "    move work between ranks; remapping does the opposite — the\n"
      << "    combined scheme addresses both levels, mirroring the paper's\n"
      << "    two-level MPI x OpenMP argument\n"
      << "  - every trajectory hash agrees: the adaptive machinery changes\n"
      << "    where work runs, never the physics\n";
  perf::save_artifact("BENCH_loadbalance.json", json.str());
  out << "Per-scheme results written to results/BENCH_loadbalance.json\n";
  emit("fig11.txt", out.str());
  return all_identical ? 0 : 1;
}

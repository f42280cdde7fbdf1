// Section 9.3 — the EPCC-style synchronisation microbenchmark (the
// paper's reference [10]) applied to this library's thread-team runtime,
// plus the paper's back-of-envelope: synchronisation costs per block per
// iteration are tens of microseconds, i.e. a couple of milliseconds per
// iteration even at B/P = 32 — a couple of percent, NOT the source of the
// hybrid slowdown.
//
// Also measures the threaded force pass itself for every reduction
// strategy (including the conflict-free colored schedule) and records the
// per-strategy times in results/BENCH_reduction.json for the perf
// trajectory.
#include <chrono>
#include <sstream>

#include "common.hpp"
#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/init.hpp"
#include "perf/microbench.hpp"
#include "reduction/force_pass.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

// The kernels_gbench 3D benchmark system (cell-ordered, periodic).
struct ForceSystem {
  SimConfig<3> cfg;
  Boundary<3> bc;
  ParticleStore<3> store;
  CellGrid<3> grid;
  LinkList list;

  explicit ForceSystem(std::uint64_t n) {
    cfg.box = Vec<3>(SimConfig<3>::paper_box_edge(n));
    bc = Boundary<3>(cfg.bc, cfg.box);
    for (const auto& p : uniform_random_particles(cfg, n)) {
      store.push_back(p.pos, p.vel);
    }
    std::array<bool, 3> wrap{};
    wrap.fill(true);
    grid.configure(Vec<3>{}, cfg.box, cfg.cutoff(), wrap);
    grid.bin(store.positions(), store.size());
    store.apply_permutation(grid.order(), store.size());
    grid.reset_order_to_identity();
    smp::ThreadTeam team(1);
    FusedBuildScratch scratch;
    build_links_fused(list, grid, store.cpositions(), store.size(),
                      cfg.cutoff(), bc.pair_disp(), team, scratch);
  }
};

// Mean seconds per force pass (one warm-up pass, then timed passes until
// ~0.2 s of work or the pass cap is reached).
double time_force_pass(ForceSystem& sys, ReductionKind kind, int threads) {
  smp::ThreadTeam team(threads);
  auto acc = make_accumulator<3>(kind);
  prepare_accumulator<3>(acc, threads, sys.list, sys.store.size());
  const ElasticSphere model{sys.cfg.stiffness, sys.cfg.diameter};
  auto disp = [&](const Vec<3>& a, const Vec<3>& b) {
    return sys.bc.displacement(a, b);
  };
  double pe = dispatch_force_pass<3>(acc, team, sys.list, sys.store, model,
                                     disp);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  int passes = 0;
  double elapsed = 0.0;
  while (elapsed < 0.2 && passes < 50) {
    pe += dispatch_force_pass<3>(acc, team, sys.list, sys.store, model, disp);
    ++passes;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  }
  // Keep the accumulated potential energy alive so the passes cannot be
  // optimised out.
  volatile double sink = pe;
  (void)sink;
  return elapsed / passes;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto reps = cli.integer("reps", 2000, "repetitions per primitive");
  const auto threads =
      cli.integer_list("threads", {1, 2, 4}, "team sizes to measure");
  const auto n = cli.integer("n", 20000, "particles for the force-pass sweep");
  std::vector<std::string> strategy_names = {"all"};
  for (const ReductionKind k : kAllReductionKinds) {
    strategy_names.push_back(to_string(k));
  }
  const auto only = cli.choice("reduction", "all", strategy_names,
                               "restrict the force-pass sweep to one strategy");
  if (cli.finish()) return cli.exit_code();

  std::ostringstream out;
  out << "== Sync-overhead microbenchmarks (this host's thread-team "
         "runtime) ==\n\n";
  Table t({"threads", "fork+join (us)", "parallel_for (us)", "barrier (us)",
           "critical (us)", "atomic add (ns)"});
  perf::SyncOverheads quad{};
  for (const auto T : threads) {
    const auto o =
        perf::measure_sync_overheads(static_cast<int>(T), static_cast<int>(reps));
    if (T == 4) quad = o;
    t.add_row({std::to_string(T), Table::num(o.fork_join * 1e6, 2),
               Table::num(o.parallel_for * 1e6, 2),
               Table::num(o.barrier * 1e6, 2),
               Table::num(o.critical * 1e6, 2),
               Table::num(o.atomic_add * 1e9, 1)});
  }
  out << t.render() << "\n";

  // The paper's estimate: regions + barriers per block per iteration.
  // Our hybrid force pass costs 2 regions (force, update) and 1 barrier
  // per block per iteration with the selected-atomic strategy.
  // Measured vector-kernel throughput at the active ISA; the generic-host
  // spec records the gain so cost-model predictions track the vectorized
  // kernel, and the machine report names the ISA the kernels dispatch to.
  const auto kt = perf::measure_kernel_throughput();
  out << "Vector kernel throughput: " << perf::format(kt) << "\n";
  perf::MachineSpec host = perf::generic_host();
  perf::apply_kernel_throughput(host, kt);
  out << perf::machine_report(host) << "\n\n";

  const double per_block = perf::per_block_sync_cost(quad, 2.0, 1.0);
  out << "Per-block-per-iteration sync cost on this host (T=4): "
      << Table::num(per_block * 1e6, 1) << " us\n"
      << "Paper's estimate on the Compaq: ~"
      << Table::num(perf::kPaperSyncPerBlockSeconds * 1e6, 0) << " us\n"
      << "At B/P = 32 that is " << Table::num(per_block * 32.0 * 1e3, 2)
      << " ms/iteration here (paper: \"a couple of milliseconds\"),\n"
      << "against >100 ms force loops — a couple of percent.  Conclusion\n"
      << "matches the paper: parallel-loop overheads are NOT the major\n"
      << "cause of the hybrid code's poor performance; the force-update\n"
      << "conflicts are (see ablation_lock_fraction).\n\n";

  // -- per-strategy force-pass times ---------------------------------------
  // The direct comparison the colored strategy exists for: all seven
  // strategies on one link list, the same pass the drivers run.  The
  // nolock row computes wrong forces above one thread; it is the
  // free-atomic bound from Section 9.3.
  ForceSystem sys(static_cast<std::uint64_t>(n));
  out << "== Threaded force pass by reduction strategy (n=" << n
      << ", 3D, cell-ordered) ==\n\n";
  Table ft({"strategy", "T", "t/pass (ms)", "vs selected-atomic"});
  std::ostringstream json;
  json << "{\n  \"n\": " << n << ",\n  \"links\": " << sys.list.size()
       << ",\n  \"results\": [";
  bool first = true;
  for (const auto T : threads) {
    double t_sel = 0.0;
    for (const ReductionKind kind : kAllReductionKinds) {
      if (only != "all" && only != to_string(kind)) continue;
      const double sec = time_force_pass(sys, kind, static_cast<int>(T));
      if (kind == ReductionKind::kSelectedAtomic) t_sel = sec;
      ft.add_row({to_string(kind), std::to_string(T),
                  Table::num(sec * 1e3, 3),
                  t_sel > 0.0 ? Table::num(sec / t_sel, 2) + "x" : "-"});
      json << (first ? "" : ",") << "\n    {\"strategy\": \""
           << to_string(kind) << "\", \"threads\": " << T
           << ", \"seconds_per_pass\": " << sec << "}";
      first = false;
    }
  }
  json << "\n  ]\n}\n";
  out << ft.render() << "\n";
  perf::save_artifact("BENCH_reduction.json", json.str());
  out << "Per-strategy force-pass times written to "
         "results/BENCH_reduction.json\n";

  emit("microbench_sync.txt", out.str());
  return 0;
}

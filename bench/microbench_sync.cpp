// Section 9.3 — the EPCC-style synchronisation microbenchmark (the
// paper's reference [10]) applied to this library's thread-team runtime,
// and the paper's back-of-envelope redone with measured counts: the team
// regions and barriers a 2 x 2 hybrid run makes per block per step on
// perfbench's hot2d workload, priced at the measured per-episode costs.
// The paper put this at about 50 us per block per iteration against
// >100 ms force loops; here the step is milliseconds, so the share is
// printed rather than assumed.
//
// Also measures the threaded force pass itself for every reduction
// strategy (including the conflict-free colored schedule) and records the
// per-strategy times in results/BENCH_reduction.json for the perf
// trajectory.
#include <chrono>
#include <mutex>
#include <sstream>

#include "common.hpp"
#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/init.hpp"
#include "driver/mp_sim.hpp"
#include "perf/microbench.hpp"
#include "reduction/force_pass.hpp"
#include "util/timer.hpp"

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

// Team synchronisation counts of one 2 x 2 scheme on perfbench's hot2d
// workload: 2-D paper density, n = 32768, rc = 1.5 d, speed 12, P = 2
// ranks of 8 blocks, T = 2, colored reduction, skin 0, seed 1.
struct SchemeSync {
  const char* name = "";
  double regions_per_block = 0.0;   // per block per step
  double barriers_per_block = 0.0;  // per block per step
  double step_s = 0.0;              // wall time per step of the window
};

constexpr int kHotProcs = 2;
constexpr int kHotBlocksPerProc = 8;

// Counts are exact (they match perfbench's smp.regions_per_step and
// smp.barriers_per_step over the same steps, divided by the blocks); the
// step time is one short window after a 3-step warm-up, a scale only.
SchemeSync hot2d_sync(const char* name, bool fused, std::uint64_t steps) {
  Workload w;
  w.D = 2;
  w.n = 32768;
  w.rc_factor = 1.5;
  w.velocity_scale = 12.0;
  SimConfig<2> cfg = workload_config<2>(w, ListKnobs{});
  cfg.seed = 1;
  const auto init = workload_particles<2>(cfg, w);
  MpSim<2>::Options opts;
  opts.nthreads = 2;
  opts.reduction = ReductionKind::kColored;
  opts.fused = fused;
  const auto layout = DecompLayout<2>::make(kHotProcs, kHotBlocksPerProc);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  const double block_steps =
      static_cast<double>(steps) * kHotProcs * kHotBlocksPerProc;
  SchemeSync out;
  out.name = name;
  std::mutex mu;
  mp::run(kHotProcs, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm, model, init, opts);
    sim.run(3);
    comm.barrier();
    const Counters before = sim.counters();
    const Timer t;
    sim.run(steps);
    comm.barrier();
    const double secs = t.seconds();
    const Counters after = sim.counters();
    std::lock_guard<std::mutex> lock(mu);
    out.regions_per_block +=
        static_cast<double>(after.parallel_regions - before.parallel_regions) /
        block_steps;
    out.barriers_per_block +=
        static_cast<double>(after.barriers - before.barriers) / block_steps;
    if (comm.rank() == 0) out.step_s = secs / static_cast<double>(steps);
  });
  return out;
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
         "runtime; best of interleaved rounds) ==\n\n";
  Table t({"threads", "fork+join (us)", "parallel_for (us)", "barrier (us)",
           "critical (us)", "atomic add (ns)"});
  std::vector<perf::SyncOverheads> costs;
  for (const auto T : threads) {
    const auto o =
        perf::measure_sync_overheads(static_cast<int>(T), static_cast<int>(reps));
    costs.push_back(o);
    t.add_row({std::to_string(T), Table::num(o.fork_join * 1e6, 2),
               Table::num(o.parallel_for * 1e6, 2),
               Table::num(o.barrier * 1e6, 2),
               Table::num(o.critical * 1e6, 2),
               Table::num(o.atomic_add * 1e9, 1)});
  }
  out << t.render() << "\n";

  // Measured vector-kernel throughput at the active ISA, and the host it
  // ran on.
  const auto kt = perf::measure_kernel_throughput();
  out << "Vector kernel throughput: " << perf::format(kt) << "\n";
  out << perf::host_report() << "\n\n";

  // The paper's estimate, with the region and barrier counts of real 2 x 2
  // runs in place of an assumed count, priced at each measured T > 1 (the
  // paper's nodes ran T = 4).  The share of the step is given at the T = 2
  // the schemes run.  An empty region prices a fork whose workers are
  // still spinning; a fork that finds them parked costs more.
  const SchemeSync schemes[] = {hot2d_sync("hybrid2x2", false, 40),
                                hot2d_sync("fused2x2", true, 40)};
  out << "== Team sync per block per step, hot2d 2 x 2 (n=32768, "
      << kHotProcs * kHotBlocksPerProc << " blocks) ==\n\n";
  Table st({"scheme", "regions/block", "barriers/block", "step (ms)", "T",
            "sync/block (us)", "sync share of step"});
  for (const auto& sc : schemes) {
    for (const auto& o : costs) {
      if (o.threads < 2) continue;
      const double per_block = perf::per_block_sync_cost(
          o, sc.regions_per_block, sc.barriers_per_block);
      const double share = per_block * kHotBlocksPerProc / sc.step_s;
      st.add_row({sc.name, Table::num(sc.regions_per_block, 2),
                  Table::num(sc.barriers_per_block, 2),
                  Table::num(sc.step_s * 1e3, 2), std::to_string(o.threads),
                  Table::num(per_block * 1e6, 1),
                  o.threads == 2 ? Table::num(share * 100.0, 1) + "%" : "-"});
    }
  }
  out << st.render() << "\n"
      << "Paper's estimate on the Compaq: ~"
      << Table::num(perf::kPaperSyncPerBlockSeconds * 1e6, 0)
      << " us per block per iteration, against >100 ms force loops.\n\n";

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

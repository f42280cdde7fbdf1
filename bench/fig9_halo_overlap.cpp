// Figure 9 (extension) — nonblocking halo exchange: how much of the halo
// swap hides behind core-link forces.  The paper's halo swaps are fully
// synchronous ("a series of matched sendrecv calls"); the overlapped
// schedule posts dimension-0 receives before the core-link force pass and
// drains them after, so a message only costs wall-clock time when it is
// still in flight once the core work runs out ("exposed").  This bench
// measures the real host, not the cost model: per-step time and the
// runtime's own overlapped/exposed byte split, swept over rank count and
// blocks per process for both schedules.
// The second half of the bench measures the zero-copy shared-window halo
// path (same-node ranks gather halos from the neighbour's published
// boundary slice) against the wire path: a bit-identity gate over full
// trajectories for every node packing and team size, a byte-conservation
// check, and the halo-exchange speedup.  The speedup follows the repo's
// standard recipe — measured operation counts priced by the calibrated
// cost model on the paper's SMP-cluster machine — because host wall time
// cannot see the win on an oversubscribed box: with more ranks than CPUs
// the halo phase measures scheduler interleaving, not transport (the wire
// path parks skew in the uncounted collective phase; the window fence
// absorbs it in the counted one).  Measured wall phases are still
// reported alongside.  Results land in results/BENCH_halo_sharedmem.json;
// any identity, conservation, or modeled-speedup failure makes the bench
// exit nonzero.
#include <cstdio>
#include <mutex>
#include <sstream>

#include "common.hpp"
#include "driver/mp_sim.hpp"
#include "trace/tracer.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

struct Config {
  int D;
  int nprocs;
  int bpp;
};

// Best-of-reps measurement: host timing on a shared machine is noisy and
// the minimum is the least-contended run.
perf::RunMeasurement measure_best(const perf::MeasureSpec& spec, int reps) {
  perf::RunMeasurement best = perf::measure_run(spec);
  for (int r = 1; r < reps; ++r) {
    perf::RunMeasurement m = perf::measure_run(spec);
    if (m.host_seconds < best.host_seconds) best = std::move(m);
  }
  return best;
}

double exposed_fraction(const perf::RunMeasurement& run) {
  const double ov = static_cast<double>(run.agg.bytes_overlapped);
  const double ex = static_cast<double>(run.agg.bytes_exposed);
  return ov + ex > 0.0 ? ex / (ov + ex) : 0.0;
}

// Mean exposed wait per rank per iteration, in milliseconds.
double exposed_ms_per_step(const perf::RunMeasurement& run) {
  const double denom = static_cast<double>(run.knobs.nprocs) *
                       static_cast<double>(run.iterations);
  return static_cast<double>(run.agg.exposed_wait_ns) / 1e6 / denom;
}

// -- shared-window halo series ----------------------------------------------

struct SharedRun {
  double halo_seconds = 0.0;  // tracer: halo-swap + halo-wait + halo-shared
  Counters total;             // merged over ranks
  std::vector<StateRecord<2>> state2;
  std::vector<StateRecord<3>> state3;
};

template <int D>
std::vector<StateRecord<D>>& state_of(SharedRun& r) {
  if constexpr (D == 2) {
    return r.state2;
  } else {
    return r.state3;
  }
}

// One MpSim run with the tracer bracketing the measured steps.  The
// tracer is process-global, so a barrier fences every rank out of any
// phase while rank 0 flips it.
template <int D>
SharedRun run_shared_case(std::uint64_t n, int nprocs, int bpp, int nthreads,
                          bool shared, int ranks_per_node, int warmup,
                          int steps, double velocity_scale,
                          std::uint64_t seed) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(n));
  cfg.seed = seed;
  cfg.velocity_scale = velocity_scale;
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<D>::make(nprocs, bpp);
  typename MpSim<D>::Options opts;
  opts.nthreads = nthreads;
  // The identity gate compares two runs bit-for-bit; the atomic-family
  // reductions are not run-to-run reproducible at T > 1, so team runs pin
  // the deterministic colored reduction.
  if (nthreads > 1) opts.reduction = ReductionKind::kColored;
  opts.shared_halo = shared;
  opts.ranks_per_node = ranks_per_node;

  SharedRun out;
  std::mutex mu;
  mp::run(nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm, model, init, opts);
    for (int w = 0; w < warmup; ++w) sim.step();
    comm.barrier();
    if (comm.rank() == 0) trace::Tracer::global().enable(true);
    comm.barrier();
    sim.run(static_cast<std::uint64_t>(steps));
    comm.barrier();
    auto mine = sim.gather_state();
    const Counters c = sim.counters();
    {
      std::lock_guard<std::mutex> lock(mu);
      out.total.merge(c);
    }
    if (comm.rank() == 0) state_of<D>(out) = std::move(mine);
  });
  for (const auto& s : trace::Tracer::global().summarize()) {
    if (s.phase == trace::Phase::kHaloSwap ||
        s.phase == trace::Phase::kHaloWait ||
        s.phase == trace::Phase::kHaloShared) {
      out.halo_seconds += s.total_seconds;
    }
  }
  trace::Tracer::global().enable(false);
  return out;
}

// Price one run's measured counts on the paper's SMP-cluster machine
// (Compaq ES40: MPI through shared memory at 300 MB/s + 3 us/message;
// node memory at 1 GB/s + 1.5 us/gather) and return the per-iteration
// communication term.  All ranks sit on one node (ranks_per_node = P),
// so the traffic matrix only needs the aggregate — intra/inter
// classification cannot depend on placement.
double modeled_comm_seconds(int np, int bpp, std::uint64_t n, int steps,
                            const Counters& agg) {
  perf::RunMeasurement run;
  run.workload.D = 3;
  run.workload.n = n;
  run.knobs.nprocs = np;
  run.knobs.blocks_per_proc = bpp;
  run.iterations = static_cast<std::uint64_t>(steps);
  run.agg = agg;
  run.bytes_matrix.assign(static_cast<std::size_t>(np) * np, 0);
  run.msgs_matrix.assign(static_cast<std::size_t>(np) * np, 0);
  if (np > 1) {
    run.bytes_matrix[1] = agg.bytes_sent;
    run.msgs_matrix[1] = agg.msgs_sent;
  }
  perf::ModelLayout lay;
  lay.ranks_per_node = np;
  return perf::CostModel::predict(perf::compaq_es40_cluster(), run, lay).comm;
}

// bytes(wire) must equal bytes(shared) with the window gathers counted
// back in — the shared path may only re-route traffic, never change it.
// Frame headers (halo_frame_overhead) ride only on wire messages, so both
// sides compare payload bytes.
bool bytes_conserved(const Counters& wire, const Counters& shm) {
  return wire.bytes_sent - wire.halo_frame_overhead + wire.bytes_local ==
         shm.bytes_sent - shm.halo_frame_overhead + shm.bytes_shared +
             shm.bytes_local;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchContext ctx;
  // Host-time bench: modest systems keep the oversubscribed rank sweep
  // fast while leaving enough core work per block to hide a halo.
  ctx.n2 = 24'000;
  ctx.n3 = 32'000;
  ctx.iters = 6;
  declare_common_options(cli, ctx);
  const auto reps =
      cli.integer("reps", 3, "repetitions per configuration (best-of)");
  const auto procs = cli.integer_list("procs", {2, 4, 8}, "rank counts");
  const auto bpps = cli.integer_list("bpp", {1, 4}, "blocks per process");
  const auto which = cli.choice("overlap", "both", {"off", "on", "both"},
                                "which halo schedule(s) to run");
  if (cli.finish()) return cli.exit_code();

  std::vector<Config> configs;
  for (int D : {2, 3}) {
    for (const auto p : procs) {
      for (const auto bpp : bpps) {
        configs.push_back({D, static_cast<int>(p), static_cast<int>(bpp)});
      }
    }
  }

  std::ostringstream out;
  out << "== Fig 9: overlapped halo exchange vs synchronous (host time, "
         "rc=1.5, reordered) ==\n\n";
  Table t({"D", "P", "B/P", "t/iter off (ms)", "t/iter on (ms)", "speedup",
           "exposed frac", "exposed ms/step"});
  std::ostringstream json;
  json << "{\n  \"n2\": " << ctx.n2 << ",\n  \"n3\": " << ctx.n3
       << ",\n  \"iterations\": " << ctx.iters << ",\n  \"results\": [";
  bool first = true;
  for (const auto& c : configs) {
    perf::MeasureSpec spec;
    spec.D = c.D;
    spec.n = ctx.n_for(c.D);
    spec.rc_factor = 1.5;
    spec.mode = perf::MeasureSpec::Mode::kMp;
    spec.nprocs = c.nprocs;
    spec.blocks_per_proc = c.bpp;
    spec.iterations = ctx.iters;

    double t_off = 0.0, t_on = 0.0, frac = 0.0, exposed_ms = 0.0;
    std::uint64_t ov_bytes = 0, ex_bytes = 0, waits_blocked = 0;
    if (which != "on") {
      spec.overlap = false;
      t_off = measure_best(spec, static_cast<int>(reps))
                  .host_seconds_per_iter();
    }
    if (which != "off") {
      spec.overlap = true;
      const auto m = measure_best(spec, static_cast<int>(reps));
      t_on = m.host_seconds_per_iter();
      frac = exposed_fraction(m);
      exposed_ms = exposed_ms_per_step(m);
      ov_bytes = m.agg.bytes_overlapped;
      ex_bytes = m.agg.bytes_exposed;
      waits_blocked = m.agg.waits_blocked;
    }
    const double speedup = t_off > 0.0 && t_on > 0.0 ? t_off / t_on : 0.0;
    t.add_row({std::to_string(c.D), std::to_string(c.nprocs),
               std::to_string(c.bpp),
               t_off > 0.0 ? Table::num(t_off * 1e3, 2) : "-",
               t_on > 0.0 ? Table::num(t_on * 1e3, 2) : "-",
               speedup > 0.0 ? Table::num(speedup, 3) + "x" : "-",
               t_on > 0.0 ? Table::num(100.0 * frac, 1) + "%" : "-",
               t_on > 0.0 ? Table::num(exposed_ms, 3) : "-"});
    json << (first ? "" : ",") << "\n    {\"D\": " << c.D
         << ", \"nprocs\": " << c.nprocs << ", \"blocks_per_proc\": " << c.bpp
         << ", \"seconds_per_iter_off\": " << t_off
         << ", \"seconds_per_iter_on\": " << t_on
         << ", \"speedup\": " << speedup
         << ", \"exposed_fraction\": " << frac
         << ", \"exposed_wait_ms_per_step\": " << exposed_ms
         << ", \"bytes_overlapped\": " << ov_bytes
         << ", \"bytes_exposed\": " << ex_bytes
         << ", \"waits_blocked\": " << waits_blocked << "}";
    first = false;
  }
  json << "\n  ]\n}\n";
  out << t.render() << "\n";
  out << "Shape checks:\n"
      << "  - exposed fraction well below 1: most dimension-0 halo bytes\n"
      << "    arrive while core-link forces execute\n"
      << "  - exposed wait per step shrinks with B/P at fixed P (more core\n"
      << "    compute per message round) and the on-schedule never loses\n"
      << "    materially to the synchronous one\n"
      << "  - only dimension 0 can overlap (later dimensions forward\n"
      << "    corner data), so the hidden share is bounded by dim 0's\n"
      << "    share of halo traffic\n";
  perf::save_artifact("BENCH_halo_overlap.json", json.str());
  out << "Per-configuration results written to "
         "results/BENCH_halo_overlap.json\n";

  // -- shared-window halo exchange --------------------------------------------
  bool gate_ok = true;

  // Bit-identity gate: full trajectories, wire vs shared, across node
  // packings and team sizes, with rebuilds (and window republications)
  // inside the window.  Small system — the gate checks bits, not speed.
  out << "\n== Shared-window halo exchange (zero-copy intra-node) ==\n\n";
  Table tg({"D", "P", "rpn", "T", "identical", "bytes conserved"});
  const int gate_procs = 4;
  std::ostringstream json2;
  json2 << "{\n  \"identity_gate\": [";
  bool first2 = true;
  for (const int rpn : {1, 2, gate_procs}) {
    for (const int nt : {1, 2, 4}) {
      const auto wire = run_shared_case<2>(4000, gate_procs, 1, nt,
                                           /*shared=*/false, rpn,
                                           /*warmup=*/0, /*steps=*/120,
                                           /*velocity_scale=*/0.8, 71);
      const auto shm = run_shared_case<2>(4000, gate_procs, 1, nt,
                                          /*shared=*/true, rpn,
                                          /*warmup=*/0, /*steps=*/120,
                                          /*velocity_scale=*/0.8, 71);
      const bool same = records_identical<2>(wire.state2, shm.state2);
      const bool cons = bytes_conserved(wire.total, shm.total);
      gate_ok = gate_ok && same && cons;
      tg.add_row({"2", std::to_string(gate_procs), std::to_string(rpn),
                  std::to_string(nt), same ? "yes" : "NO",
                  cons ? "yes" : "NO"});
      json2 << (first2 ? "" : ",") << "\n    {\"D\": 2, \"nprocs\": "
            << gate_procs << ", \"ranks_per_node\": " << rpn
            << ", \"nthreads\": " << nt << ", \"steps\": 120"
            << ", \"identical\": " << (same ? "true" : "false")
            << ", \"bytes_conserved\": " << (cons ? "true" : "false")
            << ", \"bytes_shared\": " << shm.total.bytes_shared
            << ", \"window_republishes\": " << shm.total.window_republishes
            << "}";
      first2 = false;
    }
  }
  out << tg.render() << "\n";

  // Halo-exchange speedup: measured counts priced by the cost model on
  // the ES40 machine (the gated number), plus the tracer's measured wall
  // phase totals (halo-swap + halo-wait + halo-shared, best-of-reps) for
  // reference.  All ranks on one node.
  Table ts({"D", "P", "B/P", "wall wire (ms)", "wall shm (ms)", "wall",
            "model wire (ms)", "model shm (ms)", "model speedup",
            "bytes shared"});
  json2 << "\n  ],\n  \"model_machine\": \"CPQ\",\n  \"halo_phase\": [";
  first2 = true;
  for (const auto p : procs) {
    if (p < 4) continue;  // the acceptance regime: >= 4 ranks, one node
    const int np = static_cast<int>(p);
    for (const auto bp : bpps) {
      const int bpp = static_cast<int>(bp);
      const int steps = static_cast<int>(ctx.iters) * 4;
      double t_wire = 0.0, t_shm = 0.0;
      Counters cw, cs;
      for (int r = 0; r < reps; ++r) {
        const auto w = run_shared_case<3>(ctx.n3, np, bpp, 1,
                                          /*shared=*/false,
                                          /*rpn=*/0, /*warmup=*/1, steps,
                                          /*velocity_scale=*/0.05, 73);
        const auto s = run_shared_case<3>(ctx.n3, np, bpp, 1,
                                          /*shared=*/true,
                                          /*rpn=*/0, /*warmup=*/1, steps,
                                          /*velocity_scale=*/0.05, 73);
        if (r == 0 || w.halo_seconds < t_wire) t_wire = w.halo_seconds;
        if (r == 0 || s.halo_seconds < t_shm) t_shm = s.halo_seconds;
        if (r == 0) {
          cw = w.total;
          cs = s.total;
        }
      }
      const bool cons = bytes_conserved(cw, cs);
      gate_ok = gate_ok && cons;
      const double wall_ratio = t_shm > 0.0 ? t_wire / t_shm : 0.0;
      const double m_wire = modeled_comm_seconds(np, bpp, ctx.n3, steps, cw);
      const double m_shm = modeled_comm_seconds(np, bpp, ctx.n3, steps, cs);
      const double speedup = m_shm > 0.0 ? m_wire / m_shm : 0.0;
      gate_ok = gate_ok && speedup >= 1.2;
      ts.add_row({"3", std::to_string(np), std::to_string(bpp),
                  Table::num(t_wire * 1e3, 2), Table::num(t_shm * 1e3, 2),
                  Table::num(wall_ratio, 2) + "x",
                  Table::num(m_wire * 1e3, 3), Table::num(m_shm * 1e3, 3),
                  Table::num(speedup, 3) + "x",
                  std::to_string(cs.bytes_shared)});
      json2 << (first2 ? "" : ",") << "\n    {\"D\": 3, \"nprocs\": " << np
            << ", \"blocks_per_proc\": " << bpp << ", \"ranks_per_node\": 0"
            << ", \"halo_seconds_wire\": " << t_wire
            << ", \"halo_seconds_shared\": " << t_shm
            << ", \"wall_ratio\": " << wall_ratio
            << ", \"modeled_comm_wire\": " << m_wire
            << ", \"modeled_comm_shared\": " << m_shm
            << ", \"halo_speedup\": " << speedup
            << ", \"bytes_wire\": " << cw.bytes_sent
            << ", \"bytes_shared\": " << cs.bytes_shared
            << ", \"bytes_local\": " << cs.bytes_local
            << ", \"bytes_conserved\": " << (cons ? "true" : "false") << "}";
      first2 = false;
    }
  }
  json2 << "\n  ]\n}\n";
  out << ts.render() << "\n";
  out << "Shape checks:\n"
      << "  - every identity row says yes: the shared path delivers\n"
      << "    bit-identical trajectories for any node packing / team size\n"
      << "  - bytes conserved: wire bytes saved reappear as shared bytes\n"
      << "  - model speedup >= 1.2x with all ranks on one node: the same\n"
      << "    measured byte/message counts priced on the ES40 fall from\n"
      << "    MPI-through-shared-memory rates (300 MB/s, 3 us/msg) to node\n"
      << "    memory rates (1 GB/s, 1.5 us/gather) — the copies and\n"
      << "    per-message overhead the window transport deletes\n"
      << "  - wall columns are the oversubscribed host's phase times; with\n"
      << "    P ranks per CPU they track scheduler skew, not transport\n"
      << "    (buffered wire sends park the skew in the uncounted\n"
      << "    collective phase, window fences absorb it in the counted\n"
      << "    one), so the wall ratio hovers near or below 1x here\n";
  perf::save_artifact("BENCH_halo_sharedmem.json", json2.str());
  out << "Shared-window results written to "
         "results/BENCH_halo_sharedmem.json\n";
  emit("fig9.txt", out.str());
  if (!gate_ok) {
    std::fputs("FAIL: shared-window identity/conservation gate\n", stderr);
    return 1;
  }
  return 0;
}

// Figure 13 (extension) — delta-compressed, coalesced halo exchange: the
// swap ships only the positions that changed since the previous swap
// (bitmask frame + dense changed-value list), and wire sides sharing a
// (neighbour rank, dim, direction) are coalesced into one framed message.
//
// Gated claims:
//   1. Bit-identity: the delta protocol changes *how* halo positions move,
//      never their values.  Receivers reconstruct exactly the bytes the
//      eager protocol would have delivered, so trajectories are
//      bit-identical with --halo-delta on and off across driver x team
//      size x skin (120-step window, per-driver baselines — each
//      driver/T/skin combination has its own summation order).  The
//      uniform-random identity workload moves every particle every step,
//      which also exercises the all-changed masks and the adaptive
//      eager-frame fallback.
//   2. Wire traffic: on a settled bed (contact-free lattice at rest except
//      for a 20% mobile minority) with skin 0.1, the delta protocol must
//      cut wire halo bytes/step by >= 1.5x, and with sides coalesced at
//      B/P = 4 the wire must carry fewer messages/step than there are
//      blocks.  Every gated delta run must satisfy the byte-conservation
//      invariant halo_bytes_eager = halo_bytes_delta + bytes_delta_saved.
//   3. Cost model: the comm term prices halo traffic from the measured
//      (delta-reduced) byte/message matrices plus the shadow-compare pass;
//      its predicted delta/eager comm ratio must track the host-measured
//      halo-phase seconds (tracer kHaloSwap + kHaloWait + kHaloShared)
//      within a factor of 2.
//
// Results land in results/BENCH_halo_delta.json; any gate failure exits
// nonzero.
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "perf/report.hpp"
#include "trace/tracer.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

constexpr double kCap = 0.3;  // pinned binning capacity = max swept skin

struct IdentityRun {
  std::vector<StateRecord<2>> state;
  Counters counters;  // rank 0's / the driver's counters
  Counters merged;    // all ranks (the conservation invariant is global)
};

// The fig12 identity workload: paper density, gentle velocities and a
// reduced dt so no post-init rebuild falls inside the window — the delta
// shadows stay seeded from the constructor's build for the whole run.
SimConfig<2> identity_config(double skin, bool delta) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(4000));
  cfg.seed = 71;
  cfg.velocity_scale = 0.05;
  cfg.dt = 2.5e-4;
  cfg.skin_factor = skin;
  cfg.skin_cap_factor = kCap;
  cfg.halo_delta = delta;
  cfg.halo_coalesce = delta;
  return cfg;
}

IdentityRun run_identity_serial(double skin, bool delta,
                                std::span<const ParticleInit<2>> init,
                                int steps) {
  const auto cfg = identity_config(skin, delta);
  SerialSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
  sim.run(static_cast<std::uint64_t>(steps));
  return {io::snapshot_store(sim.store()), sim.counters(), sim.counters()};
}

IdentityRun run_identity_smp(double skin, bool delta, int nthreads,
                             std::span<const ParticleInit<2>> init,
                             int steps) {
  const auto cfg = identity_config(skin, delta);
  SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                nthreads, ReductionKind::kColored);
  sim.run(static_cast<std::uint64_t>(steps));
  return {io::snapshot_store(sim.store()), sim.counters(), sim.counters()};
}

IdentityRun run_identity_mp(double skin, bool delta, int nthreads,
                            std::span<const ParticleInit<2>> init,
                            int steps) {
  const auto cfg = identity_config(skin, delta);
  // B/P = 2 so the wire path, the same-rank local path and corner
  // forwarding all run under the framed protocol.
  const auto layout = DecompLayout<2>::make(4, 2);
  typename MpSim<2>::Options opts;
  opts.nthreads = nthreads;
  // The atomic-family reductions are not run-to-run reproducible at T > 1;
  // the identity gate pins the deterministic colored reduction.
  opts.reduction = ReductionKind::kColored;
  IdentityRun out;
  std::vector<Counters> rank_counters(4);
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm, ElasticSphere{cfg.stiffness, cfg.diameter},
                 init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    auto s = sim.gather_state();
    rank_counters[static_cast<std::size_t>(comm.rank())] = sim.counters();
    if (comm.rank() == 0) {
      out.state = std::move(s);
      out.counters = sim.counters();
    }
  });
  for (const auto& c : rank_counters) out.merged.merge(c);
  return out;
}

// halo_bytes_eager = halo_bytes_delta + bytes_delta_saved must hold on the
// merged counters of every run (trivially 0 = 0 + 0 on delta-off runs).
bool conserves(const Counters& c) {
  return c.halo_bytes_eager == c.halo_bytes_delta + c.bytes_delta_saved;
}

// The settled bed the delta frames are built for: a contact-free lattice
// (box widened so the spacing clears rc) at rest except for every 5th
// particle.  Drift over the window stays below the skin allowance, so the
// constructor-built list — and the delta shadows — serve every swap.
perf::MeasureSpec settled_spec(bool delta, bool coalesce, int nprocs, int bpp,
                               std::uint64_t n, std::uint64_t iters) {
  perf::MeasureSpec s;
  s.D = 2;
  s.n = n;
  s.mode = perf::MeasureSpec::Mode::kMp;
  s.nprocs = nprocs;
  s.blocks_per_proc = bpp;
  s.halo_delta = delta;
  s.halo_coalesce = coalesce;
  s.skin_factor = 0.1;
  s.scenario = Scenario::kSettled;
  s.settled_stride = 5;  // 20% mobile minority
  s.velocity_scale = 0.25;
  s.box_scale = 1.6;  // lattice spacing 0.08 > rc = 0.075: contact-free
  s.warmup = 2;
  s.iterations = iters;
  return s;
}

struct SettledCase {
  perf::RunMeasurement m;
  double halo_seconds = 0.0;  // tracer kHaloSwap + kHaloWait + kHaloShared
};

SettledCase run_settled(const perf::MeasureSpec& spec, int reps) {
  SettledCase best;
  for (int r = 0; r < reps; ++r) {
    auto& tracer = trace::Tracer::global();
    tracer.enable(true);  // resets the epoch
    perf::RunMeasurement m = perf::measure_run(spec);
    double halo = 0.0;
    for (const auto& s : tracer.summarize()) {
      if (s.phase == trace::Phase::kHaloSwap ||
          s.phase == trace::Phase::kHaloWait ||
          s.phase == trace::Phase::kHaloShared) {
        halo += s.total_seconds;
      }
    }
    tracer.enable(false);
    if (r == 0 || halo < best.halo_seconds) {
      best.m = std::move(m);
      best.halo_seconds = halo;
    }
  }
  return best;
}

double per_step(std::uint64_t total, std::uint64_t iters) {
  return iters ? static_cast<double>(total) / static_cast<double>(iters) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto steps = static_cast<int>(
      cli.integer("steps", 120, "identity-gate trajectory length"));
  const auto n_perf = static_cast<std::uint64_t>(
      cli.integer("n", 4000, "particles for the settled-bed runs (D=2)"));
  const auto iters = static_cast<std::uint64_t>(
      cli.integer("iters", 40, "measured iterations per settled-bed run"));
  const auto reps = static_cast<int>(
      cli.integer("reps", 2, "repetitions per settled-bed case (best-of)"));
  if (cli.finish()) return cli.exit_code();

  std::ostringstream out;
  out << "== Fig 13: delta-compressed, coalesced halo exchange ==\n\n";
  std::ostringstream json;

  // -- identity gate ----------------------------------------------------------
  out << "Identity gate: " << steps
      << "-step trajectories, delta+coalesce vs eager, binning capacity "
         "pinned at rc*(1+" << kCap << ")\n";
  Table ti({"skin", "driver", "T", "delta", "identical", "conserve",
            "rebuilds", "eagerB", "savedB"});
  json << "{\n  \"identity_gate\": [";
  bool identity_ok = true;
  bool conserve_ok = true;
  bool first = true;

  const auto cfg0 = identity_config(0.0, false);
  const auto init = uniform_random_particles(cfg0, 4000);
  // Bit identity is a per-driver invariant: each driver/team/skin
  // combination is compared against its own eager run.
  std::map<std::string, std::vector<StateRecord<2>>> baselines;
  for (const double skin : {0.0, 0.3}) {
    for (const char* driver : {"serial", "smp", "mp"}) {
      for (const int T : {1, 2, 4}) {
        if (std::strcmp(driver, "serial") == 0 && T > 1) continue;
        for (const bool delta : {false, true}) {
          IdentityRun r;
          if (std::strcmp(driver, "serial") == 0) {
            r = run_identity_serial(skin, delta, init, steps);
          } else if (std::strcmp(driver, "smp") == 0) {
            r = run_identity_smp(skin, delta, T, init, steps);
          } else {
            r = run_identity_mp(skin, delta, T, init, steps);
          }
          const std::string key = std::string(driver) + "/" +
                                  std::to_string(T) + "/" +
                                  Table::num(skin, 1);
          auto& ref = baselines[key];
          if (ref.empty()) ref = r.state;  // the delta-off run
          const bool same = records_identical<2>(ref, r.state);
          const bool cons = conserves(r.merged);
          // The mp delta rows must actually exercise the framed protocol.
          const bool framed_ok = !delta || std::strcmp(driver, "mp") != 0 ||
                                 r.merged.halo_bytes_eager > 0;
          identity_ok = identity_ok && same && framed_ok;
          conserve_ok = conserve_ok && cons;
          ti.add_row({Table::num(skin, 1), driver, std::to_string(T),
                      delta ? "on" : "off",
                      same && framed_ok ? "yes" : "NO", cons ? "yes" : "NO",
                      std::to_string(r.counters.rebuilds),
                      std::to_string(r.merged.halo_bytes_eager),
                      std::to_string(r.merged.bytes_delta_saved)});
          json << (first ? "" : ",") << "\n    {\"skin\": " << skin
               << ", \"driver\": \"" << driver << "\", \"nthreads\": " << T
               << ", \"delta\": " << (delta ? "true" : "false")
               << ", \"steps\": " << steps
               << ", \"identical\": " << (same ? "true" : "false")
               << ", \"conserved\": " << (cons ? "true" : "false")
               << ", \"halo_bytes_eager\": " << r.merged.halo_bytes_eager
               << ", \"halo_bytes_delta\": " << r.merged.halo_bytes_delta
               << ", \"bytes_delta_saved\": " << r.merged.bytes_delta_saved
               << "}";
          first = false;
        }
      }
    }
  }
  out << ti.render() << "\n";
  out << "identity: " << (identity_ok ? "PASS" : "FAIL")
      << "  conservation: " << (conserve_ok ? "PASS" : "FAIL") << "\n\n";

  // -- settled-bed byte gate --------------------------------------------------
  // P = 4, B/P = 1: the same wire message count in both protocols, so the
  // byte reduction is purely the delta compression.
  const auto base = run_settled(settled_spec(false, false, 4, 1, n_perf, iters),
                                reps);
  const auto comp = run_settled(settled_spec(true, true, 4, 1, n_perf, iters),
                                reps);
  const double base_bytes = per_step(base.m.agg.halo_bytes_wire, iters);
  const double comp_bytes = per_step(comp.m.agg.halo_bytes_wire, iters);
  const double reduction = comp_bytes > 0.0 ? base_bytes / comp_bytes : 0.0;
  const bool comp_conserves = conserves(comp.m.agg);
  const double hit = comp.m.agg.delta_hit_rate();
  const bool bytes_ok =
      reduction >= 1.5 && comp_conserves && hit > 0.0 &&
      comp.m.agg.halo_bytes_eager > 0;
  conserve_ok = conserve_ok && comp_conserves;

  Table ts({"case", "wire B/step", "wire msgs/step", "hit", "summary"});
  ts.add_row({"eager", Table::num(base_bytes, 1),
              Table::num(per_step(base.m.agg.halo_msgs_wire, iters), 2),
              "-", perf::halo_line(perf::halo_summary(base.m.agg))});
  ts.add_row({"delta", Table::num(comp_bytes, 1),
              Table::num(per_step(comp.m.agg.halo_msgs_wire, iters), 2),
              Table::num(100.0 * hit, 0) + "%",
              perf::halo_line(perf::halo_summary(comp.m.agg))});
  out << "Settled bed (n=" << n_perf << ", 20% mobile, skin 0.1, P=4, "
         "B/P=1):\n" << ts.render() << "\n";
  out << "wire byte reduction: " << Table::num(reduction, 2)
      << "x (gate: >= 1.5x) -> " << (bytes_ok ? "PASS" : "FAIL") << "\n\n";

  // -- coalescing message gate ------------------------------------------------
  // P = 2, B/P = 4 (8 blocks, 4 per rank): dim-1 neighbours are same-rank
  // (local copies), dim-0 sides share one peer per direction, so coalesced
  // frames must put fewer messages/step on the wire than there are blocks.
  const auto nocoal = run_settled(settled_spec(true, false, 2, 4, n_perf,
                                               iters), reps);
  const auto coal = run_settled(settled_spec(true, true, 2, 4, n_perf, iters),
                                reps);
  const double nocoal_msgs = per_step(nocoal.m.agg.halo_msgs_wire, iters);
  const double coal_msgs = per_step(coal.m.agg.halo_msgs_wire, iters);
  const int nblocks = coal.m.knobs.nprocs * coal.m.knobs.blocks_per_proc;
  const bool coal_conserves = conserves(coal.m.agg);
  const bool msgs_ok = coal_msgs < static_cast<double>(nblocks) &&
                       coal_msgs < nocoal_msgs &&
                       coal.m.agg.msgs_coalesced > 0 && coal_conserves;
  conserve_ok = conserve_ok && coal_conserves && conserves(nocoal.m.agg);
  out << "Coalescing (P=2, B/P=4, " << nblocks << " blocks): "
      << Table::num(nocoal_msgs, 1) << " wire msgs/step per-side -> "
      << Table::num(coal_msgs, 1) << " coalesced ("
      << per_step(coal.m.agg.msgs_coalesced, iters)
      << " sides/step merged; gate: < " << nblocks << " msgs/step) -> "
      << (msgs_ok ? "PASS" : "FAIL") << "\n\n";

  // -- cost-model check -------------------------------------------------------
  // The comm term works from the measured byte/message matrices (which
  // already carry the delta-reduced wire traffic) plus the shadow-compare
  // pass; its delta/eager ratio must track the host halo-phase seconds.
  const auto model_comm = [](const perf::RunMeasurement& run) {
    return perf::CostModel::predict(perf::compaq_es40_cluster(), run).comm;
  };
  const double modeled_0 = model_comm(base.m);
  const double modeled_d = model_comm(comp.m);
  const double modeled_ratio = modeled_0 > 0.0 ? modeled_d / modeled_0 : 0.0;
  const double host_ratio =
      base.halo_seconds > 0.0 ? comp.halo_seconds / base.halo_seconds : 0.0;
  const double agreement = host_ratio > 0.0 ? modeled_ratio / host_ratio : 0.0;
  const bool model_ok = agreement >= 0.5 && agreement <= 2.0;
  out << "cost model: comm term delta/eager = " << Table::num(modeled_ratio, 3)
      << " (modeled, change fraction "
      << Table::num(perf::halo_change_fraction(comp.m), 3) << ") vs "
      << Table::num(host_ratio, 3)
      << " (host halo-phase seconds); agreement " << Table::num(agreement, 2)
      << "x (tolerance 0.5-2.0x) -> " << (model_ok ? "PASS" : "FAIL")
      << "\n\n";

  json << "\n  ],\n  \"settled_bytes\": {"
       << "\"n\": " << n_perf << ", \"iterations\": " << iters
       << ", \"eager_wire_bytes_per_step\": " << base_bytes
       << ", \"delta_wire_bytes_per_step\": " << comp_bytes
       << ", \"reduction\": " << reduction
       << ", \"delta_hit_rate\": " << hit
       << ", \"halo_bytes_eager\": " << comp.m.agg.halo_bytes_eager
       << ", \"halo_bytes_delta\": " << comp.m.agg.halo_bytes_delta
       << ", \"bytes_delta_saved\": " << comp.m.agg.bytes_delta_saved
       << ", \"conserved\": " << (comp_conserves ? "true" : "false")
       << ", \"ok\": " << (bytes_ok ? "true" : "false")
       << "},\n  \"coalescing\": {"
       << "\"nblocks\": " << nblocks
       << ", \"per_side_msgs_per_step\": " << nocoal_msgs
       << ", \"coalesced_msgs_per_step\": " << coal_msgs
       << ", \"sides_merged_per_step\": "
       << per_step(coal.m.agg.msgs_coalesced, iters)
       << ", \"ok\": " << (msgs_ok ? "true" : "false")
       << "},\n  \"model_check\": {"
       << "\"modeled_comm_ratio\": " << modeled_ratio
       << ", \"host_halo_ratio\": " << host_ratio
       << ", \"change_fraction\": "
       << perf::halo_change_fraction(comp.m)
       << ", \"agreement\": " << agreement
       << ", \"tolerance\": [0.5, 2.0], \"ok\": "
       << (model_ok ? "true" : "false")
       << "},\n  \"gates\": {\"identity\": "
       << (identity_ok ? "true" : "false")
       << ", \"conservation\": " << (conserve_ok ? "true" : "false")
       << ", \"bytes_ok\": " << (bytes_ok ? "true" : "false")
       << ", \"msgs_ok\": " << (msgs_ok ? "true" : "false")
       << ", \"model_ok\": " << (model_ok ? "true" : "false") << "}\n}\n";

  out << "Shape checks:\n"
      << "  - every identity row says yes: the delta receiver reconstructs\n"
      << "    exactly the eager bytes, so only traffic changes, never state\n"
      << "  - eagerB = deltaB + savedB on every framed row (conservation)\n"
      << "  - the settled bed compresses ~5x at a 20% mobile minority; the\n"
      << "    uniform-random identity workload compresses nothing and rides\n"
      << "    the adaptive eager-frame fallback instead\n"
      << "  - coalescing at B/P = 4 merges every same-destination side into\n"
      << "    one frame stream per (peer, dim, direction)\n";
  perf::save_artifact("BENCH_halo_delta.json", json.str());
  out << "Per-configuration results written to results/BENCH_halo_delta.json\n";
  emit("fig13.txt", out.str());
  if (!identity_ok || !conserve_ok || !bytes_ok || !msgs_ok || !model_ok) {
    std::fputs("FAIL: halo delta identity/bytes/msgs/model gate\n", stderr);
    return 1;
  }
  return 0;
}

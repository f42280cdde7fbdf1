// Running one parallel scheme on one generated input: construction, a
// warm-up, a timed window of steps and the final state, optionally with
// spans around every public call.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "helpers.hpp"
#include "metrics.hpp"

namespace perfbench {

// The five configurations every sim workload runs, at P x T <= 4.
enum class Scheme { kSerial, kSmp4, kMp4, kHybrid2x2, kFused2x2 };
inline constexpr std::array<Scheme, 5> kSchemes = {
    Scheme::kSerial, Scheme::kSmp4, Scheme::kMp4, Scheme::kHybrid2x2,
    Scheme::kFused2x2};

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kSerial: return "serial";
    case Scheme::kSmp4: return "smp4";
    case Scheme::kMp4: return "mp4";
    case Scheme::kHybrid2x2: return "hybrid2x2";
    case Scheme::kFused2x2: return "fused2x2";
  }
  return "?";
}
inline int scheme_procs(Scheme s) {
  return s == Scheme::kMp4 ? 4 : (s == Scheme::kSerial || s == Scheme::kSmp4)
                                     ? 1
                                     : 2;
}
inline bool decomposed(Scheme s) {
  return s == Scheme::kMp4 || s == Scheme::kHybrid2x2 ||
         s == Scheme::kFused2x2;
}
inline bool threaded(Scheme s) {
  return s == Scheme::kSmp4 || s == Scheme::kHybrid2x2 ||
         s == Scheme::kFused2x2;
}

// Every knob the benchmark does not vary, pinned explicitly so that no
// environment default can change which program is measured.
template <int D>
hdem::SimConfig<D> pinned_config(std::uint64_t n, double cutoff_factor,
                                 double velocity_scale, std::uint64_t seed) {
  hdem::SimConfig<D> cfg;
  cfg.box = hdem::Vec<D>(hdem::SimConfig<D>::paper_box_edge(n));
  cfg.bc = hdem::BoundaryKind::kPeriodic;
  cfg.cutoff_factor = cutoff_factor;
  cfg.velocity_scale = velocity_scale;
  cfg.seed = seed;
  cfg.reorder = true;
  cfg.drift_measured = true;
  cfg.skin_factor = 0.0;
  cfg.skin_cap_factor = 0.0;
  cfg.halo_delta = false;
  cfg.halo_coalesce = false;
  return cfg;
}

template <int D>
typename hdem::MpSim<D>::Options pinned_mp_options(Scheme s) {
  typename hdem::MpSim<D>::Options o;
  o.nthreads = s == Scheme::kMp4 ? 1 : 2;
  o.reduction = hdem::ReductionKind::kColored;
  o.fused = s == Scheme::kFused2x2;
  o.overlap = false;
  o.steal = false;
  o.rebalance = false;
  o.shared_halo = false;
  o.ranks_per_node = 0;
  return o;
}

// How many steps a run takes: `windows` timed windows of `steps` steps
// after `warmup` untimed ones.  A traced run with `cap` > 0 extends its
// window (up to `cap` steps) until it has seen both a rebuild step and a
// reuse step, so both step classes get a median.
struct WindowRule {
  std::uint64_t warmup = 0;
  std::uint64_t steps = 0;
  std::uint64_t cap = 0;
  int windows = 1;
};

// Spans of a traced run; absent in timed runs.
struct SpanSink {
  SpanLog* log = nullptr;
  std::int64_t parent = -1;
};

// Per-rank counters around the window (one entry for serial and smp).
struct RankCounters {
  hdem::Counters before;
  hdem::Counters after;
};

template <int D>
struct ConfigRun {
  double construct_s = 0.0;  // driver construction until ready to step
  double window_s = 0.0;     // wall time of the timed step loops
  std::uint64_t window_steps = 0;
  std::vector<double> window_rates;  // steps/s of each timed window
  std::vector<hdem::StateRecord<D>> state;
  std::vector<RankCounters> ranks;
};

template <class Sim>
void warm_up(Sim& sim, const WindowRule& rule, const SpanSink& sink,
             std::int64_t owner) {
  for (std::uint64_t i = 0; i < rule.warmup; ++i) {
    const double t0 = now();
    sim.step();
    if (sink.log) sink.log->add({"warmup-step", t0, now(), sink.parent, owner});
  }
}

template <class Sim>
std::uint64_t drive_window(Sim& sim, const WindowRule& rule,
                           const SpanSink& sink, std::int64_t owner) {
  std::uint64_t steps = 0;
  bool saw_rebuild = false;
  bool saw_reuse = false;
  for (;;) {
    if (steps >= rule.steps &&
        (rule.cap == 0 || (saw_rebuild && saw_reuse) || steps >= rule.cap)) {
      break;
    }
    const bool rebuild = !sim.list_valid();
    const double t0 = sink.log ? now() : 0.0;
    sim.step();
    if (sink.log) {
      sink.log->add({rebuild ? "step-rebuild" : "step-reuse", t0, now(),
                     sink.parent, owner});
    }
    (rebuild ? saw_rebuild : saw_reuse) = true;
    ++steps;
  }
  return steps;
}

template <int D, class Sim>
std::vector<hdem::StateRecord<D>> store_state(const Sim& sim) {
  std::vector<hdem::StateRecord<D>> out;
  const auto& store = sim.store();
  out.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    out.push_back({store.id(i), store.pos(i), store.vel(i)});
  }
  return out;
}

// Serial or smp4 on the calling thread.
template <int D>
ConfigRun<D> run_undecomposed(Scheme s, const hdem::SimConfig<D>& cfg,
                              const std::vector<hdem::ParticleInit<D>>& init,
                              const WindowRule& rule, const SpanSink& sink,
                              bool mute) {
  const hdem::ElasticSphere model{cfg.stiffness, cfg.diameter};
  ConfigRun<D> r;
  r.ranks.resize(1);
  std::optional<hdem::trace::Mute> muted;
  if (mute) muted.emplace();
  auto body = [&](auto& sim, double t0) {
    const double t1 = now();
    r.construct_s = t1 - t0;
    if (sink.log) sink.log->add({"construct", t0, t1, sink.parent, -1});
    warm_up(sim, rule, sink, -1);
    r.ranks[0].before = sim.counters();
    for (int k = 0; k < rule.windows; ++k) {
      const double w0 = now();
      const std::uint64_t steps = drive_window(sim, rule, sink, -1);
      const double t = now() - w0;
      r.window_s += t;
      r.window_steps += steps;
      r.window_rates.push_back(static_cast<double>(steps) / t);
    }
    r.ranks[0].after = sim.counters();
    r.state = store_state<D>(sim);
  };
  const double t0 = now();
  if (s == Scheme::kSerial) {
    hdem::SerialSim<D> sim(cfg, model, init);
    body(sim, t0);
  } else {
    hdem::SmpSim<D> sim(cfg, model, init, 4, hdem::ReductionKind::kColored,
                        /*steal=*/false);
    body(sim, t0);
  }
  return r;
}

// mp4, hybrid2x2 or fused2x2: P rank threads through mp::run.  B/P is the
// mp4 block count per rank; the 2 x 2 schemes keep the same total.
template <int D>
ConfigRun<D> run_decomposed(Scheme s, const hdem::SimConfig<D>& cfg,
                            const std::vector<hdem::ParticleInit<D>>& init,
                            int blocks_per_proc, const WindowRule& rule,
                            const SpanSink& sink, bool mute) {
  const hdem::ElasticSphere model{cfg.stiffness, cfg.diameter};
  const int procs = scheme_procs(s);
  const auto layout =
      hdem::DecompLayout<D>::make(procs, (4 / procs) * blocks_per_proc);
  const auto opts = pinned_mp_options<D>(s);
  ConfigRun<D> r;
  r.ranks.resize(static_cast<std::size_t>(procs));
  const double t_call = now();
  hdem::mp::run(procs, [&](hdem::mp::Comm& comm) {
    const int rank = comm.rank();
    std::optional<hdem::trace::Mute> muted;
    if (mute) muted.emplace();
    std::int64_t body = -1;
    if (sink.log) body = sink.log->add({"rank-body", now(), 0.0, sink.parent, rank});
    const SpanSink inner{sink.log, body};
    const double c0 = now();
    hdem::MpSim<D> sim(cfg, layout, comm, model, init, opts);
    if (sink.log) sink.log->add({"construct", c0, now(), body, rank});
    comm.barrier();
    if (rank == 0) r.construct_s = now() - t_call;
    warm_up(sim, rule, inner, rank);
    comm.barrier();
    auto& rc = r.ranks[static_cast<std::size_t>(rank)];
    rc.before = sim.counters();
    for (int k = 0; k < rule.windows; ++k) {
      const double w0 = now();
      const std::uint64_t steps = drive_window(sim, rule, inner, rank);
      comm.barrier();
      if (rank == 0) {
        const double t = now() - w0;
        r.window_s += t;
        r.window_steps += steps;
        r.window_rates.push_back(static_cast<double>(steps) / t);
      }
    }
    rc.after = sim.counters();
    auto state = sim.gather_state();
    if (rank == 0) r.state = std::move(state);
    if (sink.log) sink.log->set_end(body, now());
  });
  return r;
}

template <int D>
ConfigRun<D> run_scheme(Scheme s, const hdem::SimConfig<D>& cfg,
                        const std::vector<hdem::ParticleInit<D>>& init,
                        int blocks_per_proc, const WindowRule& rule,
                        const SpanSink& sink, bool mute = false) {
  return decomposed(s) ? run_decomposed<D>(s, cfg, init, blocks_per_proc,
                                           rule, sink, mute)
                       : run_undecomposed<D>(s, cfg, init, rule, sink, mute);
}

}  // namespace perfbench

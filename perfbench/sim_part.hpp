// The sim half of a workload: all five schemes on one generated input.
//
// Timed run: rounds of (generate input, then for each scheme construct,
// warm up, time several short windows, check the final state), spread
// between the serve parts over the whole run.
//
// Traced run: each scheme once with the tracer on and spans around every
// public call, then once more muted over the same steps to price tracing.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim_run.hpp"

namespace perfbench {

struct SimWorkload {
  int dim = 2;
  std::uint64_t n = 0;
  double cutoff_factor = 1.5;
  double velocity_scale = 0.05;
  int blocks_per_proc = 1;       // B/P of mp4
  std::uint64_t warmup = 0;      // steps after construction, untimed
  std::uint64_t window = 0;      // timed steps per window
  std::uint64_t trace_cap = 0;   // traced window may extend up to this
  int windows = 1;               // timed windows per construction
};

template <int D>
struct SimInput {
  hdem::SimConfig<D> cfg;
  std::vector<hdem::ParticleInit<D>> init;
  hdem::Vec<D> momentum{};
  double speed_sum = 0.0;
};

template <int D>
SimInput<D> make_input(const SimWorkload& w, std::uint64_t seed) {
  SimInput<D> in;
  in.cfg = pinned_config<D>(w.n, w.cutoff_factor, w.velocity_scale, seed);
  in.init = hdem::uniform_random_particles(in.cfg, w.n);
  for (const auto& p : in.init) {
    in.momentum += p.vel;
    in.speed_sum += hdem::norm(p.vel);
  }
  return in;
}

template <int D>
bool check_run(Scheme s, const SimInput<D>& in, const ConfigRun<D>& r,
               const std::vector<hdem::StateRecord<D>>& reference,
               Tally& tally) {
  const hdem::Boundary<D> boundary(in.cfg.bc, in.cfg.box);
  const auto why = check_sim_state<D>(
      r.state, in.init.size(), boundary, in.momentum, in.speed_sum,
      s == Scheme::kSerial ? std::span<const hdem::StateRecord<D>>{}
                           : std::span<const hdem::StateRecord<D>>(reference),
      SimTolerance{});
  tally.record(why.empty(), std::string("sim scheme ") + scheme_name(s), why);
  return why.empty();
}

// Timed sim half, run a round at a time between the serve parts so that
// its windows sample the whole run rather than one stretch of it.
template <int D>
class SimTimed {
 public:
  SimTimed(const SimWorkload& w, std::uint64_t seed, Tally& tally)
      : w_(w), seed_(seed), tally_(&tally) {
    // An uncounted round first: thread start-up, first touch of the heap.
    run_round(false);
  }

  void round() { run_round(true); }
  std::size_t rounds() const { return setup_.size(); }

  void report(Metrics& out) const {
    std::printf("sim rounds: %zu (%d windows of %llu steps after %llu "
                "warm-up steps per scheme)\n",
                setup_.size(), w_.windows,
                static_cast<unsigned long long>(w_.window),
                static_cast<unsigned long long>(w_.warmup));
    out.add("setup_s", median(setup_), "s");
    // The rate of the fastest tenth of the windows -- the paper's "minimum
    // of at least three runs", made robust to one lucky window.  On a
    // shared host, neighbours' load only ever slows a window down and comes
    // and goes over seconds, so the median of a run swings with how much
    // of it was slow while the 90th percentile of many short interleaved
    // windows repeats far better (measured: a 4x smaller spread).
    std::map<Scheme, double> steps_per_s;
    for (const Scheme s : kSchemes) {
      steps_per_s[s] = percentile(rate_.at(s), 900);
      out.add(std::string("steps_per_s.") + scheme_name(s), steps_per_s[s],
              "steps/s");
    }
    // Diagnostic only: it falls whenever serial gets faster, so it cannot
    // gate.
    for (const Scheme s : kSchemes) {
      if (s == Scheme::kSerial) continue;
      std::printf("diagnostic speedup_over_serial.%s = %.3f\n",
                  scheme_name(s),
                  steps_per_s[s] / steps_per_s[Scheme::kSerial]);
    }
  }

 private:
  void run_round(bool counted) {
    const WindowRule rule{w_.warmup, w_.window, 0, w_.windows};
    const double g0 = now();
    const SimInput<D> in = make_input<D>(w_, seed_);
    double setup_s = now() - g0;
    std::vector<hdem::StateRecord<D>> reference;
    for (const Scheme s : kSchemes) {
      ConfigRun<D> r =
          run_scheme<D>(s, in.cfg, in.init, w_.blocks_per_proc, rule, {});
      setup_s += r.construct_s;
      if (counted) {
        rate_[s].insert(rate_[s].end(), r.window_rates.begin(),
                        r.window_rates.end());
      }
      check_run<D>(s, in, r, reference, *tally_);
      if (s == Scheme::kSerial) reference = std::move(r.state);
    }
    if (counted) setup_.push_back(setup_s);
  }

  SimWorkload w_;
  std::uint64_t seed_;
  Tally* tally_;
  std::vector<double> setup_;
  std::map<Scheme, std::vector<double>> rate_;
};

// ---- traced run ------------------------------------------------------------

inline bool is_step(const Span& s) {
  const std::string_view n = s.name;
  return n == "step-rebuild" || n == "step-reuse";
}

// Phases that do work.  The iteration and link-build brackets are left
// out: they cover whatever runs inside them, traced or not.
inline bool is_leaf_phase(hdem::trace::Phase p) {
  return p != hdem::trace::Phase::kIteration &&
         p != hdem::trace::Phase::kLinkBuild;
}

// Phase seconds per owner over the window steps.
struct PhaseTotals {
  double sec[hdem::trace::kPhaseCount] = {};
  double of(hdem::trace::Phase p) const { return sec[static_cast<int>(p)]; }
};

// Attach the tracer's phase events to the span that contains them (same
// owner, interval inside), append them to the log as child spans, and
// derive this scheme's per-layer metrics from the window steps.
template <int D>
void scheme_layers(Scheme s, SpanLog& log, std::size_t first,
                   const std::vector<hdem::trace::Event>& events,
                   const ConfigRun<D>& r, Metrics& out) {
  using hdem::trace::Phase;
  const std::vector<Span> spans = log.snapshot();
  std::map<std::int64_t, std::vector<std::size_t>> containers;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const std::string_view n = spans[i].name;
    if (n == "construct" || n == "warmup-step" || is_step(spans[i])) {
      containers[spans[i].owner].push_back(i);
    }
  }
  for (auto& [owner, idx] : containers) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start < spans[b].start;
    });
  }
  std::map<std::size_t, std::vector<Span>> children;
  std::map<std::int64_t, PhaseTotals> totals;
  for (const auto& e : events) {
    const std::int64_t owner = e.rank;
    std::int64_t parent = -1;
    const auto it = containers.find(owner);
    if (it != containers.end()) {
      const auto& idx = it->second;
      auto pos = std::upper_bound(
          idx.begin(), idx.end(), e.t_start,
          [&](double t, std::size_t i) { return t < spans[i].start; });
      if (pos != idx.begin()) {
        const std::size_t c = *(pos - 1);
        if (e.t_end <= spans[c].end) parent = static_cast<std::int64_t>(c);
      }
    }
    const Span child{hdem::trace::to_string(e.phase), e.t_start, e.t_end,
                     parent, owner};
    log.add(child);
    if (parent < 0 || !is_step(spans[static_cast<std::size_t>(parent)])) {
      continue;
    }
    if (is_leaf_phase(e.phase)) {
      children[static_cast<std::size_t>(parent)].push_back(child);
    }
    totals[owner].sec[static_cast<int>(e.phase)] += e.t_end - e.t_start;
  }

  // Step classes and untraced share.  Step times come from the first
  // rank; every rank takes part in each step's collectives.
  const std::int64_t lead = decomposed(s) ? 0 : -1;
  std::vector<double> all_ms, rebuild_ms, reuse_ms;
  double dur = 0.0, self = 0.0;
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (!is_step(spans[i])) continue;
    const Span& sp = spans[i];
    dur += sp.end - sp.start;
    self += self_time(sp, children[i]);
    if (sp.owner != lead) continue;
    const double ms = 1e3 * (sp.end - sp.start);
    all_ms.push_back(ms);
    (std::string_view(sp.name) == "step-rebuild" ? rebuild_ms : reuse_ms)
        .push_back(ms);
  }
  const std::string cfg = scheme_name(s);
  const double steps = static_cast<double>(all_ms.size());
  const double rebuilds = static_cast<double>(rebuild_ms.size());
  auto or_none = [](const std::vector<double>& v) {
    return v.empty() ? -1.0 : median(v);
  };
  out.add("driver.step_ms.p50." + cfg, median(all_ms), "ms");
  out.add("driver.rebuild_step_ms.p50." + cfg, or_none(rebuild_ms), "ms");
  out.add("driver.reuse_step_ms.p50." + cfg, or_none(reuse_ms), "ms");
  out.add("driver.rebuilds_per_step." + cfg, rebuilds / steps, "ratio");
  out.add("driver.untraced_frac." + cfg, self / dur, "ratio");

  // Times take the slowest rank (the critical path); counts sum ranks.
  auto max_phase = [&](std::initializer_list<Phase> ps) {
    double m = 0.0;
    for (const auto& [owner, t] : totals) {
      double sum = 0.0;
      for (const Phase p : ps) sum += t.of(p);
      m = std::max(m, sum);
    }
    return m;
  };
  std::vector<hdem::Counters> win;
  for (const auto& rc : r.ranks) {
    win.push_back(hdem::counters_delta(rc.after, rc.before));
  }
  auto sum_count = [&](auto field) {
    double sum = 0.0;
    for (const auto& c : win) sum += static_cast<double>(c.*field);
    return sum;
  };
  auto max_total = [&](auto field) {
    double m = 0.0;
    for (const auto& rc : r.ranks) {
      m = std::max(m, static_cast<double>(rc.after.*field));
    }
    return m;
  };
  const double total_rebuilds =
      static_cast<double>(r.ranks.front().after.rebuilds);
  out.add("core.bin_ms." + cfg,
          1e-6 * max_total(&hdem::Counters::rebuild_bin_ns) / total_rebuilds,
          "ms/rebuild");
  out.add("core.reorder_ms." + cfg,
          1e-6 * max_total(&hdem::Counters::rebuild_reorder_ns) /
              total_rebuilds,
          "ms/rebuild");
  out.add("core.linkgen_ms." + cfg,
          1e-6 * max_total(&hdem::Counters::rebuild_linkgen_ns) /
              total_rebuilds,
          "ms/rebuild");

  if (s == Scheme::kSerial) {
    const hdem::Counters& c = win.front();
    const hdem::Counters& now_c = r.ranks.front().after;
    out.add("core.ns_per_link",
            1e9 * max_phase({Phase::kForce}) /
                static_cast<double>(c.force_evals),
            "ns/link");
    out.add("core.links_per_particle",
            static_cast<double>(now_c.links_core + now_c.links_halo) /
                static_cast<double>(now_c.particles),
            "links/particle");
    out.add("core.contacts_per_step", static_cast<double>(c.contacts) / steps,
            "count/step");
    out.add("core.update_ns_per_particle",
            1e9 * max_phase({Phase::kUpdate}) /
                static_cast<double>(c.position_updates),
            "ns/particle");
  }
  if (threaded(s)) {
    double imbalance = 0.0;
    for (const auto& c : win) {
      imbalance = std::max(imbalance, c.thread_imbalance());
    }
    out.add("reduction.force_ms_per_step." + cfg,
            1e3 * max_phase({Phase::kForce}) / steps, "ms/step");
    out.add("reduction.thread_imbalance." + cfg, imbalance, "ratio");
    out.add("reduction.color_barriers_per_step." + cfg,
            sum_count(&hdem::Counters::color_barriers) / steps, "count/step");
    out.add("smp.regions_per_step." + cfg,
            sum_count(&hdem::Counters::parallel_regions) / steps,
            "count/step");
    out.add("smp.barriers_per_step." + cfg,
            sum_count(&hdem::Counters::barriers) / steps, "count/step");
  }
  if (decomposed(s)) {
    double exposed = 0.0;
    for (const auto& c : win) {
      exposed = std::max(exposed, static_cast<double>(c.exposed_wait_ns));
    }
    double halo = 0.0, core = 0.0;
    for (const auto& rc : r.ranks) {
      halo += static_cast<double>(rc.after.halo_particles);
      core += static_cast<double>(rc.after.particles);
    }
    out.add("mp.msgs_per_step." + cfg,
            sum_count(&hdem::Counters::msgs_sent) / steps, "count/step");
    out.add("mp.bytes_per_step." + cfg,
            sum_count(&hdem::Counters::bytes_sent) / steps, "B/step");
    out.add("mp.exposed_wait_ms_per_step." + cfg, 1e-6 * exposed / steps,
            "ms/step");
    out.add("mp.collective_ms_per_step." + cfg,
            1e3 * max_phase({Phase::kCollective}) / steps, "ms/step");
    out.add("decomp.halo_ms_per_step." + cfg,
            1e3 * max_phase({Phase::kHaloSwap, Phase::kHaloWait}) / steps,
            "ms/step");
    out.add("decomp.halo_fraction." + cfg, halo / core, "ratio");
    const double per_rebuild = rebuilds > 0 ? rebuilds : -1.0;
    out.add("decomp.migrate_ms_per_rebuild." + cfg,
            1e3 * max_phase({Phase::kMigrate}) / per_rebuild, "ms/rebuild");
    out.add("decomp.halo_build_ms_per_rebuild." + cfg,
            1e3 * max_phase({Phase::kHaloBuild}) / per_rebuild, "ms/rebuild");
    out.add("decomp.migrated_per_rebuild." + cfg,
            sum_count(&hdem::Counters::migrated_particles) / per_rebuild,
            "count/rebuild");
  }
}

// Traced sim half.  Adds the traced and muted window seconds to
// `traced_s` / `untraced_s` for trace.overhead_frac.
template <int D>
void sim_traced(const SimWorkload& w, std::uint64_t seed, SpanLog& log,
                Metrics& out, Tally& tally, double& traced_s,
                double& untraced_s) {
  auto& tracer = hdem::trace::Tracer::global();
  const SimInput<D> in = make_input<D>(w, seed);
  std::vector<hdem::StateRecord<D>> reference;
  for (const Scheme s : kSchemes) {
    tracer.clear();
    const std::size_t first = log.size();
    const std::int64_t root =
        log.add({scheme_name(s), now(), 0.0, -1, static_cast<int>(s)});
    const WindowRule rule{w.warmup, w.window * w.windows, w.trace_cap};
    ConfigRun<D> r = run_scheme<D>(s, in.cfg, in.init, w.blocks_per_proc,
                                   rule, {&log, root});
    log.set_end(root, now());
    const auto events = tracer.events();
    tracer.clear();
    scheme_layers<D>(s, log, first, events, r, out);
    check_run<D>(s, in, r, reference, tally);
    traced_s += r.window_s;
    // The same steps again with the tracer muted on every driving thread.
    const WindowRule same{w.warmup, r.window_steps, 0};
    const ConfigRun<D> q = run_scheme<D>(s, in.cfg, in.init,
                                         w.blocks_per_proc, same, {}, true);
    untraced_s += q.window_s;
    check_run<D>(s, in, q, reference, tally);
    std::printf("traced %s: %llu steps, %.3f s traced, %.3f s muted\n",
                scheme_name(s), static_cast<unsigned long long>(r.window_steps),
                r.window_s, q.window_s);
    if (s == Scheme::kSerial) reference = std::move(r.state);
  }
}

}  // namespace perfbench

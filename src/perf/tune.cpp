#include "perf/tune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "perf/fit.hpp"
#include "perf/measure.hpp"
#include "perf/report.hpp"
#include "trace/tracer.hpp"

namespace hdem::perf {

namespace {

MeasureSpec to_measure_spec(const Workload& w, const RunKnobs& c,
                            std::uint64_t iterations, std::uint64_t warmup,
                            double min_seconds) {
  MeasureSpec s{c, w};
  if (c.nprocs > 1) {
    s.mode = c.nthreads > 1 ? MeasureSpec::Mode::kHybrid
                            : MeasureSpec::Mode::kMp;
  } else {
    s.mode = c.nthreads > 1 ? MeasureSpec::Mode::kSmp
                            : MeasureSpec::Mode::kSerial;
  }
  s.warmup = warmup;
  s.iterations = iterations;
  s.min_seconds = min_seconds;
  s.trace = true;
  return s;
}

// Per-phase and per-rank aggregation of one traced window.
struct PhaseTotals {
  double by_phase[trace::kPhaseCount] = {};
  std::map<std::int32_t, double> compute_by_rank;  // force+update seconds
};

PhaseTotals aggregate(const std::vector<trace::Event>& events) {
  PhaseTotals t;
  for (const trace::Event& e : events) {
    const double dt = e.t_end - e.t_start;
    t.by_phase[static_cast<int>(e.phase)] += dt;
    if (e.phase == trace::Phase::kForce || e.phase == trace::Phase::kUpdate) {
      t.compute_by_rank[e.rank] += dt;
    }
  }
  return t;
}

double phase_total(const PhaseTotals& t, trace::Phase p) {
  return t.by_phase[static_cast<int>(p)];
}

}  // namespace

TuneRow measure_tune_point(const Workload& w, const RunKnobs& c,
                           std::uint64_t iterations, std::uint64_t warmup,
                           double min_seconds, int reps) {
  auto& tracer = trace::Tracer::global();
  const bool was_enabled = tracer.enabled();
  TuneRow best;
  bool have = false;
  for (int rep = 0; rep < std::max(reps, 1); ++rep) {
    tracer.enable(true);  // resets epoch and wipes prior events
    const RunMeasurement out = measure_run(
        to_measure_spec(w, c, iterations, warmup, min_seconds));
    const PhaseTotals totals = aggregate(tracer.events());
    tracer.enable(false);

    TuneRow row;
    row.workload = out.workload;
    row.config = out.knobs;
    row.iterations = out.iterations;
    const double iters =
        static_cast<double>(out.iterations ? out.iterations : 1);
    const double ranks = static_cast<double>(std::max(out.knobs.nprocs, 1));
    const double per_step = 1.0 / (ranks * iters);  // mean over ranks
    row.step_seconds = out.host_seconds / iters;
    row.force_s = (phase_total(totals, trace::Phase::kForce) +
                   phase_total(totals, trace::Phase::kUpdate)) *
                  per_step;
    row.rebuild_s = (phase_total(totals, trace::Phase::kLinkBuild) +
                     phase_total(totals, trace::Phase::kHaloBuild)) *
                    per_step;
    row.halo_wire_s = phase_total(totals, trace::Phase::kHaloSwap) * per_step;
    // Arrival slack, not comm work: kept out of the named sum so other_s
    // (the slack phase the fit prices per rank/thread) absorbs it.
    row.halo_wait_s = phase_total(totals, trace::Phase::kHaloWait) * per_step;
    row.halo_shared_s =
        phase_total(totals, trace::Phase::kHaloShared) * per_step;
    row.migrate_s = phase_total(totals, trace::Phase::kMigrate) * per_step;
    row.rebalance_s =
        phase_total(totals, trace::Phase::kRebalance) * per_step;
    const double named = row.force_s + row.rebuild_s + row.halo_wire_s +
                         row.halo_shared_s + row.migrate_s + row.rebalance_s;
    row.other_s = std::max(0.0, row.step_seconds - named);
    row.rebuilds_per_step =
        static_cast<double>(out.agg.rebuilds) / (ranks * iters);
    if (totals.compute_by_rank.size() > 1) {
      double sum = 0.0, peak = 0.0;
      for (const auto& [rank, secs] : totals.compute_by_rank) {
        sum += secs;
        peak = std::max(peak, secs);
      }
      if (sum > 0.0) {
        row.imbalance =
            peak * static_cast<double>(totals.compute_by_rank.size()) / sum;
      }
    }
    if (!have || row.step_seconds < best.step_seconds) {
      best = row;
      have = true;
    }
  }
  tracer.enable(was_enabled);
  return best;
}

std::vector<TuneRow> run_sweep(const SweepSpec& spec) {
  std::vector<RunKnobs> grid;
  for (const int p : spec.procs) {
    for (const int t : spec.threads) {
      if (spec.max_cpus > 0 && p * t > spec.max_cpus) continue;
      for (const int b : spec.blocks) {
        // blocks_per_proc only shapes decomposed runs; measuring the same
        // undecomposed point once per B would just duplicate rows.
        if (p == 1 && b != spec.blocks.front()) continue;
        for (const double skin : spec.skins) {
          RunKnobs c = spec.fixed;
          c.nprocs = p;
          c.nthreads = t;
          c.blocks_per_proc = p == 1 ? 1 : b;
          c.skin_factor = skin;
          grid.push_back(c);
        }
      }
    }
  }
  // Interleave repetitions across the grid (rep-major, not config-major):
  // a noisy epoch on a shared host then degrades one rep of every config
  // instead of every rep of one config, and keep-fastest recovers.
  std::vector<TuneRow> rows(grid.size());
  for (int rep = 0; rep < std::max(spec.reps, 1); ++rep) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      TuneRow row = measure_tune_point(spec.workload, grid[i], spec.iterations,
                                       spec.warmup, spec.min_seconds, 1);
      if (rep == 0 || row.step_seconds < rows[i].step_seconds) {
        rows[i] = row;
      }
    }
  }
  return rows;
}

// --- serialisation ---------------------------------------------------------

namespace {

// The measured columns after the workload and knob columns, in file order.
struct MeasuredColumn {
  const char* name;
  double TuneRow::*field;
};
constexpr MeasuredColumn kMeasuredColumns[] = {
    {"rebuild_rate", &TuneRow::rebuilds_per_step},
    {"imbalance", &TuneRow::imbalance},
    {"force_s", &TuneRow::force_s},
    {"rebuild_s", &TuneRow::rebuild_s},
    {"halo_wire_s", &TuneRow::halo_wire_s},
    {"halo_shared_s", &TuneRow::halo_shared_s},
    {"halo_wait_s", &TuneRow::halo_wait_s},
    {"migrate_s", &TuneRow::migrate_s},
    {"rebalance_s", &TuneRow::rebalance_s},
    {"other_s", &TuneRow::other_s},
    {"step_s", &TuneRow::step_seconds},
};

}  // namespace

std::string format_tune_rows(std::span<const TuneRow> rows) {
  std::ostringstream os;
  os.precision(9);
  os << "# hdem-tune v3\n";
  os << "# " << host_report() << "\n";
  os << "# per-phase *_s columns: seconds per step, mean over ranks; step_s:"
        " slowest rank's wall per step\n";
  os << "# columns: scenario D n rc velocity stride cluster";
  for_each_knob(RunKnobs{}, [&](const char* name, const auto&) {
    os << ' ' << name;
  });
  os << " iters";
  for (const MeasuredColumn& c : kMeasuredColumns) os << ' ' << c.name;
  os << '\n';
  for (const TuneRow& r : rows) {
    const Workload& w = r.workload;
    os << to_string(w.scenario) << ' ' << w.D << ' ' << w.n << ' '
       << w.rc_factor << ' ' << w.velocity_scale << ' ' << w.settled_stride
       << ' ' << w.cluster_fraction;
    for_each_knob(r.config, [&](const char*, const auto& v) {
      using T = std::decay_t<decltype(v)>;
      os << ' ';
      if constexpr (std::is_same_v<T, bool>) {
        os << (v ? 1 : 0);
      } else if constexpr (std::is_same_v<T, ReductionKind>) {
        os << to_string(v);
      } else {
        os << v;
      }
    });
    os << ' ' << r.iterations;
    for (const MeasuredColumn& c : kMeasuredColumns) os << ' ' << r.*c.field;
    os << '\n';
  }
  return os.str();
}

std::vector<TuneRow> parse_tune_rows(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> names;
  std::vector<TuneRow> rows;
  while (std::getline(in, line)) {
    if (line.rfind("# columns:", 0) == 0) {
      std::istringstream hs(line.substr(10));
      std::string name;
      names.clear();
      while (hs >> name) names.push_back(name);
      continue;
    }
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;
    if (names.empty()) {
      throw std::invalid_argument(
          "parse_tune_rows: data before the '# columns:' header");
    }
    if (tokens.size() < names.size()) {
      throw std::invalid_argument(
          "parse_tune_rows: row has " + std::to_string(tokens.size()) +
          " token(s), header names " + std::to_string(names.size()) +
          " columns");
    }
    const auto field = [&](const std::string& name) -> const std::string& {
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name) return tokens[i];
      }
      throw std::invalid_argument(
          "parse_tune_rows: file header is missing required column '" + name +
          "'");
    };
    const auto reject = [&](const std::string& name, const char* why) {
      throw std::invalid_argument("parse_tune_rows: column '" + name +
                                  "' holds '" + field(name) + "', " + why);
    };
    const auto num = [&](const std::string& name) {
      const std::string& token = field(name);
      double v = 0.0;
      std::size_t used = 0;
      try {
        v = std::stod(token, &used);
      } catch (const std::logic_error&) {  // no number, or past double's range
        reject(name, "not a number");
      }
      if (used != token.size()) reject(name, "not a number");
      if (!std::isfinite(v)) reject(name, "not a finite number");
      return v;
    };
    // An integer column, range-checked before the cast.
    const auto integer = [&]<class T>(const std::string& name, T lo) {
      const double v = num(name);
      if (v != std::floor(v)) reject(name, "not an integer");
      if (v < static_cast<double>(lo)) reject(name, "below its minimum");
      if (v >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
        reject(name, "out of range");
      }
      return static_cast<T>(v);
    };
    TuneRow r;
    Workload& w = r.workload;
    w.scenario = scenario_from_string(field("scenario"));
    w.D = integer("D", 2);
    if (w.D > 3) reject("D", "not 2 or 3");
    w.n = integer("n", std::uint64_t{1});
    w.rc_factor = num("rc");
    w.velocity_scale = num("velocity");
    w.settled_stride = integer("stride", std::uint64_t{0});
    w.cluster_fraction = num("cluster");
    for_each_knob(r.config, [&](const char* name, auto& v) {
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_same_v<T, ReductionKind>) {
        if (!reduction_from_string(field(name), v)) {
          throw std::invalid_argument(
              "parse_tune_rows: unknown reduction '" + field(name) + "'");
        }
      } else if constexpr (std::is_same_v<T, bool>) {
        v = num(name) != 0.0;
      } else if constexpr (std::is_integral_v<T>) {
        // P, T and B count from 1; ranks_per_node 0 means one node.
        const bool count = std::string_view(name) != "ranks_per_node";
        v = integer(name, T{count ? 1 : 0});
      } else {
        v = num(name);
      }
    });
    r.config.validate();
    r.iterations = integer("iters", std::uint64_t{1});
    for (const MeasuredColumn& c : kMeasuredColumns) {
      r.*c.field = num(c.name);
      if (r.*c.field < 0.0) reject(c.name, "negative");
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string save_tune_rows(const std::string& name,
                           std::span<const TuneRow> rows) {
  const std::filesystem::path dir =
      std::filesystem::path(results_dir()) / "tune";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / name;
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_tune_rows: cannot open " + path.string());
  }
  out << format_tune_rows(rows);
  return path.string();
}

std::vector<TuneRow> load_tune_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_tune_rows: cannot open " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return parse_tune_rows(os.str());
}

std::vector<TuneRow> load_or_measure_tune_rows(
    const std::string& path, const std::string& sweep,
    const std::function<std::vector<TuneRow>()>& measure) {
  if (!std::filesystem::exists(path)) {
    std::printf("auto: no tune file at %s; measuring a %s sweep...\n",
                path.c_str(), sweep.c_str());
  } else {
    try {
      auto rows = load_tune_rows(path);
      std::printf("auto: fitting scaling model from %s\n", path.c_str());
      return rows;
    } catch (const std::logic_error& e) {  // a parse error
      std::printf("auto: cannot use %s (%s); measuring a %s sweep...\n",
                  path.c_str(), e.what(), sweep.c_str());
    }
  }
  auto rows = measure();
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  if (!out) {
    throw std::runtime_error("load_or_measure_tune_rows: cannot open " + path);
  }
  out << format_tune_rows(rows);
  std::printf("auto: saved %zu measurement rows to %s\n", rows.size(),
              path.c_str());
  return rows;
}

// --- fitting ---------------------------------------------------------------

namespace {

double phase_target(int phase, const TuneRow& r) {
  switch (phase) {
    case FittedModel::kForce: return r.force_s;
    case FittedModel::kRebuild: return r.rebuild_s;
    case FittedModel::kHalo: return r.halo_s();
    case FittedModel::kMigrate: return r.migrate_s;
    case FittedModel::kRebalance: return r.rebalance_s;
    case FittedModel::kOther: return r.other_s;
  }
  return 0.0;
}

}  // namespace

FittedModel fit_model(std::span<const TuneRow> rows) {
  if (rows.empty()) {
    throw std::invalid_argument("fit_model: no measurement rows");
  }
  FittedModel m;
  // Class-rate table: mean rebuild rate and imbalance per (scenario, skin).
  std::vector<std::size_t> counts;
  for (const TuneRow& r : rows) {
    std::size_t k = 0;
    while (k < m.rates.size() &&
           !(m.rates[k].scenario == r.workload.scenario &&
             std::abs(m.rates[k].skin - r.config.skin_factor) < 1e-12)) {
      ++k;
    }
    if (k == m.rates.size()) {
      m.rates.push_back(
          {r.workload.scenario, r.config.skin_factor, 0.0, 0.0});
      counts.push_back(0);
    }
    m.rates[k].rebuilds_per_step += r.rebuilds_per_step;
    m.rates[k].imbalance += r.imbalance;
    ++counts[k];
  }
  for (std::size_t k = 0; k < m.rates.size(); ++k) {
    m.rates[k].rebuilds_per_step /= static_cast<double>(counts[k]);
    m.rates[k].imbalance /= static_cast<double>(counts[k]);
  }

  // Per-phase fits.  Fitting uses each row's own measured rebuild rate;
  // the class table above only serves prediction of unseen configs.
  for (int p = 0; p < FittedModel::kPhaseCount; ++p) {
    std::vector<double> x;
    std::vector<double> y;
    std::size_t nrows = 0;
    for (const TuneRow& r : rows) {
      const auto f = FittedModel::features(p, r.workload, r.config,
                                           r.rebuilds_per_step);
      bool all_zero = true;
      for (const double v : f) all_zero = all_zero && v == 0.0;
      if (all_zero) continue;  // phase absent for this config (halo at P=1)
      x.insert(x.end(), f.begin(), f.end());
      y.push_back(phase_target(p, r));
      ++nrows;
    }
    if (nrows == 0) continue;  // phase never measured; coefficients stay 0
    const PrunedPhaseFit fit =
        fit_phase_pruned(x, nrows, FittedModel::kFeatureCount, y);
    for (int j = 0; j < FittedModel::kFeatureCount; ++j) {
      m.beta[static_cast<std::size_t>(p)][static_cast<std::size_t>(j)] =
          fit.fit.beta[static_cast<std::size_t>(j)];
    }
    m.mean_rel_error[static_cast<std::size_t>(p)] = fit.fit.mean_rel_error;
  }
  return m;
}

// --- prediction ------------------------------------------------------------

std::vector<RankedConfig> predict_ranked(
    const FittedModel& model, const Workload& w,
    std::span<const RunKnobs> candidates) {
  std::vector<RankedConfig> out;
  out.reserve(candidates.size());
  for (const RunKnobs& c : candidates) {
    RankedConfig rc;
    rc.config = c;
    rc.predicted = model.predict(w, c);
    rc.step_seconds = rc.predicted.total();
    rc.cpu_seconds = rc.step_seconds * c.nprocs * c.nthreads;
    out.push_back(std::move(rc));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedConfig& a, const RankedConfig& b) {
                     if (a.step_seconds != b.step_seconds) {
                       return a.step_seconds < b.step_seconds;
                     }
                     if (a.cpu_seconds != b.cpu_seconds) {
                       return a.cpu_seconds < b.cpu_seconds;
                     }
                     return a.config.nprocs * a.config.nthreads <
                            b.config.nprocs * b.config.nthreads;
                   });
  return out;
}

ServingChoice choose_serving(const FittedModel& model, const Workload& w,
                             const RunKnobs& job, bool latency_sensitive,
                             int max_threads,
                             double target_quantum_seconds) {
  ServingChoice choice;
  double best_score = 0.0;
  bool have = false;
  for (int t = 1; t <= std::max(max_threads, 1); ++t) {
    RunKnobs c = job;
    c.nthreads = t;
    const double step = model.predict(w, c).total();
    // Latency classes buy the fastest step; batch classes buy the
    // cheapest CPU-seconds, so a thread that speeds nothing up is left to
    // other jobs.  Ties go to the smaller team.
    const double score = latency_sensitive ? step : step * t;
    if (!have || score < best_score * (1.0 - 1e-12)) {
      best_score = score;
      choice.inner_threads = t;
      choice.predicted_step_seconds = step;
      have = true;
    }
  }
  const double step = std::max(choice.predicted_step_seconds, 1e-9);
  const double q = target_quantum_seconds / step;
  choice.quantum_steps = static_cast<std::uint64_t>(
      std::llround(std::clamp(q, 8.0, 256.0)));
  return choice;
}

}  // namespace hdem::perf

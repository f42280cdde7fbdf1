// Shared infrastructure for the paper-reproduction benches.
//
// Every bench follows the same recipe:
//   1. measure the real instrumented simulation at a reduced system size,
//   2. calibrate the serial kernel constants of the three paper platforms
//      against Tables 1/2 (once; shared),
//   3. ask the cost model for predicted per-iteration times at the paper's
//      one-million-particle scale, and
//   4. print the paper-style table + ASCII figure and save it under
//      results/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/init.hpp"
#include "core/particle_store.hpp"
#include "io/checkpoint.hpp"
#include "perf/calibrate.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "perf/measure.hpp"
#include "perf/paper_data.hpp"
#include "perf/report.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace hdem::bench {

struct BenchContext {
  std::uint64_t n2 = 48'000;   // particles for D = 2 measurements
  std::uint64_t n3 = 64'000;   // particles for D = 3 measurements
  std::uint64_t iters = 3;     // steady-state iterations per measurement
  std::uint64_t calib_n = 30'000;
  bool verbose = false;
  perf::MachineSpec t3e, sun, cpq;
  std::vector<perf::CalibrationResult> calibrations;  // T3E, Sun, CPQ

  std::uint64_t n_for(int D) const { return D == 2 ? n2 : n3; }

  const perf::MachineSpec& machine(const std::string& name) const {
    if (name == "T3E") return t3e;
    if (name == "Sun") return sun;
    return cpq;
  }
};

// Declare the common CLI options; call before cli.finish().
inline void declare_common_options(Cli& cli, BenchContext& ctx) {
  ctx.n2 = static_cast<std::uint64_t>(
      cli.integer("n2", static_cast<std::int64_t>(ctx.n2),
                  "particles for D=2 measurements"));
  ctx.n3 = static_cast<std::uint64_t>(
      cli.integer("n3", static_cast<std::int64_t>(ctx.n3),
                  "particles for D=3 measurements"));
  ctx.iters = static_cast<std::uint64_t>(
      cli.integer("iters", static_cast<std::int64_t>(ctx.iters),
                  "measured iterations per configuration"));
  ctx.verbose = cli.flag("verbose", "print raw measurements");
  if (cli.flag("full", "paper-scale measurements (1M particles; slow)")) {
    ctx.n2 = 1'000'000;
    ctx.n3 = 1'000'000;
    ctx.calib_n = 250'000;
  }
}

// Calibrate the three platforms' serial kernel constants against the
// paper's Tables 1 and 2, from real serial runs of this library.
inline void calibrate_platforms(BenchContext& ctx) {
  std::vector<perf::RunMeasurement> runs;
  for (bool reorder : {false, true}) {
    for (auto [D, rcf] : {std::pair{2, 1.5}, {2, 2.0}, {3, 1.5}, {3, 2.0}}) {
      perf::MeasureSpec s;
      s.D = D;
      s.n = ctx.calib_n;
      s.rc_factor = rcf;
      s.reorder = reorder;
      s.mode = perf::MeasureSpec::Mode::kSerial;
      s.iterations = ctx.iters;
      runs.push_back(perf::measure_run(s));
    }
  }
  ctx.calibrations.clear();
  for (const auto& base :
       {perf::t3e900(), perf::sun_hpc3500(), perf::compaq_es40_cluster()}) {
    std::vector<perf::CalibrationObservation> obs;
    for (const auto& r : runs) {
      obs.push_back({r, perf::paper_serial_seconds(
                            base.name, r.workload.D, r.workload.rc_factor,
                            r.knobs.reorder)});
    }
    auto res = perf::calibrate(base, obs, perf::kPaperParticles);
    if (base.name == "T3E") ctx.t3e = res.spec;
    if (base.name == "Sun") ctx.sun = res.spec;
    if (base.name == "CPQ") ctx.cpq = res.spec;
    ctx.calibrations.push_back(std::move(res));
  }
}

// Predicted per-iteration seconds on `machine` for `run`, extrapolated to
// the paper's one-million-particle system.
inline double predict_paper_seconds(const perf::MachineSpec& machine,
                                    const perf::RunMeasurement& run,
                                    int ranks_per_node) {
  const auto layout =
      perf::paper_scale_layout(run, ranks_per_node, perf::kPaperParticles);
  return perf::CostModel::predict(machine, run, layout).total();
}

// How many MPI ranks share an SMP node on this machine for a pure
// message-passing run that fills nodes before spilling to the next one.
inline int mpi_ranks_per_node(const perf::MachineSpec& machine, int nprocs) {
  return nprocs < machine.cpus_per_node ? nprocs : machine.cpus_per_node;
}

// Print to stdout and save the same content under results/<name>.
inline void emit(const std::string& name, const std::string& content) {
  std::fputs(content.c_str(), stdout);
  std::fflush(stdout);
  perf::save_artifact(name, content);
}

// -- JSON emit helpers for the BENCH_*.json artifacts --------------------
// Escaping and number formatting in one place instead of per-bench
// ostringstream incantations; non-finite numbers become null so a NaN in
// a measurement can never produce an unparseable artifact.

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_str(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

inline std::string json_bool(bool v) { return v ? "true" : "false"; }

// Comma placement handled once; values arrive already rendered (use
// json_num/json_str/json_bool or a nested render()).
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    os_ << (first_ ? "" : ", ") << json_str(key) << ": " << value;
    first_ = false;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_num(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, json_bool(v));
  }
  std::string render() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

class JsonArray {
 public:
  JsonArray& push(const std::string& value) {
    os_ << (first_ ? "" : ", ") << value;
    first_ = false;
    return *this;
  }
  std::string render() const { return "[" + os_.str() + "]"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

inline std::string calibration_report(const BenchContext& ctx) {
  Table t({"platform", "t_pair(ns)", "t_pair3(ns)", "t_update(ns)",
           "t_contact(ns)", "t_mem_l1(ns)", "t_mem(ns)", "mean|rel err|",
           "max|rel err|"});
  for (const auto& c : ctx.calibrations) {
    t.add_row({c.spec.name, Table::num(c.spec.t_pair * 1e9, 1),
               Table::num(c.spec.t_pair3 * 1e9, 1),
               Table::num(c.spec.t_update * 1e9, 1),
               Table::num(c.spec.t_contact * 1e9, 1),
               Table::num(c.spec.t_mem_l1 * 1e9, 1),
               Table::num(c.spec.t_mem * 1e9, 1),
               Table::num(100 * c.mean_rel_error, 1) + "%",
               Table::num(100 * c.max_rel_error, 1) + "%"});
  }
  return "Serial kernel constants fitted to the paper's Tables 1 & 2:\n" +
         t.render() + "\n";
}

// Order-independent trajectory digest: FNV-1a over every particle's
// (id, pos, vel) record in id order, so storage order (which varies with
// the reorder flag and the decomposition) never affects the hash.
template <int D>
std::uint64_t trajectory_digest(std::vector<StateRecord<D>> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& r : recs) {
    fold(&r.id, sizeof(r.id));
    fold(&r.pos, sizeof(r.pos));
    fold(&r.vel, sizeof(r.vel));
  }
  return h;
}

template <int D>
std::uint64_t trajectory_digest(const ParticleStore<D>& store) {
  return trajectory_digest<D>(io::snapshot_store(store));
}

// Bit-for-bit equality of two snapshots (same ids in the same order, same
// position and velocity bytes).
template <int D>
bool records_identical(const std::vector<StateRecord<D>>& a,
                       const std::vector<StateRecord<D>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].pos, &b[i].pos, sizeof(Vec<D>)) != 0 ||
        std::memcmp(&a[i].vel, &b[i].vel, sizeof(Vec<D>)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace hdem::bench

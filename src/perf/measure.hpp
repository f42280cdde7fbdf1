// Measurement harness: run one configuration of the paper's benchmark
// system under any driver and return its record (perf/cost_model.hpp):
// the workload and knobs that ran, the aggregated steady-state counters
// the cost model prices, and the host wall clock.
//
// Following the paper's procedure, the measured window covers force
// computation, position updates and halo swaps only — "we exclude the link
// generation as this represents a small overhead in a real simulation".
// (The default velocity scale keeps the link list valid across the short
// measured window, so no rebuild lands inside it.)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "core/init.hpp"
#include "decomp/layout.hpp"
#include "driver/knobs.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "mp/comm.hpp"
#include "perf/cost_model.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

namespace hdem::perf {

// The run knobs (driver/knobs.hpp), the workload (core/init.hpp) and the
// window.
struct MeasureSpec : RunKnobs, Workload {
  // kSerial is the serial driver: kSmp on a one-member team with the
  // colored reduction, whatever nthreads, reduction and steal say.  kSerial
  // and kSmp run one undecomposed block, whatever nprocs and
  // blocks_per_proc say.  kMp runs MpSim at T = 1, whatever nthreads says
  // (at P = 1 it is MpSim on one rank).  The record holds the knobs after
  // these overrides.
  enum class Mode { kSerial, kSmp, kMp, kHybrid };

  Mode mode = Mode::kSerial;
  // Widens the paper-density box, e.g. so a settled lattice's spacing
  // clears rc.
  double box_scale = 1.0;
  // Steps before the measured window (≥ 1 keeps a settle step; raise it so
  // an adaptive run crosses a rebuild and adopts its table first).
  std::uint64_t warmup = 1;
  std::uint64_t iterations = 4;
  std::uint64_t seed = 12345;
  // Per-phase tracing for the tune sweep: the global tracer is cleared
  // after warmup (behind a barrier on the mp paths) so the recorded events
  // cover exactly the measured window.  The caller owns enabling
  // trace::Tracer::global() and reading its events afterwards.
  bool trace = false;
  // Minimum wall-clock for the measured window: when > 0, measure_run
  // re-runs with a doubled iteration count until the window spans this
  // many seconds, so a fast host can never return a zero-duration (and
  // hence NaN-producing) measurement.
  double min_seconds = 0.0;
};

namespace detail {

template <int D>
RunMeasurement measure_impl(const MeasureSpec& spec) {
  RunMeasurement out;
  out.workload = spec;
  out.knobs = spec;
  out.iterations = spec.iterations;
  // The mode's overrides, so that the record holds the knobs that ran.
  RunKnobs& knobs = out.knobs;
  const bool serial = spec.mode == MeasureSpec::Mode::kSerial;
  const bool undecomposed = serial || spec.mode == MeasureSpec::Mode::kSmp;
  if (serial) {
    knobs.nthreads = 1;
    knobs.reduction = ReductionKind::kColored;
    knobs.steal = false;
  }
  if (undecomposed) {
    knobs.nprocs = 1;
    knobs.blocks_per_proc = 1;
  }
  if (spec.mode == MeasureSpec::Mode::kMp) knobs.nthreads = 1;

  SimConfig<D> cfg = workload_config<D>(out.workload, knobs);
  cfg.box *= spec.box_scale;
  cfg.seed = spec.seed;
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  const auto init = workload_particles<D>(cfg, out.workload);

  if (undecomposed) {
    SmpSim<D> sim(cfg, model, init, knobs.nthreads, knobs.reduction,
                  knobs.steal);
    // Settle into the steady state.
    for (std::uint64_t w = 0; w < spec.warmup; ++w) sim.step();
    if (spec.trace) trace::Tracer::global().clear();
    const Counters before = sim.counters();
    Timer timer;
    sim.run(spec.iterations);
    out.host_seconds = timer.seconds();
    out.agg = counters_delta(sim.counters(), before);
    return out;
  }

  const int p = knobs.nprocs;
  const auto layout = DecompLayout<D>::make(p, knobs.blocks_per_proc);
  std::vector<Counters> rank_counters(static_cast<std::size_t>(p));
  std::vector<double> rank_seconds(static_cast<std::size_t>(p), 0.0);
  std::vector<std::uint64_t> bytes_matrix(static_cast<std::size_t>(p) * p, 0);
  std::vector<std::uint64_t> msgs_matrix(static_cast<std::size_t>(p) * p, 0);
  const MpOptions& opts = knobs;
  mp::run(p, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm, model, init, opts);
    for (std::uint64_t w = 0; w < spec.warmup; ++w) sim.step();
    if (spec.trace) {
      // Fence so no rank's warmup events land after the wipe and no
      // measured event is wiped.
      comm.barrier();
      if (comm.rank() == 0) trace::Tracer::global().clear();
      comm.barrier();
    }
    const Counters before = sim.counters();
    const auto bytes_before = comm.bytes_to();
    const auto msgs_before = comm.msgs_to();
    Timer timer;
    sim.run(spec.iterations);
    const double secs = timer.seconds();
    const int r = comm.rank();
    rank_counters[static_cast<std::size_t>(r)] =
        counters_delta(sim.counters(), before);
    rank_seconds[static_cast<std::size_t>(r)] = secs;
    for (int dst = 0; dst < p; ++dst) {
      const auto idx = static_cast<std::size_t>(r) * p + dst;
      bytes_matrix[idx] = comm.bytes_to()[static_cast<std::size_t>(dst)] -
                          bytes_before[static_cast<std::size_t>(dst)];
      msgs_matrix[idx] = comm.msgs_to()[static_cast<std::size_t>(dst)] -
                         msgs_before[static_cast<std::size_t>(dst)];
    }
  });
  for (const auto& c : rank_counters) out.agg.merge(c);
  out.per_rank = std::move(rank_counters);
  out.bytes_matrix = std::move(bytes_matrix);
  out.msgs_matrix = std::move(msgs_matrix);
  for (const double s : rank_seconds) {
    if (s > out.host_seconds) out.host_seconds = s;
  }
  return out;
}

}  // namespace detail

inline RunMeasurement measure_run(const MeasureSpec& spec) {
  if (spec.D != 2 && spec.D != 3) {
    throw std::invalid_argument("measure_run: D must be 2 or 3");
  }
  MeasureSpec s = spec;
  for (;;) {
    RunMeasurement out = s.D == 2 ? detail::measure_impl<2>(s)
                                  : detail::measure_impl<3>(s);
    // Minimum-duration re-run: double the window until the host clock can
    // resolve it (bounded so a pathological min_seconds cannot spin).
    if (s.min_seconds <= 0.0 || out.host_seconds >= s.min_seconds ||
        s.iterations >= (1ull << 22)) {
      return out;
    }
    s.iterations = s.iterations ? s.iterations * 2 : 1;
  }
}

}  // namespace hdem::perf

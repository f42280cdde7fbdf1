// Measurement harness: run one configuration of the paper's benchmark
// system under any driver and return the aggregated steady-state counters
// as a RunMeasurement for the cost model.
//
// Following the paper's procedure, the measured window covers force
// computation, position updates and halo swaps only — "we exclude the link
// generation as this represents a small overhead in a real simulation".
// (The default velocity scale keeps the link list valid across the short
// measured window, so no rebuild lands inside it.)
#pragma once

#include <cstdint>
#include <mutex>
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
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace hdem::perf {

// The run knobs (driver/knobs.hpp), the workload (core/init.hpp) and the
// window.
struct MeasureSpec : RunKnobs, Workload {
  // kSerial is the serial driver: kSmp on a one-member team with the
  // colored reduction, whatever nthreads, reduction and steal say.  kMp
  // runs MpSim at T = 1, whatever nthreads says.
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

// RunMeasurement plus the host wall-clock for the measured window.
struct MeasuredRun {
  RunMeasurement run;
  double host_seconds = 0.0;  // whole window, slowest rank
  double host_seconds_per_iter() const {
    return run.iterations ? host_seconds / static_cast<double>(run.iterations)
                          : 0.0;
  }
};

namespace detail {

template <int D>
MeasuredRun measure_impl(const MeasureSpec& spec) {
  SimConfig<D> cfg = workload_config<D>(spec, spec);
  cfg.box *= spec.box_scale;
  cfg.seed = spec.seed;
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  const auto init = workload_particles<D>(cfg, spec);

  MeasuredRun out;
  out.run.D = D;
  out.run.n_global = spec.n;
  out.run.rc_factor = spec.rc_factor;
  out.run.reordered = spec.reorder;
  out.run.nprocs = spec.nprocs;
  out.run.nthreads = spec.nthreads;
  out.run.overlap = spec.overlap;
  out.run.simd_width = simd::dispatch_width();
  out.run.iterations = spec.iterations;

  switch (spec.mode) {
    case MeasureSpec::Mode::kSerial:
    case MeasureSpec::Mode::kSmp: {
      const bool serial = spec.mode == MeasureSpec::Mode::kSerial;
      if (serial) out.run.nthreads = 1;
      out.run.nprocs = 1;
      out.run.nblocks = 1;
      SmpSim<D> sim(cfg, model, init, serial ? 1 : spec.nthreads,
                    serial ? ReductionKind::kColored : spec.reduction,
                    !serial && spec.steal);
      // Settle into the steady state.
      for (std::uint64_t w = 0; w < spec.warmup; ++w) sim.step();
      if (spec.trace) trace::Tracer::global().clear();
      const Counters before = sim.counters();
      Timer timer;
      sim.run(spec.iterations);
      out.host_seconds = timer.seconds();
      out.run.agg = counters_delta(sim.counters(), before);
      break;
    }
    case MeasureSpec::Mode::kMp:
    case MeasureSpec::Mode::kHybrid: {
      const int p = spec.nprocs;
      const auto layout = DecompLayout<D>::make(p, spec.blocks_per_proc);
      out.run.nblocks = layout.nblocks();
      std::vector<Counters> rank_counters(static_cast<std::size_t>(p));
      std::vector<double> rank_seconds(static_cast<std::size_t>(p), 0.0);
      std::vector<std::uint64_t> bytes_matrix(
          static_cast<std::size_t>(p) * p, 0);
      std::vector<std::uint64_t> msgs_matrix(static_cast<std::size_t>(p) * p,
                                             0);
      MpOptions opts = spec;
      if (spec.mode == MeasureSpec::Mode::kMp) opts.nthreads = 1;
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
      for (const auto& c : rank_counters) out.run.agg.merge(c);
      out.run.per_rank = std::move(rank_counters);
      out.run.bytes_matrix = std::move(bytes_matrix);
      out.run.msgs_matrix = std::move(msgs_matrix);
      for (const double s : rank_seconds) {
        if (s > out.host_seconds) out.host_seconds = s;
      }
      out.run.nthreads = opts.nthreads;
      break;
    }
  }
  return out;
}

}  // namespace detail

inline MeasuredRun measure_run(const MeasureSpec& spec) {
  if (spec.D != 2 && spec.D != 3) {
    throw std::invalid_argument("measure_run: D must be 2 or 3");
  }
  MeasureSpec s = spec;
  for (;;) {
    const MeasuredRun out = s.D == 2 ? detail::measure_impl<2>(s)
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

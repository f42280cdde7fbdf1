// Multi-tenant simulation jobs — one independent trajectory, resumable in
// step quanta.
//
// The single-run drivers own the whole machine for one trajectory; the
// serving layer turns a trajectory into a *job*: a scenario, a SimConfig,
// and a step budget behind a uniform advance(n_steps) interface
// (core/step_loop.hpp does the budget arithmetic), so a scheduler can
// interleave many jobs over one persistent thread team at step
// granularity.  Everything a job touches is private to it — simulation
// state, Counters, drift tracker, RNG stream — so a multiplexed
// trajectory is bit-identical to the same spec run standalone, which is
// the invariant the fig14 gates and tests/test_serve.cpp enforce.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/init.hpp"
#include "core/step_loop.hpp"
#include "driver/knobs.hpp"
#include "driver/smp_sim.hpp"
#include "io/checkpoint.hpp"
#include "util/rng.hpp"

namespace hdem::serve {

// Admission class: interactive jobs are preferred at every dequeue point
// so small latency-sensitive requests are never starved behind batch work
// (the step-quantum analogue of an inference server's priority lanes).
enum class DeadlineClass : std::uint8_t {
  kBatch,
  kInteractive,
};

inline const char* to_string(DeadlineClass c) {
  return c == DeadlineClass::kInteractive ? "interactive" : "batch";
}

inline DeadlineClass deadline_from_string(const std::string& s) {
  if (s == "interactive") return DeadlineClass::kInteractive;
  if (s == "batch") return DeadlineClass::kBatch;
  throw std::invalid_argument("deadline class must be interactive or batch, got '" + s + "'");
}

// The scenario registry is core's (core/init.hpp); serve::Scenario names
// the same enum.
using hdem::Scenario;

// One line of a job trace: what to simulate, for how many steps, and how
// urgently.  The spec is the complete description — rebuilding a job from
// an equal spec reproduces the trajectory bit for bit.
struct JobSpec {
  std::uint64_t job_id = 0;
  Scenario scenario = Scenario::kUniform;
  int dim = 2;                          // 2 or 3
  std::uint64_t n = 1000;               // particles
  std::uint64_t steps = 100;            // step budget
  DeadlineClass deadline = DeadlineClass::kBatch;
  std::uint64_t seed = 12345;           // trace-wide scenario seed
  double velocity_scale = 0.05;
  double skin_factor = 0.0;
  double clustered_fraction = 0.5;      // kClustered: occupied box fraction
  std::uint64_t settled_stride = 16;    // kSettled: every stride-th moves
  // Results stream through io/checkpoint.hpp: when checkpoint_path is set
  // the final state always lands there, and checkpoint_every > 0
  // additionally overwrites it during the run (a job-granular progress
  // stream the server's clients can poll).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  // Size of the job's own SmpSim team; > 1 is the one-team-per-job
  // baseline.  The default serves jobs on the serial driver (a one-member
  // team) and takes all parallelism from job-level multiplexing.
  int inner_threads = 1;
};

// Effective RNG seed of a job: jobs in one trace share a scenario seed and
// decorrelate by job id through the stream-split generator (util/rng.hpp).
// Standalone re-runs of the same spec derive the same value, which is what
// the bit-identity gates compare against.
inline std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job_id) {
  return Rng(seed, job_id).next_u64();
}

// The run knobs of a job: its skin, and its inner team on the
// undecomposed driver with the colored reduction.  Admission
// (perf::choose_serving) ranks inner-team sizes from these.
inline RunKnobs job_knobs(const JobSpec& spec) {
  RunKnobs k;
  k.skin_factor = spec.skin_factor;
  k.nthreads = spec.inner_threads;
  k.reduction = ReductionKind::kColored;
  return k;
}

// What a job simulates.  Admission (perf::choose_serving) predicts from
// it, and make_job builds the job's config and particles through it.
inline Workload job_workload(const JobSpec& spec) {
  return {.scenario = spec.scenario,
          .D = spec.dim,
          .n = spec.n,
          .velocity_scale = spec.velocity_scale,
          .settled_stride = spec.settled_stride,
          .cluster_fraction = spec.clustered_fraction};
}

// Type-erased resumable job.  A scheduler worker only ever needs four
// things: advance a quantum, ask whether the budget is spent, read the
// bit-reproducible work proxy, and snapshot the job's private counters.
class SimJob {
 public:
  explicit SimJob(const JobSpec& spec) : spec_(spec) {}
  virtual ~SimJob() = default;
  SimJob(const SimJob&) = delete;
  SimJob& operator=(const SimJob&) = delete;

  // Advance up to n steps; returns the number actually run (0 once the
  // budget is spent).  Handles the spec's checkpoint streaming.
  virtual std::uint64_t advance(std::uint64_t n) = 0;
  virtual bool done() const = 0;
  virtual std::uint64_t steps_done() const = 0;
  // Measured work proxy (force evaluations + position updates): the same
  // bit-reproducible wall-time stand-in the rebalancer's block costs use,
  // so scheduler accounting is identical across runs and hosts.
  virtual std::uint64_t cost_units() const = 0;
  // Snapshot of the job's private counter set.
  virtual Counters counters() const = 0;
  // Write the current state to spec().checkpoint_path (throws when unset).
  virtual void write_checkpoint() const = 0;

  const JobSpec& spec() const { return spec_; }

 protected:
  JobSpec spec_;
};

namespace detail {

// A job over the undecomposed driver: SmpSim on a team of
// spec.inner_threads with the colored reduction (a one-member team is the
// serial driver).
template <int D>
class DriverJob : public SimJob {
 public:
  DriverJob(const JobSpec& spec, SimConfig<D> cfg,
            std::unique_ptr<SmpSim<D>> sim)
      : SimJob(spec),
        cfg_(std::move(cfg)),
        sim_(std::move(sim)),
        loop_(*sim_, spec.steps) {}

  std::uint64_t advance(std::uint64_t n) override {
    const std::uint64_t run = loop_.advance(n);
    if (run == 0 || spec_.checkpoint_path.empty()) return run;
    const bool due = spec_.checkpoint_every > 0 &&
                     loop_.done() - last_written_ >= spec_.checkpoint_every;
    if (loop_.finished() || due) {
      write_checkpoint();
      last_written_ = loop_.done();
    }
    return run;
  }

  bool done() const override { return loop_.finished(); }
  std::uint64_t steps_done() const override { return loop_.done(); }

  std::uint64_t cost_units() const override {
    const Counters c = sim_->counters();
    return c.force_evals + c.position_updates;
  }

  Counters counters() const override { return sim_->counters(); }

  void write_checkpoint() const override {
    if (spec_.checkpoint_path.empty()) {
      throw std::logic_error("SimJob: no checkpoint_path configured");
    }
    io::write_checkpoint<D>(spec_.checkpoint_path, cfg_,
                            io::snapshot_store<D>(sim_->store()));
  }

 private:
  SimConfig<D> cfg_;
  std::unique_ptr<SmpSim<D>> sim_;
  StepLoop<SmpSim<D>> loop_;
  std::uint64_t last_written_ = 0;
};

template <int D>
std::unique_ptr<SimJob> make_job_d(const JobSpec& spec) {
  const RunKnobs knobs = job_knobs(spec);
  const Workload w = job_workload(spec);
  SimConfig<D> cfg = workload_config<D>(w, knobs);
  cfg.seed = job_seed(spec.seed, spec.job_id);
  const auto init = workload_particles<D>(cfg, w);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  auto sim = std::make_unique<SmpSim<D>>(cfg, model, init, knobs.nthreads,
                                         knobs.reduction);
  return std::make_unique<DriverJob<D>>(spec, cfg, std::move(sim));
}

}  // namespace detail

// Build a job from its spec.  Throws on a malformed spec (bad dimension,
// non-positive thread count, zero particles).
inline std::unique_ptr<SimJob> make_job(const JobSpec& spec) {
  if (spec.dim != 2 && spec.dim != 3) {
    throw std::invalid_argument("JobSpec: dim must be 2 or 3");
  }
  if (spec.inner_threads < 1) {
    throw std::invalid_argument("JobSpec: inner_threads must be >= 1");
  }
  if (spec.n == 0) {
    throw std::invalid_argument("JobSpec: n must be positive");
  }
  return spec.dim == 2 ? detail::make_job_d<2>(spec)
                       : detail::make_job_d<3>(spec);
}

}  // namespace hdem::serve

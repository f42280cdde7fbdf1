// The serve half of a workload: one serve::Scheduler on a 3-worker team,
// fed by one generator thread (4 threads in all).
//
// (a) Open loop: seeded Poisson arrivals at a fixed rate, in short
//     segments spread over the run.  Each job is built with make_job when
//     it is due and timed from its due time until its future is ready.
// (b) Closed drain: a fixed backlog of the same mix, built up front, run
//     to completion many times; capacity is jobs over makespan.
//
// Every job writes its final checkpoint; the output check reads each one
// back and re-runs a fixed sample standalone to compare bytes.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "metrics.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

inline constexpr int kServeWorkers = 3;
inline constexpr std::uint64_t kQuantumSteps = 32;
inline constexpr double kFailedLatencyMs = 1e6;  // over any limit

struct ServeWorkload {
  ServeMix mix;
  double segment_seconds = 0.0;        // arrivals per open-loop segment
  std::size_t min_interactive = 1000;  // pooled, so ten lie beyond p99
  std::size_t backlog = 0;             // jobs per closed drain
  int traced_drains = 0;               // traced/untraced pairs, traced run
  std::size_t standalone_sample = 2;   // jobs re-run standalone per segment
};

// Forwards every call to the real job and records a span per advance.
class TracedJob final : public hdem::serve::SimJob {
 public:
  TracedJob(std::unique_ptr<hdem::serve::SimJob> inner, SpanLog& log,
            std::int64_t parent)
      : SimJob(inner->spec()),
        inner_(std::move(inner)),
        log_(&log),
        parent_(parent) {}

  std::uint64_t advance(std::uint64_t n) override {
    const double t0 = now();
    const std::uint64_t ran = inner_->advance(n);
    log_->add({"advance", t0, now(), parent_,
               static_cast<std::int64_t>(spec_.job_id)});
    return ran;
  }
  bool done() const override { return inner_->done(); }
  std::uint64_t steps_done() const override { return inner_->steps_done(); }
  std::uint64_t cost_units() const override { return inner_->cost_units(); }
  hdem::Counters counters() const override { return inner_->counters(); }
  void write_checkpoint() const override { inner_->write_checkpoint(); }

 private:
  std::unique_ptr<hdem::serve::SimJob> inner_;
  SpanLog* log_;
  std::int64_t parent_;
};

struct JobRecord {
  hdem::serve::JobSpec spec;
  double due = 0.0;     // absolute due time
  double wake = 0.0;    // generator reached the arrival
  double submit = 0.0;  // just before Scheduler::submit
  double make_s = 0.0;  // make_job
  std::int64_t span = -1;
  std::future<hdem::serve::JobResult> future;
  std::optional<hdem::serve::JobResult> result;
  std::string error;
  bool failed() const { return !result.has_value(); }
  double latency_ms() const {
    return failed() ? kFailedLatencyMs
                    : 1e3 * (submit - due + result->wall_seconds);
  }
};

inline hdem::serve::Scheduler::Options pinned_scheduler_options() {
  hdem::serve::Scheduler::Options o;
  o.quantum_steps = kQuantumSteps;
  o.mute_trace = true;
  return o;
}

// Build one job (wrapped when traced); failures land in rec.error.
inline std::unique_ptr<hdem::serve::SimJob> build_job(JobRecord& rec,
                                                      SpanLog* log) {
  try {
    const double m0 = now();
    auto job = hdem::serve::make_job(rec.spec);
    const double m1 = now();
    rec.make_s = m1 - m0;
    if (log == nullptr) return job;
    const auto owner = static_cast<std::int64_t>(rec.spec.job_id);
    log->add({"make_job", m0, m1, -1, owner});
    rec.span = log->add({"job", 0.0, 0.0, -1, owner});
    return std::make_unique<TracedJob>(std::move(job), *log, rec.span);
  } catch (const std::exception& e) {
    rec.error = e.what();
    return nullptr;
  }
}

inline void collect(JobRecord& rec, SpanLog* log) {
  if (!rec.future.valid()) return;
  try {
    rec.result = rec.future.get();
    if (log && rec.span >= 0) {
      log->set_end(rec.span, rec.submit + rec.result->wall_seconds);
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
}

inline void submit(hdem::serve::Scheduler& sched, JobRecord& rec,
                   std::unique_ptr<hdem::serve::SimJob> job, SpanLog* log) {
  if (!job) return;
  rec.submit = now();
  if (log && rec.span >= 0) log->set_start(rec.span, rec.submit);
  rec.future = sched.submit(std::move(job));
}

// Check one served job; returns true when it passed.
inline bool check_job(const JobRecord& rec, Tally& tally) {
  std::vector<std::string> why;
  if (rec.failed()) {
    why.push_back("threw: " + rec.error);
  } else {
    if (rec.result->steps != rec.spec.steps) {
      why.push_back("ran " + std::to_string(rec.result->steps) +
                    " steps of " + std::to_string(rec.spec.steps));
    }
    const auto ck = check_job_checkpoint(rec.spec.checkpoint_path,
                                         rec.spec.dim, rec.spec.n);
    why.insert(why.end(), ck.begin(), ck.end());
  }
  tally.record(why.empty(), "job " + std::to_string(rec.spec.job_id), why);
  return why.empty();
}

// Re-run a job standalone and compare its checkpoint bytes with the
// multiplexed run's (the serving layer's multiplexing contract).
inline std::vector<std::string> standalone_matches(
    const JobRecord& rec, const std::string& scratch_path) {
  hdem::serve::JobSpec spec = rec.spec;
  spec.checkpoint_path = scratch_path;
  try {
    auto job = hdem::serve::make_job(spec);
    job->advance(spec.steps);
  } catch (const std::exception& e) {
    return {std::string("standalone run threw: ") + e.what()};
  }
  if (!same_bytes(rec.spec.checkpoint_path, scratch_path)) {
    return {"checkpoint bytes differ from the standalone run"};
  }
  return {};
}

template <int D>
double time_checkpoint_write(const std::string& path,
                             const std::string& scratch) {
  const auto ck = hdem::io::read_checkpoint<D>(path);
  const double t0 = now();
  hdem::io::write_checkpoint<D>(scratch, ck.config, ck.particles);
  return now() - t0;
}

// (b): drain one fixed backlog `drains` times; returns each drain's
// makespan in seconds.
inline std::vector<double> run_drains(const ServeWorkload& w,
                                      std::uint64_t seed, int drains,
                                      const std::string& dir, SpanLog* log,
                                      Tally& tally) {
  namespace fs = std::filesystem;
  hdem::smp::ThreadTeam team(kServeWorkers);
  // Ids far above the open loop's keep span owners and files apart.
  const auto backlog = job_backlog(seed, w.mix, w.backlog, 1u << 30);
  std::vector<double> makespans;
  for (int k = 0; k < drains; ++k) {
    std::vector<JobRecord> drain(backlog.size());
    hdem::serve::Scheduler sched(team, pinned_scheduler_options());
    for (std::size_t i = 0; i < backlog.size(); ++i) {
      drain[i].spec = backlog[i];
      drain[i].spec.checkpoint_path =
          dir + "/drain-" + std::to_string(backlog[i].job_id) + ".ckpt";
      submit(sched, drain[i], build_job(drain[i], log), log);
    }
    sched.close();
    const double t0 = now();
    sched.run();
    makespans.push_back(now() - t0);
    for (auto& rec : drain) {
      collect(rec, log);
      check_job(rec, tally);
      fs::remove(rec.spec.checkpoint_path);
    }
  }
  return makespans;
}

// Samples of one open-loop segment, or of several pooled.
struct OpenLoopSamples {
  std::vector<double> interactive_ms, batch_ms, late_ms, make_ms, queue_ms,
      write_ms;
  double quanta = 0.0;
  double bytes = 0.0;
  std::size_t jobs = 0;
  hdem::serve::ServeStats stats;  // busy time and worker costs, summed

  void merge(const OpenLoopSamples& o) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(interactive_ms, o.interactive_ms);
    append(batch_ms, o.batch_ms);
    append(late_ms, o.late_ms);
    append(make_ms, o.make_ms);
    append(queue_ms, o.queue_ms);
    append(write_ms, o.write_ms);
    quanta += o.quanta;
    bytes += o.bytes;
    jobs += o.jobs;
    stats.workers = o.stats.workers;
    stats.advance_ns += o.stats.advance_ns;
    stats.overhead_ns += o.stats.overhead_ns;
    stats.worker_cost_units.resize(o.stats.worker_cost_units.size(), 0);
    for (std::size_t k = 0; k < o.stats.worker_cost_units.size(); ++k) {
      stats.worker_cost_units[k] += o.stats.worker_cost_units[k];
    }
  }
};

// (a): segment `part` of the open loop -- `w.segment_seconds` of
// arrivals -- with its output check.
inline OpenLoopSamples open_loop(const ServeWorkload& w, std::uint64_t seed,
                                 std::uint64_t part, const std::string& dir,
                                 SpanLog* log, Tally& tally) {
  namespace fs = std::filesystem;
  using hdem::serve::DeadlineClass;
  OpenLoopSamples acc;
  hdem::smp::ThreadTeam team(kServeWorkers);
  const auto schedule =
      arrival_schedule(seed, w.mix, w.segment_seconds, 0, part);
  std::vector<JobRecord> jobs(schedule.size());
  {
    hdem::serve::Scheduler sched(team, pinned_scheduler_options());
    std::thread server([&] { sched.run(); });
    const double start = now() + 0.01;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      JobRecord& rec = jobs[i];
      rec.spec = schedule[i].spec;
      rec.spec.checkpoint_path =
          dir + "/open-" + std::to_string(rec.spec.job_id) + ".ckpt";
      rec.due = start + schedule[i].due;
      for (double left = rec.due - now(); left > 0.0; left = rec.due - now()) {
        if (left > 2e-4) {
          std::this_thread::sleep_for(std::chrono::duration<double>(left - 1e-4));
        } else {
          std::this_thread::yield();
        }
      }
      rec.wake = now();
      submit(sched, rec, build_job(rec, log), log);
    }
    sched.close();
    server.join();
    acc.stats = sched.stats();
  }
  for (auto& rec : jobs) collect(rec, log);

  const std::uint64_t first_id = part << 20;
  std::vector<double> advance_s(jobs.size(), 0.0);
  if (log) {
    for (const Span& s : log->snapshot()) {
      const auto i = static_cast<std::uint64_t>(s.owner) - first_id;
      if (std::string_view(s.name) == "advance" && s.owner >= 0 &&
          i < jobs.size()) {
        advance_s[i] += s.end - s.start;
      }
    }
  }
  acc.jobs += jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobRecord& rec = jobs[i];
    const bool ok = check_job(rec, tally);
    const bool interactive = rec.spec.deadline == DeadlineClass::kInteractive;
    (interactive ? acc.interactive_ms : acc.batch_ms)
        .push_back(rec.latency_ms());
    acc.late_ms.push_back(1e3 * (rec.wake - rec.due));
    acc.make_ms.push_back(1e3 * rec.make_s);
    if (!ok) continue;
    acc.quanta += static_cast<double>(rec.result->quanta);
    acc.bytes += static_cast<double>(fs::file_size(rec.spec.checkpoint_path));
    if (interactive) {
      acc.queue_ms.push_back(rec.latency_ms() - 1e3 * advance_s[i]);
    }
    if (log) {
      const std::string scratch = dir + "/rewrite.ckpt";
      acc.write_ms.push_back(
          1e3 * (rec.spec.dim == 2
                     ? time_checkpoint_write<2>(rec.spec.checkpoint_path, scratch)
                     : time_checkpoint_write<3>(rec.spec.checkpoint_path,
                                                scratch)));
    }
  }
  // Fixed standalone sample: evenly spaced over the segment.
  for (std::size_t k = 0; k < w.standalone_sample; ++k) {
    const std::size_t i = k * jobs.size() / w.standalone_sample;
    if (i >= jobs.size() || jobs[i].failed()) continue;
    const auto why = standalone_matches(jobs[i], dir + "/standalone.ckpt");
    tally.record(why.empty(),
                 "standalone job " + std::to_string(jobs[i].spec.job_id), why);
  }
  for (const auto& rec : jobs) fs::remove(rec.spec.checkpoint_path);
  fs::remove(dir + "/standalone.ckpt");
  fs::remove(dir + "/rewrite.ckpt");
  return acc;
}

// The open-loop latencies, pooled over every segment: diagnostics of a
// timed run (see README.md: they move by more than any bound between runs
// of the same code on a shared host), per-layer metrics of a traced run
// together with the rest of the serve and io layers.
inline void report_open_loop(const ServeWorkload& w,
                             const std::vector<OpenLoopSamples>& segments,
                             bool traced, Metrics& out) {
  OpenLoopSamples acc;
  for (const auto& s : segments) acc.merge(s);
  const int pm = reportable_permille(acc.interactive_ms.size());
  std::printf(
      "serve: %zu open-loop jobs (%zu interactive, %zu batch) in %zu "
      "segments at %.1f jobs/s, reportable interactive percentile p%g\n",
      acc.jobs, acc.interactive_ms.size(), acc.batch_ms.size(),
      segments.size(), w.mix.rate, pm / 10.0);
  std::printf("diagnostic generator_late_ms.p50 = %.4f\n",
              percentile(acc.late_ms, 500));
  std::printf("diagnostic generator_late_ms.p99 = %.4f\n",
              percentile(acc.late_ms, 990));
  const double interactive_p50 = percentile(acc.interactive_ms, 500);
  const double interactive_p99 = percentile(acc.interactive_ms, 990);
  const double batch_p50 = percentile(acc.batch_ms, 500);
  if (!traced) {
    std::printf("diagnostic interactive_ms.p50 = %.4f\n", interactive_p50);
    std::printf("diagnostic interactive_ms.p99 = %.4f\n", interactive_p99);
    std::printf("diagnostic batch_ms.p50 = %.4f\n", batch_p50);
    return;
  }
  out.add("serve.interactive_ms.p50", interactive_p50, "ms");
  out.add("serve.interactive_ms.p99", interactive_p99, "ms");
  out.add("serve.batch_ms.p50", batch_p50, "ms");
  const auto summary = hdem::serve::serve_summary(acc.stats);
  const double jobs = static_cast<double>(acc.jobs);
  out.add("serve.make_job_ms.p50", median(acc.make_ms), "ms");
  out.add("serve.queue_ms.p50", percentile(acc.queue_ms, 500), "ms");
  out.add("serve.queue_ms.p99", percentile(acc.queue_ms, 990), "ms");
  out.add("serve.quanta_per_job", acc.quanta / jobs, "count/job");
  out.add("serve.overhead_frac", summary.overhead_fraction, "ratio");
  out.add("serve.balance", summary.balance, "ratio");
  out.add("io.checkpoint_ms.p50", median(acc.write_ms), "ms");
  out.add("io.checkpoint_bytes_per_job", acc.bytes / jobs, "B/job");
}

}  // namespace perfbench

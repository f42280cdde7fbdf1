#include "serve/scheduler.hpp"

#include <optional>
#include <stdexcept>
#include <thread>

#include "trace/tracer.hpp"

namespace hdem::serve {

Scheduler::Scheduler(smp::ThreadTeam& team) : Scheduler(team, Options{}) {}

Scheduler::Scheduler(smp::ThreadTeam& team, Options opt)
    : team_(team), opt_(opt), queues_(static_cast<std::size_t>(team.size())) {
  if (opt_.quantum_steps == 0) {
    throw std::invalid_argument("Scheduler: quantum_steps must be positive");
  }
}

Scheduler::~Scheduler() = default;

int Scheduler::workers() const { return static_cast<int>(queues_.size()); }

std::future<JobResult> Scheduler::submit(std::unique_ptr<SimJob> job) {
  return enqueue(std::move(job), -1);
}

std::future<JobResult> Scheduler::submit_to_worker(int worker,
                                                   std::unique_ptr<SimJob> job) {
  if (worker < 0 || worker >= workers()) {
    throw std::out_of_range("Scheduler: worker index out of range");
  }
  return enqueue(std::move(job), worker);
}

std::future<JobResult> Scheduler::enqueue(std::unique_ptr<SimJob> job,
                                          int worker) {
  if (!job) throw std::invalid_argument("Scheduler: null job");
  if (closed_.load(std::memory_order_acquire)) {
    throw std::runtime_error("Scheduler: submit after close()");
  }
  auto owned = std::make_unique<Entry>();
  Entry* e = owned.get();
  e->job = std::move(job);
  const JobSpec& spec = e->job->spec();
  e->result.job_id = spec.job_id;
  e->result.deadline = spec.deadline;
  e->result.checkpoint_path = spec.checkpoint_path;
  e->result.submit_cost = cost_done_.load(std::memory_order_relaxed);
  std::future<JobResult> fut = e->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(entries_mu_);
    entries_.push_back(std::move(owned));
  }
  // pending_ rises before the entry becomes runnable, so a worker that
  // completes it can never observe pending_ == 0 while it is in flight.
  pending_.fetch_add(1, std::memory_order_release);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const int cls = cls_index(spec.deadline);
  if (worker >= 0) {
    WorkerQueue& wq = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(wq.mu);
    wq.q[cls].push_back(e);
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_[cls].push_back(e);
  }
  return fut;
}

void Scheduler::close() { closed_.store(true, std::memory_order_release); }

void Scheduler::run() {
  Timer t;
  team_.parallel([this](int tid) { worker_loop(tid); });
  run_ns_.fetch_add(t.nanoseconds(), std::memory_order_relaxed);
}

void Scheduler::worker_loop(int tid) {
  for (;;) {
    Timer book;
    Entry* e = acquire(tid);
    if (e == nullptr) {
      if (closed_.load(std::memory_order_acquire) &&
          pending_.load(std::memory_order_acquire) == 0) {
        return;
      }
      std::this_thread::yield();
      continue;
    }
    overhead_ns_.fetch_add(book.nanoseconds(), std::memory_order_relaxed);

    if (e->last_worker >= 0 && e->last_worker != tid) ++e->result.migrations;
    e->last_worker = tid;

    const std::uint64_t before = e->job->cost_units();
    Timer adv;
    {
      std::optional<trace::Mute> mute;
      if (opt_.mute_trace) mute.emplace();
      e->job->advance(opt_.quantum_steps);
    }
    advance_ns_.fetch_add(adv.nanoseconds(), std::memory_order_relaxed);

    const std::uint64_t delta = e->job->cost_units() - before;
    cost_done_.fetch_add(delta, std::memory_order_relaxed);
    queues_[static_cast<std::size_t>(tid)].cost.fetch_add(
        delta, std::memory_order_relaxed);
    quanta_.fetch_add(1, std::memory_order_relaxed);
    ++e->result.quanta;

    book.reset();
    if (e->job->done()) {
      finish(e);
    } else {
      // Requeue at the back of the owner's deque: round-robin slicing
      // within the worker, and the back is where thieves look.
      WorkerQueue& wq = queues_[static_cast<std::size_t>(tid)];
      const int cls = cls_index(e->job->spec().deadline);
      std::lock_guard<std::mutex> lock(wq.mu);
      wq.q[cls].push_back(e);
    }
    overhead_ns_.fetch_add(book.nanoseconds(), std::memory_order_relaxed);
  }
}

Scheduler::Entry* Scheduler::acquire(int tid) {
  const int W = workers();
  // Interactive jobs win at every source before any batch job is looked
  // at; within a class: own deque front, then injector, then steal from a
  // victim's back.
  for (int cls = 0; cls < 2; ++cls) {
    {
      WorkerQueue& wq = queues_[static_cast<std::size_t>(tid)];
      std::lock_guard<std::mutex> lock(wq.mu);
      if (!wq.q[cls].empty()) {
        Entry* e = wq.q[cls].front();
        wq.q[cls].pop_front();
        return e;
      }
    }
    {
      std::unique_lock<std::mutex> ilock(inject_mu_);
      if (!inject_[cls].empty()) {
        // Batch arrivals: grab ceil(size/W) so the deques get deep enough
        // for stealing to matter.  Interactive arrivals: one at a time,
        // so latency-sensitive jobs spread over all workers immediately.
        std::size_t grab =
            cls == 0 ? 1
                     : (inject_[cls].size() + static_cast<std::size_t>(W) - 1) /
                           static_cast<std::size_t>(W);
        std::vector<Entry*> taken;
        taken.reserve(grab);
        while (grab-- > 0 && !inject_[cls].empty()) {
          taken.push_back(inject_[cls].front());
          inject_[cls].pop_front();
        }
        ilock.unlock();
        if (taken.size() > 1) {
          WorkerQueue& wq = queues_[static_cast<std::size_t>(tid)];
          std::lock_guard<std::mutex> lock(wq.mu);
          for (std::size_t i = 1; i < taken.size(); ++i) {
            wq.q[cls].push_back(taken[i]);
          }
        }
        return taken.front();
      }
    }
    for (int k = 1; k < W; ++k) {
      WorkerQueue& victim = queues_[static_cast<std::size_t>((tid + k) % W)];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.q[cls].empty()) {
        Entry* e = victim.q[cls].back();
        victim.q[cls].pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return e;
      }
    }
  }
  return nullptr;
}

void Scheduler::finish(Entry* e) {
  e->result.steps = e->job->steps_done();
  e->result.cost_units = e->job->cost_units();
  e->result.finish_cost = cost_done_.load(std::memory_order_relaxed);
  e->result.wall_seconds = e->submit_timer.seconds();
  e->result.counters = e->job->counters();
  completed_.fetch_add(1, std::memory_order_relaxed);
  e->promise.set_value(std::move(e->result));
  // Last: once pending_ hits 0 with the stream closed, worker_loop exits,
  // and every promise must already be fulfilled by then.
  pending_.fetch_sub(1, std::memory_order_release);
}

ServeStats Scheduler::stats() const {
  ServeStats s;
  s.jobs_submitted = submitted_.load(std::memory_order_relaxed);
  s.jobs_completed = completed_.load(std::memory_order_relaxed);
  s.quanta = quanta_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.cost_units = cost_done_.load(std::memory_order_relaxed);
  s.advance_ns = advance_ns_.load(std::memory_order_relaxed);
  s.overhead_ns = overhead_ns_.load(std::memory_order_relaxed);
  s.run_seconds = 1e-9 * static_cast<double>(
                             run_ns_.load(std::memory_order_relaxed));
  s.workers = workers();
  s.worker_cost_units.reserve(queues_.size());
  for (const WorkerQueue& wq : queues_) {
    s.worker_cost_units.push_back(wq.cost.load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace hdem::serve

#include "smp/thread_team.hpp"

#include <stdexcept>

namespace hdem::smp {

namespace {

// Tells the core this is a spin-wait loop (frees pipeline resources for a
// sibling hyperthread and avoids the memory-order flush on exit).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls between two reads of the clock.
constexpr int kPollsPerClockRead = 16;

// After this long a waiting member yields between polls, so that on an
// oversubscribed host the core goes to a runnable thread (often the one
// being waited for); with a core per thread the yield returns at once.
constexpr std::chrono::nanoseconds kPauseOnlyBudget{1000};

}  // namespace

Range static_block(std::int64_t begin, std::int64_t end, int tid,
                   int nthreads) {
  const std::int64_t n = end > begin ? end - begin : 0;
  const std::int64_t base = n / nthreads;
  const std::int64_t rem = n % nthreads;
  const std::int64_t lo =
      begin + base * tid + (tid < rem ? tid : rem);
  const std::int64_t sz = base + (tid < rem ? 1 : 0);
  return {lo, lo + sz};
}

void ThreadTeam::Word::wait_while(std::uint32_t old) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (value.load(std::memory_order_acquire) != old) return;
      cpu_relax();
    }
    const auto waited = std::chrono::steady_clock::now() - start;
    if (waited >= kSpinBudget) break;
    if (waited >= kPauseOnlyBudget) std::this_thread::yield();
  }
  // Dekker pairing with wake(): this thread registers, then reads value;
  // the waker changes value, then reads parked (all seq_cst).  Either
  // wait() sees the change and returns at once, or wake() sees the
  // registration and notifies.
  parked.fetch_add(1, std::memory_order_seq_cst);
  value.wait(old, std::memory_order_seq_cst);
  parked.fetch_sub(1, std::memory_order_relaxed);
}

void ThreadTeam::Word::wake() {
  if (parked.load(std::memory_order_seq_cst) != 0) value.notify_all();
}

ThreadTeam::ThreadTeam(int nthreads) : nthreads_(nthreads) {
  if (nthreads < 1) throw std::invalid_argument("ThreadTeam: nthreads < 1");
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int t = 1; t < nthreads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadTeam::~ThreadTeam() {
  shutdown_ = true;
  fork_.value.fetch_add(1, std::memory_order_seq_cst);
  fork_.wake();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::worker_loop(int tid) {
  // The master cannot fork again before this worker has joined, so the
  // generation it waits past is always the one it last ran.
  std::uint32_t seen = 0;
  for (;;) {
    fork_.wait_while(seen);
    seen = fork_.value.load(std::memory_order_acquire);
    if (shutdown_) return;
    (*job_)(tid);
    if (pending_.value.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      pending_.wake();
    }
  }
}

void ThreadTeam::parallel(FunctionRef<void(int)> fn) {
  regions_.fetch_add(1, std::memory_order_relaxed);
  if (nthreads_ == 1) {
    fn(0);
    return;
  }
  job_ = &fn;
  pending_.value.store(static_cast<std::uint32_t>(nthreads_ - 1),
                       std::memory_order_relaxed);
  fork_.value.fetch_add(1, std::memory_order_seq_cst);
  fork_.wake();
  fn(0);  // the master participates as thread 0
  for (std::uint32_t left;
       (left = pending_.value.load(std::memory_order_acquire)) != 0;) {
    pending_.wait_while(left);
  }
}

void ThreadTeam::parallel_for(
    std::int64_t begin, std::int64_t end,
    FunctionRef<void(int, std::int64_t, std::int64_t)> body) {
  parallel([&](int tid) {
    const Range r = static_block(begin, end, tid, nthreads_);
    if (r.size() > 0) body(tid, r.lo, r.hi);
  });
}

void ThreadTeam::barrier() {
  if (nthreads_ == 1) {
    barrier_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Read before arriving: the generation cannot move until this member
  // arrives too.
  const std::uint32_t gen = barrier_gen_.value.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(nthreads_)) {
    arrived_.store(0, std::memory_order_relaxed);
    barrier_count_.fetch_add(1, std::memory_order_relaxed);
    barrier_gen_.value.fetch_add(1, std::memory_order_seq_cst);
    barrier_gen_.wake();
  } else {
    barrier_gen_.wait_while(gen);
  }
}

}  // namespace hdem::smp

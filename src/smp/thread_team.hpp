// Thread-team runtime — the shared-memory substrate.
//
// The paper parallelises with OpenMP PARALLEL DO directives: each major
// loop forks a team of T threads with a static block schedule and joins at
// an implicit barrier.  No OpenMP runtime is assumed here; this class
// provides the same execution structure (fork/join parallel regions,
// static-schedule parallel_for, in-region barriers, critical sections)
// over std::thread, and counts every region and barrier episode — the
// quantities the paper's Section 9.3 overhead analysis is built on.
//
// Fork, join and barrier are spin-then-park: a waiting member polls one
// atomic word for kSpinBudget, then parks on std::atomic::wait.  A waker
// calls notify only while some member is parked, so a region or barrier
// whose members all arrive within the budget makes no system call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hdem::smp {

// Half-open index range.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t size() const { return hi - lo; }
};

// The static block schedule: iterations [begin, end) divided into
// nthreads contiguous chunks, remainder spread over the first chunks.
Range static_block(std::int64_t begin, std::int64_t end, int tid,
                   int nthreads);

// A non-owning reference to a callable: two words, never allocates.  The
// callable must outlive every call made through the reference, which a
// region body does: parallel() returns only after every member ran it.
template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // implicit, like std::function's
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          auto& fn = *static_cast<std::remove_reference_t<F>*>(obj);
          if constexpr (std::is_void_v<R>) {
            fn(std::forward<Args>(args)...);
          } else {
            return fn(std::forward<Args>(args)...);
          }
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

// How long a waiting member polls before it parks (it yields between
// polls after the first microsecond).  Kept short because the tests and
// CI oversubscribe the cores (up to 8 threads per process, four
// processes at once), and a spinning thread holds a core that the thread
// it waits for may need; DESIGN.md §3.11 gives the measurements.
inline constexpr std::chrono::nanoseconds kSpinBudget{4000};

class ThreadTeam {
 public:
  // A team of `nthreads` >= 1.  Thread 0 is the calling ("master") thread;
  // nthreads - 1 workers are spawned and parked until work arrives.
  explicit ThreadTeam(int nthreads);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return nthreads_; }

  // Run fn(tid) on every team member (a "parallel region"); returns after
  // all members finish (the implicit join barrier).
  void parallel(FunctionRef<void(int)> fn);

  // parallel region + static block schedule over [begin, end):
  // body(tid, lo, hi).
  void parallel_for(std::int64_t begin, std::int64_t end,
                    FunctionRef<void(int, std::int64_t, std::int64_t)> body);

  // Barrier for use *inside* a parallel region; every team member must
  // call it.  Counted once per episode (not per thread).
  void barrier();

  // Serialise a small section of a parallel region.
  template <class Fn>
  void critical(Fn&& fn) {
    std::lock_guard<std::mutex> lock(critical_mu_);
    critical_count_.fetch_add(1, std::memory_order_relaxed);
    fn();
  }

  // Cumulative overhead counters (fork/join episodes, barrier episodes,
  // critical entries).  Drivers snapshot these into their Counters.
  std::uint64_t regions() const {
    return regions_.load(std::memory_order_relaxed);
  }
  std::uint64_t barriers() const {
    return barrier_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t criticals() const {
    return critical_count_.load(std::memory_order_relaxed);
  }

 private:
  // A word members wait on, on its own cache line.  `parked` counts the
  // members asleep in std::atomic::wait, so wake() skips the notify (a
  // futex system call) while nobody sleeps.
  struct alignas(64) Word {
    std::atomic<std::uint32_t> value{0};
    std::atomic<std::uint32_t> parked{0};
    // Returns once value != old: polls for kSpinBudget, then parks.
    void wait_while(std::uint32_t old);
    // Wakes the parked waiters; call after a seq_cst change of value.
    void wake();
  };

  void worker_loop(int tid);

  int nthreads_;
  std::vector<std::thread> workers_;

  // Fork: the master writes job_ (or shutdown_) and pending_, then bumps
  // fork_; the bump's release publishes all three.  Join: each worker
  // decrements pending_ after running the job, and the one that takes it
  // to zero wakes the master.
  Word fork_;
  Word pending_;
  const FunctionRef<void(int)>* job_ = nullptr;
  bool shutdown_ = false;

  // In-region barrier, sense-reversing over a generation count: the last
  // arrival resets arrived_ and bumps barrier_gen_, the others wait for
  // the bump.
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  Word barrier_gen_;

  std::mutex critical_mu_;
  std::atomic<std::uint64_t> regions_{0};
  std::atomic<std::uint64_t> barrier_count_{0};
  std::atomic<std::uint64_t> critical_count_{0};
};

// Atomic accumulation into a shared double (the OpenMP ATOMIC analogue).
// std::atomic_ref requires the target to be suitably aligned, which holds
// for elements of Vec<D> arrays.
inline void atomic_add(double& target, double value) {
  std::atomic_ref<double> ref(target);
  ref.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace hdem::smp

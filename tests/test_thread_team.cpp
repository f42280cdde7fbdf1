#include "smp/thread_team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace hdem::smp {
namespace {

// Every global operator new in this test binary bumps this count (the
// replacements are at the end of the file).
std::atomic<std::uint64_t> g_allocations{0};

TEST(StaticBlock, PartitionsExactly) {
  for (int t_count : {1, 2, 3, 4, 7}) {
    for (std::int64_t n : {0, 1, 5, 100, 101}) {
      std::int64_t covered = 0;
      std::int64_t prev_hi = 0;
      for (int t = 0; t < t_count; ++t) {
        const Range r = static_block(0, n, t, t_count);
        EXPECT_EQ(r.lo, prev_hi) << "ranges must be contiguous";
        EXPECT_GE(r.size(), 0);
        covered += r.size();
        prev_hi = r.hi;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_hi, n);
    }
  }
}

TEST(StaticBlock, BalancedWithinOne) {
  const int t_count = 4;
  const std::int64_t n = 10;
  std::int64_t lo = n, hi = 0;
  for (int t = 0; t < t_count; ++t) {
    const auto r = static_block(0, n, t, t_count);
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(StaticBlock, NonZeroBegin) {
  const auto r = static_block(10, 20, 1, 2);
  EXPECT_EQ(r.lo, 15);
  EXPECT_EQ(r.hi, 20);
}

TEST(ThreadTeam, AllThreadsParticipate) {
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(4);
  team.parallel([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, SingleThreadRunsInline) {
  ThreadTeam team(1);
  int x = 0;
  team.parallel([&](int tid) {
    EXPECT_EQ(tid, 0);
    ++x;
  });
  EXPECT_EQ(x, 1);
}

TEST(ThreadTeam, ParallelForCoversRangeOnce) {
  ThreadTeam team(3);
  std::vector<std::atomic<int>> hits(100);
  team.parallel_for(0, 100, [&](int, std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, ManySequentialRegions) {
  ThreadTeam team(4);
  std::atomic<int> total{0};
  for (int r = 0; r < 200; ++r) {
    team.parallel([&](int) { total++; });
  }
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadTeam, BarrierSeparatesPhases) {
  // Every thread writes phase-1 data, barrier, then reads another thread's
  // slot; without a working barrier this reads stale zeros.
  ThreadTeam team(4);
  std::vector<int> slot(4, 0);
  std::vector<int> read(4, -1);
  for (int rep = 0; rep < 50; ++rep) {
    std::fill(slot.begin(), slot.end(), 0);
    team.parallel([&](int tid) {
      slot[static_cast<std::size_t>(tid)] = tid + 100;
      team.barrier();
      read[static_cast<std::size_t>(tid)] =
          slot[static_cast<std::size_t>((tid + 1) % 4)];
    });
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(read[static_cast<std::size_t>(t)], (t + 1) % 4 + 100);
    }
  }
}

TEST(ThreadTeam, RepeatedBarriersInOneRegion) {
  ThreadTeam team(3);
  std::atomic<int> counter{0};
  team.parallel([&](int) {
    for (int i = 0; i < 100; ++i) {
      counter++;
      team.barrier();
      // After each barrier the counter must be a multiple of 3.
      EXPECT_EQ(counter.load() % 3, 0);
      team.barrier();
    }
  });
  EXPECT_EQ(counter.load(), 300);
}

TEST(ThreadTeam, CriticalIsMutuallyExclusive) {
  ThreadTeam team(4);
  long unprotected = 0;
  team.parallel([&](int) {
    for (int i = 0; i < 5000; ++i) {
      team.critical([&] { unprotected++; });
    }
  });
  EXPECT_EQ(unprotected, 20000);
}

TEST(ThreadTeam, AtomicAddAccumulates) {
  ThreadTeam team(4);
  alignas(8) double sum = 0.0;
  team.parallel([&](int) {
    for (int i = 0; i < 10000; ++i) atomic_add(sum, 1.0);
  });
  EXPECT_DOUBLE_EQ(sum, 40000.0);
}

TEST(ThreadTeam, CountsRegionsBarriersCriticals) {
  ThreadTeam team(2);
  EXPECT_EQ(team.regions(), 0u);
  team.parallel([&](int) { team.barrier(); });
  team.parallel([](int) {});
  team.critical([] {});
  EXPECT_EQ(team.regions(), 2u);
  EXPECT_EQ(team.barriers(), 1u) << "one episode, not one per thread";
  EXPECT_EQ(team.criticals(), 1u);
}

TEST(ThreadTeam, ParallelForEmptyRange) {
  ThreadTeam team(4);
  std::atomic<int> calls{0};
  team.parallel_for(5, 5, [&](int, std::int64_t, std::int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadTeam, RejectsZeroThreads) {
  EXPECT_THROW(ThreadTeam team(0), std::invalid_argument);
}

TEST(ThreadTeam, DistinctTidsWithinRegion) {
  ThreadTeam team(4);
  std::mutex mu;
  std::set<int> tids;
  team.parallel([&](int tid) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(tids.insert(tid).second);
  });
  EXPECT_EQ(tids.size(), 4u);
}

TEST(ThreadTeam, RegionsAndBarriersAllocateNothing) {
  ThreadTeam team(4);
  std::vector<std::atomic<std::int64_t>> sums(4);
  std::int64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  team.parallel([](int) {});  // warm up: workers started and parked
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 1000; ++r) {
    // Seven captures: too big for std::function's small-buffer storage.
    team.parallel([&sums, &a, &b, &c, &d, &e, &f](int tid) {
      sums[static_cast<std::size_t>(tid)] += a + b + c + d + e + f;
    });
  }
  for (int r = 0; r < 1000; ++r) {
    team.parallel_for(0, 64, [&](int tid, std::int64_t lo, std::int64_t hi) {
      sums[static_cast<std::size_t>(tid)] += hi - lo;
    });
  }
  team.parallel([&](int) {
    for (int r = 0; r < 1000; ++r) team.barrier();
  });
  EXPECT_EQ(g_allocations.load() - before, 0u);
  for (const auto& s : sums) EXPECT_EQ(s.load(), 1000 * 21 + 1000 * 16);
  EXPECT_EQ(team.regions(), 2002u);
  EXPECT_EQ(team.barriers(), 1000u);
}

TEST(ThreadTeam, ParkedWorkersWakeForRegionsAndBarriers) {
  // Sleeping far past the spin budget between regions parks every
  // waiting member; each region and barrier must still run exactly once.
  ThreadTeam team(4);
  std::atomic<int> runs{0};
  std::vector<int> slot(4, 0);
  std::vector<int> read(4, -1);
  for (int rep = 0; rep < 20; ++rep) {
    std::this_thread::sleep_for(
        std::chrono::duration_cast<std::chrono::microseconds>(kSpinBudget) *
        50);
    team.parallel([&](int tid) {
      runs++;
      slot[static_cast<std::size_t>(tid)] = rep * 10 + tid;
      team.barrier();
      read[static_cast<std::size_t>(tid)] =
          slot[static_cast<std::size_t>((tid + 1) % 4)];
      if (tid == 0) {
        // Park the other members inside the region too.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      team.barrier();
    });
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(read[static_cast<std::size_t>(t)], rep * 10 + (t + 1) % 4);
    }
  }
  EXPECT_EQ(runs.load(), 80);
  EXPECT_EQ(team.regions(), 20u);
  EXPECT_EQ(team.barriers(), 40u);
}

TEST(ThreadTeam, OversubscribedTeamsKeepExactCounts) {
  // Three 4-member teams, each driven from its own thread: 12 spinning or
  // parked members on however many cores the host has.  Nothing is timed.
  constexpr int kTeams = 3;
  constexpr int kRegions = 2000;
  std::vector<std::atomic<std::int64_t>> work(kTeams);
  std::vector<std::uint64_t> regions(kTeams), barriers(kTeams);
  std::vector<std::thread> drivers;
  for (int k = 0; k < kTeams; ++k) {
    drivers.emplace_back([&, k] {
      ThreadTeam team(4);
      for (int r = 0; r < kRegions; ++r) {
        team.parallel([&](int) {
          work[static_cast<std::size_t>(k)]++;
          team.barrier();
          team.barrier();
        });
      }
      regions[static_cast<std::size_t>(k)] = team.regions();
      barriers[static_cast<std::size_t>(k)] = team.barriers();
    });
  }
  for (auto& t : drivers) t.join();
  for (int k = 0; k < kTeams; ++k) {
    const auto i = static_cast<std::size_t>(k);
    EXPECT_EQ(work[i].load(), 4 * kRegions);
    EXPECT_EQ(regions[i], static_cast<std::uint64_t>(kRegions));
    EXPECT_EQ(barriers[i], static_cast<std::uint64_t>(2 * kRegions));
  }
}

TEST(ThreadTeam, DestroyedWhileWorkersParked) {
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<int> runs{0};
    {
      ThreadTeam team(4);
      team.parallel([&](int) { runs++; });
      std::this_thread::sleep_for(
          std::chrono::duration_cast<std::chrono::microseconds>(kSpinBudget) *
          250);
    }  // the destructor must wake the parked workers and join them
    EXPECT_EQ(runs.load(), 4);
  }
}

}  // namespace
}  // namespace hdem::smp

// Test-only replacements of the global allocation functions (the array,
// sized and nothrow forms forward to these in libstdc++).
void* operator new(std::size_t size) {
  hdem::smp::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

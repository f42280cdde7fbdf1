#include "perf/microbench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "core/force_model.hpp"
#include "core/pair_disp.hpp"
#include "core/pair_kernel.hpp"
#include "smp/thread_team.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"
#include "util/vec.hpp"

namespace hdem::perf {

namespace {

// Minimum wall-clock for one timing window.  A fixed repetition count can
// complete faster than the clock resolves on a fast machine, which used to
// produce 0 (and NaN downstream in the fitted constants); every block now
// doubles its repetition count until the window is measurable.
constexpr double kMinWindowSeconds = 1e-4;
constexpr int kMaxRepetitions = 1 << 24;

// Interleaved timing rounds per primitive in measure_sync_overheads.
constexpr int kSyncRounds = 7;

// Run body(reps) with a doubling repetition count until the window spans
// kMinWindowSeconds; returns the per-repetition cost, never 0 or NaN.
template <class Body>
double timed_per_rep(int repetitions, Body&& body) {
  int reps = std::max(repetitions, 1);
  for (;;) {
    Timer t;
    body(reps);
    const double secs = t.seconds();
    if (secs >= kMinWindowSeconds || reps >= kMaxRepetitions) {
      return std::max(secs, 1e-12) / static_cast<double>(reps);
    }
    reps *= 2;
  }
}

}  // namespace

SyncOverheads measure_sync_overheads(int threads, int repetitions) {
  smp::ThreadTeam team(threads);
  SyncOverheads o;
  o.threads = threads;
  o.fork_join = o.parallel_for = o.barrier = o.critical = o.atomic_add =
      std::numeric_limits<double>::infinity();
  const auto keep_best = [](double& best, double secs) {
    best = std::min(best, secs);
  };
  volatile double sink = 0.0;
  alignas(64) double target = 0.0;

  // Every round times each primitive once, so a slow stretch of the host
  // lands on all of them alike; each keeps its best round.
  for (int round = 0; round < kSyncRounds; ++round) {
    // empty parallel region (fork + join)
    keep_best(o.fork_join, timed_per_rep(repetitions, [&](int reps) {
      for (int r = 0; r < reps; ++r) team.parallel([](int) {});
    }));
    // empty static-schedule parallel_for
    keep_best(o.parallel_for, timed_per_rep(repetitions, [&](int reps) {
      for (int r = 0; r < reps; ++r) {
        team.parallel_for(0, threads, [](int, std::int64_t, std::int64_t) {});
      }
    }));
    // barrier episodes inside one region
    keep_best(o.barrier, timed_per_rep(repetitions, [&](int reps) {
      team.parallel([&](int) {
        for (int r = 0; r < reps; ++r) team.barrier();
      });
    }));
    // critical-section entries (every thread competes)
    keep_best(o.critical, timed_per_rep(repetitions, [&](int reps) {
                team.parallel([&](int) {
                  for (int r = 0; r < reps; ++r) {
                    team.critical([&] { sink = sink + 1.0; });
                  }
                });
              }) / threads);
    // contended atomic accumulation
    keep_best(o.atomic_add, timed_per_rep(repetitions, [&](int reps) {
                team.parallel([&](int) {
                  for (int r = 0; r < reps; ++r) smp::atomic_add(target, 1.0);
                });
              }) / threads);
  }
  return o;
}

double per_block_sync_cost(const SyncOverheads& o, double regions_per_block,
                           double barriers_per_block) {
  return regions_per_block * o.fork_join + barriers_per_block * o.barrier;
}

KernelThroughput measure_kernel_throughput(std::size_t nparticles,
                                           int repetitions) {
  constexpr int D = 3;
  const double diameter = 0.05;
  // Jittered lattice slightly under the sphere diameter, linked to the +x,
  // +y and +z lattice neighbours: gather strides and the hit ratio are
  // representative of the paper's benchmark system without dragging the
  // whole rebuild pipeline into a microbenchmark.
  const auto side = static_cast<std::size_t>(
      std::ceil(std::cbrt(static_cast<double>(nparticles))));
  const std::size_t n = side * side * side;
  const double spacing = 0.9 * diameter;
  std::vector<Vec<D>> pos(n), vel(n), frc(n);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto jitter = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (static_cast<double>(rng >> 11) / 9007199254740992.0 - 0.5) * 0.2;
  };
  std::vector<Link> links;
  links.reserve(3 * n);
  for (std::size_t z = 0; z < side; ++z) {
    for (std::size_t y = 0; y < side; ++y) {
      for (std::size_t x = 0; x < side; ++x) {
        const std::size_t i = (z * side + y) * side + x;
        pos[i][0] = (static_cast<double>(x) + jitter()) * spacing;
        pos[i][1] = (static_cast<double>(y) + jitter()) * spacing;
        pos[i][2] = (static_cast<double>(z) + jitter()) * spacing;
        const auto link_to = [&](std::size_t j) {
          links.push_back({static_cast<std::int32_t>(i),
                           static_cast<std::int32_t>(j)});
        };
        if (x + 1 < side) link_to(i + 1);
        if (y + 1 < side) link_to(i + side);
        if (z + 1 < side) link_to(i + side * side);
      }
    }
  }

  const ElasticSphere model{100.0, diameter};
  const PairDisp<D> disp{};
  const std::span<const Link> lspan(links);
  const std::span<const Vec<D>> pspan(pos), vspan(vel);
  const auto time_pass = [&](int width) {
    simd::set_dispatch_width(width);
    double best = 1e300;
    for (int r = 0; r < repetitions; ++r) {
      std::fill(frc.begin(), frc.end(), Vec<D>{});
      // One pass can undercut the clock resolution for small systems;
      // repeat it inside the window until the timing is measurable.
      best = std::min(best, timed_per_rep(1, [&](int reps) {
               for (int k = 0; k < reps; ++k) {
                 std::uint64_t contacts = 0;
                 const double pe = batched_pair_links<D>(
                     lspan, pspan, vspan, model, disp, true, 1.0, contacts,
                     [&](std::int32_t p, const Vec<D>& f) {
                       frc[static_cast<std::size_t>(p)] += f;
                     });
                 volatile double guard = pe + frc[0][0];
                 (void)guard;
               }
             }));
    }
    return best;
  };

  KernelThroughput k;
  const double t_scalar = time_pass(1);
  simd::set_dispatch_width(0);  // restore the automatic (native) choice
  k.width = simd::dispatch_width();
  k.isa = simd::isa_name(simd::active_isa());
  double t_simd = t_scalar;
  if (k.width > 1) {
    t_simd = time_pass(k.width);
    simd::set_dispatch_width(0);
  }
  const double nl = static_cast<double>(links.size());
  k.ns_per_link_scalar = t_scalar / nl * 1e9;
  k.ns_per_link_simd = t_simd / nl * 1e9;
  return k;
}

std::string format(const SyncOverheads& o) {
  std::ostringstream os;
  os << "threads=" << o.threads
     << "  fork_join=" << o.fork_join * 1e6 << "us"
     << "  parallel_for=" << o.parallel_for * 1e6 << "us"
     << "  barrier=" << o.barrier * 1e6 << "us"
     << "  critical=" << o.critical * 1e6 << "us"
     << "  atomic_add=" << o.atomic_add * 1e9 << "ns";
  return os.str();
}

std::string format(const KernelThroughput& k) {
  std::ostringstream os;
  os << "isa=" << k.isa << "  width=" << k.width
     << "  scalar=" << k.ns_per_link_scalar << "ns/link"
     << "  simd=" << k.ns_per_link_simd << "ns/link"
     << "  gain=" << k.gain() << "x";
  return os.str();
}

}  // namespace hdem::perf

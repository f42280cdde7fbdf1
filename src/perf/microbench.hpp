// EPCC-style synchronisation microbenchmarks (the paper's reference [10],
// Bull's "Measuring Synchronisation and Scheduling Overheads in OpenMP"),
// applied to this library's own thread-team runtime.
//
// The paper uses exactly this technique to estimate the hybrid code's
// thread overheads ("around 50 microseconds per block per processor").
// measure_sync_overheads() reports the host's real costs.
#pragma once

#include <cstddef>
#include <string>

namespace hdem::perf {

struct SyncOverheads {
  int threads = 1;
  double fork_join = 0.0;      // seconds per empty parallel region
  double parallel_for = 0.0;   // seconds per empty static-schedule loop
  double barrier = 0.0;        // seconds per in-region barrier episode
  double critical = 0.0;       // seconds per critical-section entry
  double atomic_add = 0.0;     // seconds per contended atomic accumulation
};

// Times every primitive in several interleaved rounds of `repetitions`
// episodes (more when a window is too short to resolve) and reports each
// primitive's best round, so that two primitives, or two builds, compare
// on the same host state.
SyncOverheads measure_sync_overheads(int threads, int repetitions = 1000);

// Overhead per block per iteration of a hybrid run that executes
// `regions_per_block` parallel regions and `barriers_per_block` barrier
// episodes per block — the quantity the paper pegs at ~50 us.
double per_block_sync_cost(const SyncOverheads& o, double regions_per_block,
                           double barriers_per_block);

std::string format(const SyncOverheads& o);

// Measured per-link throughput of the batched pair kernel (3D elastic
// spheres on the paper's benchmark density) at the host's native SIMD
// dispatch width versus the width-1 scalar loop; gain() is their ratio.
struct KernelThroughput {
  std::string isa = "scalar";      // ISA the vector measurement ran on
  int width = 1;                   // its dispatch width
  double ns_per_link_scalar = 0.0;
  double ns_per_link_simd = 0.0;
  double gain() const {
    return (ns_per_link_simd > 0.0 && ns_per_link_scalar > 0.0)
               ? ns_per_link_scalar / ns_per_link_simd
               : 1.0;
  }
};

KernelThroughput measure_kernel_throughput(std::size_t nparticles = 20'000,
                                           int repetitions = 20);

std::string format(const KernelThroughput& k);

}  // namespace hdem::perf

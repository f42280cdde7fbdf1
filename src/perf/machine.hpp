// Machine descriptions for the performance model.
//
// The paper benchmarks on a Cray T3E-900, a Sun HPC 3500 and a cluster of
// Compaq ES40s — hardware this environment does not have.  Following the
// substitution rule in DESIGN.md, each platform is described by a small
// set of cost constants; the cost model combines them with *measured*
// operation counts from instrumented runs of this library.  The serial
// kernel costs (t_pair, t_update, t_mem) are fitted to the paper's own
// Tables 1 and 2 by src/perf/calibrate; the architectural constants
// (caches, saturation, synchronisation and network costs) are set from the
// platforms' published characteristics and documented here.
#pragma once

#include <string>

namespace hdem::perf {

struct MachineSpec {
  std::string name;
  int cpus_per_node = 1;
  int nodes = 1;

  // Serial force-loop kernel costs (seconds per element); fitted.
  double t_pair = 0.0;    // arithmetic + list traversal per link
  double t_pair3 = 0.0;   // additional per-link cost in three dimensions
  double t_update = 0.0;  // per particle position update
  double t_contact = 0.0; // per contact evaluation whose partner access
                          // misses the on-chip cache (cache-sensitive share
                          // of the per-particle force work)
  double t_mem = 0.0;     // per-link penalty for an access past the L2 cache
  double t_mem_l1 = 0.0;  // per-link penalty for an L1 miss that hits L2

  // List-rebuild kernel costs (seconds per element).  Not fitted against
  // the paper (its timed loops exclude link generation, which it calls
  // "not time-critical"); set to plausible multiples of the platform's
  // per-particle update cost so the amortised rebuild term has the right
  // magnitude.  t_scan is the rebuild's serial fraction (prefix scans and
  // section layout), paid once per rebuild regardless of team size.
  double t_bin = 0.0;      // per particle: cell assignment + scatter
  double t_reorder = 0.0;  // per particle: cell-order gather (when enabled)
  double t_linkgen = 0.0;  // per link: generation incl. distance tests
  double t_scan = 0.0;     // per particle: serial scan/layout share

  // Two-level cache model: an access whose reuse span exceeds
  // cache_l1_bytes costs t_mem_l1; one exceeding cache_bytes costs t_mem
  // instead.
  double cache_bytes = 0.0;      // per-CPU outer (L2/board) cache capacity
  double cache_l1_bytes = 0.0;   // per-CPU on-chip cache capacity
  double mem_saturation = 0.0;   // extra memory-cost fraction per additional
                                 // busy CPU sharing a node's memory system

  // Shared-memory runtime costs (at a 4-thread team; the model scales
  // fork/barrier and contention costs linearly with team size).
  double t_atomic = 0.0;    // per protected force update
  double t_contend = 0.0;   // per force update: cache-line contention on the
                            // shared force array between team members ("the
                            // contention for cache lines between threads")
  double t_fork = 0.0;      // per parallel region (fork + join)
  double t_barrier = 0.0;   // per in-region barrier episode
  double t_critical = 0.0;  // per critical-section entry
  double reduction_bw = 0.0;  // node bytes/s for private-array zero+merge

  // Message passing costs.
  double lat_intra = 0.0, bw_intra = 0.0;  // same node
  double lat_inter = 0.0, bw_inter = 0.0;  // across the interconnect
  // Same-rank block-to-block halo copies (the block-cyclic distribution's
  // intra-process traffic): per-transfer setup cost; bytes move at
  // node-memory speed (reduction_bw).
  double lat_local = 0.0;

  int total_cpus() const { return cpus_per_node * nodes; }
};

// 344-CPU Cray T3E-900: 450 MHz Alpha EV5.6, one CPU per node, 96 KB
// on-chip L2, low-latency 3D torus.  "Some of the relatively poor
// performance of the T3E nodes can be ascribed to the fact that default
// integers occupy eight bytes" — absorbed by the fitted t_pair/t_mem.
MachineSpec t3e900();

// 8-CPU Sun HPC 3500: 400 MHz UltraSPARC-II, 4 MB external cache per CPU,
// one shared-memory node.  The KAI Guide OpenMP system implements atomic
// updates as software locks ("very costly"), and array reductions
// saturate the node's memory bandwidth.
MachineSpec sun_hpc3500();

// Cluster of 5 Compaq ES40s: four 500 MHz Alpha EV6 per node, 4 MB
// B-cache per CPU, Memory Channel interconnect.  Atomic updates "are done
// in hardware and are much more efficient"; the node memory system
// saturates with four active CPUs (Figure 1's bandwidth discussion).
MachineSpec compaq_es40_cluster();

}  // namespace hdem::perf

// The run knobs: every parameter that selects how a run executes, as
// opposed to what it simulates.  The paper's MPI, OpenMP and hybrid runs
// of one code differ only here (P, T, B/P, the reduction strategy,
// reordering).  Each knob is declared once:
//
//   ListKnobs (core/config.hpp)  what SimConfig carries: reordering, the
//                                rebuild trigger, the Verlet skin and the
//                                halo frame modes
//   MpOptions                    what the drivers take: team size,
//                                reduction, fused/overlapped schedules,
//                                stealing, rebalancing, shared windows
//   RunKnobs                     both, plus the decomposition shape
//
// Every default is a constant; no knob is read from the environment.
// Holders above the drivers (perf::MeasureSpec, tune rows, the flag
// groups of util/knob_cli.hpp) derive from or hold RunKnobs instead of
// re-declaring fields, and each driver is handed its slice whole:
// `SimConfig<D> cfg{knobs}` takes the ListKnobs part, and an MpSim takes
// the MpOptions part.
#pragma once

#include <stdexcept>

#include "core/config.hpp"
#include "reduction/kind.hpp"

namespace hdem {

// MpSim<D>::Options; SmpSim validates its (nthreads, reduction, steal)
// through it too.
struct MpOptions {
  int nthreads = 1;  // > 1 selects the hybrid scheme
  ReductionKind reduction = ReductionKind::kSelectedAtomic;
  // The paper's Section 11 proposal: "a single parallel loop over all
  // links in all blocks rather than one loop per block", reducing both
  // the per-block fork/join overhead and the inter-thread dependencies
  // (a thread's contiguous share of the rank's links covers whole blocks
  // most of the time).  The team force and update passes then run over
  // all of the rank's blocks at once.  Requires a thread team and an
  // atomic-family or colored reduction (see validate()).
  bool fused = false;
  // Overlap halo communication with core-link forces: initiate every
  // block's swap, compute core links (which never read halo data) while
  // messages are in flight, complete the swap, then compute halo links.
  // Trajectories are bit-identical to the synchronous schedule — within
  // each block core links are accumulated before halo links either way.
  bool overlap = false;
  // Deterministic work stealing over color-plan chunks (colored
  // reduction only): threads claim chunks from an atomic cursor instead
  // of walking static runs.  Conflict-free under the color plan, so
  // trajectories stay bit-identical at any team size.
  bool steal = false;
  // Adaptive cost-driven block remapping: accumulate measured per-block
  // step cost, exchange the cost vector at list rebuilds, and adopt a
  // deterministic LPT assignment table when the measured imbalance
  // exceeds rebalance_threshold (max/mean rank load).  Blocks migrate
  // whole; halo plans are rebuilt against the new table; trajectories
  // are unaffected (per-block physics is ownership-independent).
  bool rebalance = false;
  double rebalance_threshold = 1.15;
  // Zero-copy intra-node halo exchange: edges between ranks of the same
  // node (ranks_per_node consecutive ranks per node; 0 = every rank on
  // one node) gather halo positions straight out of the neighbour's
  // position array through generation-fenced shared windows instead of
  // messages.  Trajectories are bit-identical to the wire path.
  bool shared_halo = false;
  int ranks_per_node = 0;

  bool operator==(const MpOptions&) const = default;

  // The cross-knob rules, checked by both drivers at construction.
  void validate() const {
    if (nthreads < 1) {
      throw std::invalid_argument("MpOptions: nthreads < 1");
    }
    if (fused && nthreads < 2) {
      throw std::invalid_argument(
          "MpOptions: fused mode requires a thread team");
    }
    if (fused && reduction != ReductionKind::kAtomicAll &&
        reduction != ReductionKind::kSelectedAtomic &&
        reduction != ReductionKind::kNoLock &&
        reduction != ReductionKind::kColored) {
      throw std::invalid_argument(
          "MpOptions: fused mode supports the atomic-family and colored "
          "reductions only (private-array strategies need per-block merge "
          "phases)");
    }
    if (steal && reduction != ReductionKind::kColored) {
      throw std::invalid_argument(
          "MpOptions: work stealing requires the colored reduction (chunk "
          "claiming is only conflict-free under the color plan)");
    }
    if (rebalance_threshold < 1.0) {
      throw std::invalid_argument("MpOptions: rebalance threshold below 1.0");
    }
  }
};

struct RunKnobs : ListKnobs, MpOptions {
  int nprocs = 1;           // P: message-passing ranks
  int blocks_per_proc = 1;  // B/P: block-cyclic granularity

  bool operator==(const RunKnobs&) const = default;
};

// Calls f(column, field) for every RunKnobs field, once each, with the
// field's tune-file column name (perf/tune.hpp).  Knobs may be const.
template <class Knobs, class F>
void for_each_knob(Knobs&& k, F&& f) {
  f("P", k.nprocs);
  f("T", k.nthreads);
  f("B", k.blocks_per_proc);
  f("reduction", k.reduction);
  f("fused", k.fused);
  f("overlap", k.overlap);
  f("steal", k.steal);
  f("rebalance", k.rebalance);
  f("rebalance_threshold", k.rebalance_threshold);
  f("shared_halo", k.shared_halo);
  f("ranks_per_node", k.ranks_per_node);
  f("skin", k.skin_factor);
  f("skin_cap", k.skin_cap_factor);
  f("halo_delta", k.halo_delta);
  f("halo_coalesce", k.halo_coalesce);
  f("reorder", k.reorder);
  f("drift_measured", k.drift_measured);
}

}  // namespace hdem

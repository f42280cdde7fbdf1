// Shared command-line groups for the run knobs (driver/knobs.hpp), so
// every example and bench exposes the same spelling.  Each group writes
// into the caller's RunKnobs and takes its defaults from it:
//
//   --skin=F          skin radius as a fraction of rc: candidate links are
//                     generated out to rc * (1 + F) and the list is reused
//                     until accumulated drift can close the widened gap
//   --skin-cap=F      binning capacity as a fraction of rc; cells are
//                     sized for rc * (1 + F) (-1: follow --skin).  Pin it
//                     across runs with different skins to keep the cell
//                     geometry — and hence trajectories — bit-identical.
//   --halo-delta      ship only template positions whose bits changed
//                     since the last swap (bitmask frame + dense changed
//                     values; receivers patch their halo regions in
//                     place).  Bitwise-exact, so trajectories are
//                     bit-identical with the flag on or off
//   --halo-coalesce   merge all wire halo sides sharing a (neighbour rank,
//                     dim, direction) into one framed message
//   --blocks-per-proc=1,4,16   granularity sweep (single value accepted)
//   --rebalance                adaptive cost-driven block remapping
//   --rebalance-threshold=1.15 max/mean rank-load ratio that triggers it
//   --shared-halo              zero-copy intra-node halo windows
//   --ranks-per-node=N         node granularity for the shared path
//                              (0 = every rank on one node)
//   --steal                    deterministic work stealing (selects the
//                              colored reduction)
//
// A program declares only the groups whose knobs it runs with.
#pragma once

#include <cstdint>
#include <vector>

#include "driver/knobs.hpp"
#include "util/cli.hpp"

namespace hdem {

inline void declare_skin_options(Cli& cli, RunKnobs& k) {
  k.skin_factor = cli.real(
      "skin", k.skin_factor,
      "Verlet skin as a fraction of rc: bin and link at rc*(1+skin), reuse "
      "the list until drift can close the gap");
  k.skin_cap_factor = cli.real(
      "skin-cap", k.skin_cap_factor,
      "binning capacity as a fraction of rc (-1: follow --skin); pin across "
      "a skin sweep for bit-identical trajectories");
}

inline void declare_halo_options(Cli& cli, RunKnobs& k) {
  if (cli.flag("halo-delta",
               "delta-compressed halo swaps: send a bitmask plus only the "
               "changed template positions between rebuilds (bit-identical "
               "trajectories)")) {
    k.halo_delta = true;
  }
  if (cli.flag("halo-coalesce",
               "coalesce wire halo sides sharing a (neighbour rank, dim, "
               "direction) into one framed message")) {
    k.halo_coalesce = true;
  }
}

// --blocks-per-proc: returns the whole list (a granularity sweep) and sets
// the knob to its first entry.
inline std::vector<std::int64_t> declare_blocks_option(
    Cli& cli, RunKnobs& k, const std::vector<std::int64_t>& def) {
  auto bpp = cli.integer_list(
      "blocks-per-proc", def,
      "blocks per process (comma-separated list for granularity sweeps)");
  if (!bpp.empty()) k.blocks_per_proc = static_cast<int>(bpp.front());
  return bpp;
}

inline void declare_rebalance_option(Cli& cli, RunKnobs& k) {
  if (cli.flag("rebalance",
               "adopt a cost-driven LPT block assignment at list rebuilds "
               "when the measured rank imbalance exceeds the threshold")) {
    k.rebalance = true;
  }
}

// The decomposition group: --blocks-per-proc, --rebalance and its
// threshold, --shared-halo and --ranks-per-node.  Returns the
// --blocks-per-proc list.
inline std::vector<std::int64_t> declare_decomp_options(
    Cli& cli, RunKnobs& k, const std::vector<std::int64_t>& def_bpp) {
  auto bpp = declare_blocks_option(cli, k, def_bpp);
  declare_rebalance_option(cli, k);
  k.rebalance_threshold = cli.real(
      "rebalance-threshold", k.rebalance_threshold,
      "max/mean rank-load ratio beyond which the adaptive table is adopted");
  if (cli.flag("shared-halo",
               "exchange intra-node halos through zero-copy shared particle "
               "windows instead of messages (bit-identical trajectories)")) {
    k.shared_halo = true;
  }
  k.ranks_per_node = static_cast<int>(cli.integer(
      "ranks-per-node", k.ranks_per_node,
      "ranks per SMP node for the shared halo path — consecutive rank "
      "blocks share a node (0 = every rank on one node)"));
  return bpp;
}

// Stealing runs only under the colored reduction, so --steal selects it.
inline void declare_steal_option(Cli& cli, RunKnobs& k) {
  if (cli.flag("steal",
               "deterministic work stealing over color-plan chunks (colored "
               "reduction only)")) {
    k.steal = true;
    k.reduction = ReductionKind::kColored;
  }
}

}  // namespace hdem

// Sandpile: the physics application that motivates the paper.
//
// "A typical simulation might involve letting particles fall under gravity
// onto a solid surface to form 'sand-piles'.  These piles form and grow
// dynamically, and hence there is an ever-changing spatial distribution of
// clusters of particles; load-balance is clearly one of the key issues for
// any parallel implementation."
//
// Particles rain down in a walled 2-D box, settle into a pile, and we
// measure exactly the load-imbalance the paper is about: how unevenly the
// *work* (links) distributes over a block decomposition, and how a finer
// block-cyclic granularity repairs it.
//
//   ./sandpile [--n=4000] [--steps=4000] [--blocks-per-proc=1,4,16,64]
//              [--skin=0.3]
#include <cstdio>
#include <vector>

#include "core/serial_sim.hpp"
#include "io/checkpoint.hpp"
#include "decomp/layout.hpp"
#include "decomp/rebalance.hpp"
#include "perf/report.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/knob_cli.hpp"

using namespace hdem;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = static_cast<std::uint64_t>(
      cli.integer("n", 4000, "number of grains of sand"));
  const auto steps = static_cast<std::uint64_t>(
      cli.integer("steps", 4000, "settling iterations"));
  RunKnobs knobs;
  const auto bpps = declare_blocks_option(cli, knobs, {1, 4, 16, 64});
  declare_rebalance_option(cli, knobs);
  declare_skin_options(cli, knobs);
  if (cli.finish()) return cli.exit_code();

  // A settled pile is the skin's best case: drift shrinks as the sand
  // comes to rest, so one candidate list serves longer and longer runs of
  // steps (the reuse line below shows the amortisation).
  SimConfig<2> cfg{knobs};
  cfg.box = Vec<2>(2.0, 2.0);
  cfg.bc = BoundaryKind::kWalls;
  cfg.gravity = Vec<2>(0.0, -2.0);
  cfg.stiffness = 400.0;
  cfg.velocity_scale = 0.1;
  cfg.dt = 4e-4;
  cfg.seed = 7;

  // Start from particles suspended through the box; gravity does the rest.
  auto sim = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, n);
  std::printf("dropping %llu particles under gravity...\n",
              static_cast<unsigned long long>(n));
  sim.run(steps);
  std::printf("list reuse: %s\n",
              perf::reuse_line(perf::reuse_summary(sim.counters())).c_str());

  // Height histogram of the settled pile.
  constexpr int kRows = 12;
  std::vector<int> rows(kRows, 0);
  for (std::size_t i = 0; i < sim.store().size(); ++i) {
    int r = static_cast<int>(sim.store().pos(i)[1] / cfg.box[1] * kRows);
    if (r >= kRows) r = kRows - 1;
    if (r < 0) r = 0;
    ++rows[static_cast<std::size_t>(r)];
  }
  std::printf("\nsettled density profile (fraction of particles per height "
              "band):\n");
  for (int r = kRows - 1; r >= 0; --r) {
    const double frac = static_cast<double>(rows[static_cast<std::size_t>(r)]) /
                        static_cast<double>(n);
    std::printf("  y=%4.2f |%-50s| %4.1f%%\n",
                (r + 0.5) * cfg.box[1] / kRows,
                std::string(static_cast<std::size_t>(frac * 150.0), '#')
                    .substr(0, 50)
                    .c_str(),
                100.0 * frac);
  }

  // The parallel question: how badly is per-block *work* (links, which is
  // what the force loop iterates over) imbalanced at each granularity?
  // This is the paper's case for block-cyclic distributions and for
  // shared-memory load balancing.
  std::printf("\nwork imbalance over a 2x2 process grid (P=4):\n");
  std::printf("  %-10s %-8s %-20s %s\n", "B/P", "blocks",
              "max/mean (cyclic)", knobs.rebalance ? "max/mean (LPT)" : "");
  for (const std::int64_t bpp : bpps) {
    auto layout = DecompLayout<2>::make(4, static_cast<int>(bpp));
    // Per-block link load: the cost vector the adaptive rebalancer would
    // exchange at a rebuild.
    std::vector<std::uint64_t> block_links(
        static_cast<std::size_t>(layout.nblocks()), 0);
    for (const auto& link : sim.links().links) {
      // Attribute each link to the block owning its first particle.
      const auto c = layout.block_of_position(
          sim.store().pos(static_cast<std::size_t>(link.i)), cfg.box);
      ++block_links[static_cast<std::size_t>(layout.block_index(c))];
    }
    const auto ratio = [&](std::span<const int> table) {
      return static_cast<double>(
                 imbalance_permille(block_links, table, 4)) /
             1000.0;
    };
    const double cyclic = ratio(layout.assignment());
    if (knobs.rebalance) {
      const double lpt = ratio(lpt_assignment<2>(layout, block_links));
      std::printf("  %-10lld %-8d %-20.2f %.2f\n",
                  static_cast<long long>(bpp), layout.nblocks(), cyclic, lpt);
    } else {
      std::printf("  %-10lld %-8d %.2f\n", static_cast<long long>(bpp),
                  layout.nblocks(), cyclic);
    }
  }
  // Persist the settled pile: any driver can restart from this file (see
  // io/checkpoint.hpp and tests/test_checkpoint.cpp).
  io::write_checkpoint<2>("sandpile_settled.ckpt", sim.config(),
                          io::snapshot(sim));
  std::printf("\nsettled state checkpointed to sandpile_settled.ckpt\n");

  std::printf(
      "\nA pile concentrates all links in the bottom blocks: at B/P=1 one\n"
      "process owns nearly all the work, and finer granularity (larger\n"
      "B/P) evens it out at the cost of the overheads measured in\n"
      "bench/fig3_mpi_granularity — the trade-off this paper quantifies.\n");
  return 0;
}

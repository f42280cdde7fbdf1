// Profiling the hybrid code — the paper's Section 11 workflow.
//
// "We are currently making detailed profiles of the hybrid code to
// quantify the OpenMP overheads for the case of multiple blocks.  To this
// end we are making use of the OMPItrace and Paraver tools from CEPBA to
// produce and analyse accurate traces of performance."
//
// This example produces the same artefacts with the library's built-in
// tracer: per-phase time summaries for the per-block hybrid scheme versus
// the fused (Section 11) scheme at a fine granularity, plus a Chrome-trace
// timeline (open trace_hybrid.json in chrome://tracing or perfetto).
//
//   ./trace_profile [--n=8000] [--steps=40] [--blocks-per-proc=8]
//                   [--rebalance] [--steal]
#include <cstdio>

#include "driver/mp_sim.hpp"
#include "trace/tracer.hpp"
#include "util/cli.hpp"
#include "util/knob_cli.hpp"

using namespace hdem;

namespace {

void profile(const char* label, const SimConfig<2>& cfg,
             const std::vector<ParticleInit<2>>& init, const RunKnobs& knobs,
             std::uint64_t steps, const char* json_path) {
  trace::Tracer::global().enable(true);
  const int bpp = knobs.blocks_per_proc;
  const auto layout = DecompLayout<2>::make(2, bpp);
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, knobs);
    sim.run(steps);
    if (comm.rank() == 0) {
      const auto c = sim.counters();
      std::printf("\n== %s (B/P=%d) ==\n", label, bpp);
      std::printf("parallel regions/iter: %.0f   locked updates: %.1f%%\n",
                  static_cast<double>(c.parallel_regions) /
                      static_cast<double>(c.iterations),
                  100.0 * static_cast<double>(c.atomic_updates) /
                      static_cast<double>(c.atomic_updates +
                                          c.plain_updates));
    }
  });
  std::printf("%s", trace::Tracer::global().summary_table().c_str());
  if (json_path != nullptr) {
    trace::Tracer::global().write_chrome_trace(json_path);
    std::printf("timeline written to %s (open in chrome://tracing)\n",
                json_path);
  }
  trace::Tracer::global().enable(false);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n =
      static_cast<std::uint64_t>(cli.integer("n", 8000, "particles"));
  const auto steps =
      static_cast<std::uint64_t>(cli.integer("steps", 40, "iterations"));
  // Two ranks of two threads; --steal selects the colored reduction.
  RunKnobs knobs;
  knobs.nthreads = 2;
  knobs.overlap =
      cli.choice("overlap", "off", {"off", "on"},
                 "overlap halo swaps with core-link forces") == "on";
  declare_decomp_options(cli, knobs, {8});
  declare_steal_option(cli, knobs);
  if (cli.finish()) return cli.exit_code();

  SimConfig<2> cfg{knobs};
  cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(n));
  cfg.seed = 31;
  const auto init = uniform_random_particles(cfg, n);

  profile("per-block hybrid", cfg, init, knobs, steps, "trace_hybrid.json");
  RunKnobs fused = knobs;
  fused.fused = true;
  profile("fused hybrid (SS11)", cfg, init, fused, steps, nullptr);

  std::printf(
      "\nThe per-block scheme opens 2 parallel regions per block per\n"
      "iteration and locks a growing share of force updates as blocks\n"
      "shrink; the fused scheme opens 2 regions total and locks almost\n"
      "nothing.  Compare the 'force' and 'update' rows above, and see\n"
      "bench/extension_fused_hybrid for the modelled cluster-scale effect.\n");
  return 0;
}

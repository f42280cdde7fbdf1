// Quickstart: the smallest complete use of the library.
//
// Simulates the paper's benchmark system — identical elastic spheres with
// short-range contact forces in a periodic box — with the serial driver,
// and prints energies plus the operation counters every driver maintains.
//
//   ./quickstart [--n=20000] [--steps=200] [--dim3]
#include <cstdio>

#include "core/serial_sim.hpp"
#include "util/cli.hpp"

using namespace hdem;

template <int D>
int run(std::uint64_t n, std::uint64_t steps) {
  // 1. Configure the system: box size chosen for the paper's density,
  //    spheres of diameter 0.05, cutoff rc = 1.5 rmax.
  SimConfig<D> cfg;
  cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(n));
  cfg.cutoff_factor = 1.5;
  cfg.seed = 2026;

  // 2. Create the simulation from a uniform random initial condition.
  auto sim = SerialSim<D>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, n);

  std::printf("n=%llu particles in a %dD box of edge %.3f, %zu links\n",
              static_cast<unsigned long long>(n), D, cfg.box[0],
              sim.links().size());

  // 3. Step.  The link list rebuilds itself automatically when any
  //    particle has drifted far enough to invalidate it.
  const double e0 = [&] {
    sim.step();
    return sim.total_energy();
  }();
  sim.run(steps - 1);

  // 4. Inspect results: energies and the paper-relevant counters.
  std::printf("energy: initial %.6f  final %.6f  (drift %.2e)\n", e0,
              sim.total_energy(),
              std::abs(sim.total_energy() - e0) / std::abs(e0));
  std::printf("%s", sim.counters().summary().c_str());
  return 0;
}

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = static_cast<std::uint64_t>(
      cli.integer("n", 20000, "number of particles"));
  const auto steps = static_cast<std::uint64_t>(
      cli.integer("steps", 200, "iterations to run"));
  const bool dim3 = cli.flag("dim3", "simulate in 3-D instead of 2-D");
  if (cli.finish()) return cli.exit_code();
  return dim3 ? run<3>(n, steps) : run<2>(n, steps);
}

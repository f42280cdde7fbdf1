// Hybrid cluster demo: the same simulation under all four drivers.
//
// Runs the benchmark system serially, with threads (the OpenMP analogue),
// with message passing (block-cyclic ranks), and with the hybrid scheme
// (ranks x thread teams), verifies they produce identical physics, and
// prints each driver's overhead profile plus the modelled time on the
// paper's Compaq ES40 cluster.
//
//   ./hybrid_cluster [--n=8000] [--steps=60] [--blocks-per-proc=4]
//                    [--rebalance] [--steal] [--skin=0.3] [--auto]
//
// With --auto the hybrid leg's rank x thread split is chosen by the
// fitted per-phase scaling model (perf/tune.hpp) instead of the fixed
// 2 x 2: the model is fitted from --tune-file (measuring and saving a
// sweep there first when it does not exist), the top predicted
// configurations are printed, and the best split of 4 CPUs runs the
// hybrid leg.  The choice never moves a trajectory bit — every split
// integrates the same physics.
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "perf/report.hpp"
#include "perf/tune.hpp"
#include "util/cli.hpp"
#include "util/knob_cli.hpp"
#include "util/tune_cli.hpp"

using namespace hdem;

namespace {

// Load the tune file, or measure a small hybrid-shaped grid over this
// workload and save it there first.
perf::FittedModel ensure_hybrid_model(const TuneCliOptions& tune,
                                      const Workload& w,
                                      const RunKnobs& knobs) {
  return perf::fit_model(perf::load_or_measure_tune_rows(
      tune.tune_file_path("hybrid"), "hybrid", [&] {
        perf::SweepSpec sweep;
        sweep.workload = w;
        sweep.skins = {knobs.skin_factor};
        sweep.iterations = 6;
        sweep.warmup = 2;
        sweep.min_seconds = 0.01;
        sweep.max_cpus = 4;
        return perf::run_sweep(sweep);
      }));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n =
      static_cast<std::uint64_t>(cli.integer("n", 8000, "particles"));
  const auto steps =
      static_cast<std::uint64_t>(cli.integer("steps", 60, "iterations"));
  // Stealing rides the colored reduction (--steal selects it); the
  // atomic-family default stays for the plain run so the locked-update
  // column remains meaningful.
  RunKnobs knobs;
  declare_decomp_options(cli, knobs, {4});
  declare_steal_option(cli, knobs);
  declare_skin_options(cli, knobs);
  declare_halo_options(cli, knobs);
  const TuneCliOptions tune = declare_tune_options(cli);
  if (cli.finish()) return cli.exit_code();

  const Workload w{.n = n};
  SimConfig<2> cfg = workload_config<2>(w, knobs);
  cfg.seed = 99;
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  const auto init = workload_particles(cfg, w);

  // --- serial reference ------------------------------------------------
  SerialSim<2> serial(cfg, model, init);
  serial.run(steps);
  std::printf("list reuse (serial): %s\n",
              perf::reuse_line(perf::reuse_summary(serial.counters()))
                  .c_str());
  std::map<int, Vec<2>> ref;
  for (std::size_t i = 0; i < serial.store().size(); ++i) {
    Vec<2> p = serial.store().pos(i);
    serial.boundary().wrap(p);
    ref[serial.store().id(i)] = p;
  }
  std::printf("serial:  energy %.6f\n", serial.total_energy());

  // --- threads (pure shared memory, links decomposed over 4 threads) ----
  SmpSim<2> smp(cfg, model, init, 4, knobs.reduction, knobs.steal);
  smp.run(steps);
  double smp_err = 0.0;
  for (std::size_t i = 0; i < smp.store().size(); ++i) {
    Vec<2> p = smp.store().pos(i);
    Boundary<2>(cfg.bc, cfg.box).wrap(p);
    smp_err = std::max(smp_err, norm(p - ref.at(smp.store().id(i))));
  }
  const auto smp_c = smp.counters();
  std::printf(
      "threads: energy %.6f  max dev %.1e  regions %llu  locked %.1f%%\n",
      smp.total_energy(), smp_err,
      static_cast<unsigned long long>(smp_c.parallel_regions),
      100.0 * static_cast<double>(smp_c.atomic_updates) /
          static_cast<double>(smp_c.atomic_updates + smp_c.plain_updates));

  // --- pure message passing: 4 ranks, --blocks-per-proc blocks each ------
  const auto layout = DecompLayout<2>::make(4, knobs.blocks_per_proc);
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm, model, init, knobs);
    sim.run(steps);
    const double energy = sim.global_energy();
    auto state = sim.gather_state();
    if (comm.rank() != 0) return;
    double err = 0.0;
    Boundary<2> bc(cfg.bc, cfg.box);
    for (auto& r : state) {
      Vec<2> q = r.pos;
      bc.wrap(q);
      err = std::max(err, norm(bc.displacement(q, ref.at(r.id))));
    }
    const auto c = sim.counters();
    std::printf(
        "mp:      energy %.6f  max dev %.1e  msgs %llu  bytes %llu  "
        "halo %llu\n",
        energy, err, static_cast<unsigned long long>(c.msgs_sent),
        static_cast<unsigned long long>(c.bytes_sent),
        static_cast<unsigned long long>(c.halo_particles));
    std::printf("  halo swap (mp): %s\n",
                perf::halo_line(perf::halo_summary(c)).c_str());
  });

  // --- hybrid: ranks x threads over the same 4 CPUs ------------------------
  // Fixed 2 x 2 by default; with --auto the fitted model ranks the
  // possible splits and the best predicted one runs.
  int hybrid_procs = 2;
  int hybrid_threads = 2;
  if (tune.auto_mode) {
    const perf::FittedModel fitted = ensure_hybrid_model(tune, w, knobs);
    std::vector<RunKnobs> candidates;
    for (const auto& [p_c, t_c] : {std::pair{1, 4}, {2, 2}, {4, 1}}) {
      RunKnobs c = knobs;
      c.nprocs = p_c;
      c.nthreads = t_c;
      c.blocks_per_proc = (4 / p_c) * knobs.blocks_per_proc;
      candidates.push_back(c);
    }
    const auto ranked = perf::predict_ranked(fitted, w, candidates);
    double fit_err = 0.0;
    int fit_cnt = 0;
    for (int p = 0; p < perf::FittedModel::kPhaseCount; ++p) {
      const double e = fitted.mean_rel_error[static_cast<std::size_t>(p)];
      if (e > 0.0) {
        fit_err += e;
        ++fit_cnt;
      }
    }
    if (fit_cnt > 0) fit_err /= fit_cnt;
    std::printf("\nauto: predicted 4-CPU splits (model mean fit error "
                "%.0f%%):\n", 1e2 * fit_err);
    for (const auto& r : ranked) {
      std::printf("  P=%d T=%d B=%d  step %.2f ms  "
                  "(force %.2f  rebuild %.2f  halo %.2f  other %.2f)\n",
                  r.config.nprocs, r.config.nthreads,
                  r.config.blocks_per_proc, 1e3 * r.step_seconds,
                  1e3 * r.predicted[perf::FittedModel::kForce],
                  1e3 * r.predicted[perf::FittedModel::kRebuild],
                  1e3 * r.predicted[perf::FittedModel::kHalo],
                  1e3 * r.predicted[perf::FittedModel::kOther]);
    }
    hybrid_procs = ranked.front().config.nprocs;
    hybrid_threads = ranked.front().config.nthreads;
    std::printf("auto: hybrid leg runs %d rank(s) x %d thread(s)\n\n",
                hybrid_procs, hybrid_threads);
  }
  const auto hybrid_layout = DecompLayout<2>::make(
      hybrid_procs, (4 / hybrid_procs) * knobs.blocks_per_proc);
  mp::run(hybrid_procs, [&](mp::Comm& comm) {
    MpOptions opts = knobs;
    opts.nthreads = hybrid_threads;
    MpSim<2> sim(cfg, hybrid_layout, comm, model, init, opts);
    sim.run(steps);
    const double energy = sim.global_energy();
    auto state = sim.gather_state();
    if (comm.rank() != 0) return;
    double err = 0.0;
    Boundary<2> bc(cfg.bc, cfg.box);
    for (auto& r : state) {
      Vec<2> q = r.pos;
      bc.wrap(q);
      err = std::max(err, norm(bc.displacement(q, ref.at(r.id))));
    }
    const auto c = sim.counters();
    std::printf(
        "hybrid:  energy %.6f  max dev %.1e  msgs %llu  regions %llu\n",
        energy, err, static_cast<unsigned long long>(c.msgs_sent),
        static_cast<unsigned long long>(c.parallel_regions));
    std::printf("  halo swap (hybrid): %s\n",
                perf::halo_line(perf::halo_summary(c)).c_str());
  });

  std::printf(
      "\nAll four drivers integrate the same trajectory (deviations are\n"
      "floating-point summation order only).  The overhead columns above —\n"
      "messages for the decomposed runs, parallel regions and locked-update\n"
      "fractions for the threaded ones — are the quantities the paper's\n"
      "evaluation turns into Figures 1-8; see bench/ for the full\n"
      "reproduction on the modelled T3E / Sun / Compaq platforms.\n");
  return 0;
}

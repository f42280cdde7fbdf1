// SIMD width sweep — the vectorized kernel layer's measurement artifact.
//
// Three measurements, written to results/BENCH_simd.json:
//   1. whole-kernel ns/link of the batched pair force pass at every
//      dispatch width this build + CPU supports, for both force models
//      (elastic, dissipative) in 2D and 3D;
//   2. ns/link of the compute phase alone (Model::pair over the batch
//      scratch arrays — the paper's "one square root and one inverse")
//      scalar vs packed at the native width, which is where the >= 1.3x
//      vector gain must show up;
//   3. 120-step trajectory hashes per width for the serial, SmpSim and
//      MpSim drivers — the bit-identity contract of DESIGN.md §3.4.
//
// Exit status is nonzero when any trajectory hash differs across widths;
// the speedups are honest host measurements and are recorded either way.
#include <cstring>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

// The kernels_gbench benchmark system, templated over dimension.
template <int D>
struct System {
  SimConfig<D> cfg;
  Boundary<D> bc;
  ParticleStore<D> store;
  CellGrid<D> grid;
  LinkList list;

  explicit System(std::uint64_t n) {
    cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(n));
    bc = Boundary<D>(cfg.bc, cfg.box);
    for (const auto& p : uniform_random_particles(cfg, n)) {
      store.push_back(p.pos, p.vel);
    }
    std::array<bool, D> wrap{};
    wrap.fill(true);
    grid.configure(Vec<D>{}, cfg.box, cfg.cutoff(), wrap);
    grid.bin(store.positions(), store.size());
    store.apply_permutation(grid.order(), store.size());
    grid.reset_order_to_identity();
    smp::ThreadTeam team(1);
    FusedBuildScratch scratch;
    build_links_fused(list, grid, store.cpositions(), store.size(),
                      cfg.cutoff(), bc.pair_disp(), team, scratch);
  }
};

// Best-of ns/link of the whole batched force pass at `width`.
template <int D, class Model>
double time_force_pass(System<D>& sys, const Model& model, int width,
                       int reps) {
  simd::set_dispatch_width(width);
  const PairDisp<D> disp = sys.bc.pair_disp();
  double best = 1e300;
  for (int r = 0; r <= reps; ++r) {  // r = 0 is the warm-up
    zero_forces(sys.store);
    Timer t;
    const double pe = accumulate_forces<D>(sys.list.core(), sys.store, model,
                                           disp, true, 1.0);
    const double sec = t.seconds();
    volatile double guard = pe;
    (void)guard;
    if (r > 0 && sec < best) best = sec;
  }
  simd::set_dispatch_width(0);
  return best / static_cast<double>(sys.list.n_core) * 1e9;
}

// --- compute phase in isolation --------------------------------------------
// Model::pair over flat r2/rv scratch, exactly as the kernel's middle phase
// runs it; scalar loop vs packs of compile-time width W.

template <class Model>
double eval_scalar(const Model& model, const std::vector<double>& r2,
                   const std::vector<double>& rv, std::vector<double>& s,
                   std::vector<double>& e, std::vector<unsigned char>& hit) {
  for (std::size_t k = 0; k < r2.size(); ++k) {
    hit[k] = model.pair(r2[k], rv[k], s[k], e[k]) ? 1 : 0;
  }
  return s[0];
}

template <int W, class Model>
double eval_packed(const Model& model, const std::vector<double>& r2,
                   const std::vector<double>& rv, std::vector<double>& s,
                   std::vector<double>& e, std::vector<unsigned char>& hit) {
  using P = simd::pack<double, W>;
  const std::size_t n = r2.size();
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    const P pr2 = P::load(&r2[k]);
    const P prv = P::load(&rv[k]);
    P ps, pe;
    const auto m = model.pair_packed(pr2, prv, ps, pe);
    ps.store(&s[k]);
    pe.store(&e[k]);
    m.store_bytes(&hit[k]);
  }
  for (; k < n; ++k) hit[k] = model.pair(r2[k], rv[k], s[k], e[k]) ? 1 : 0;
  return s[0];
}

struct ComputePhase {
  double ns_scalar = 0.0;
  double ns_simd = 0.0;
  double speedup() const { return ns_simd > 0.0 ? ns_scalar / ns_simd : 1.0; }
};

template <class Model>
ComputePhase time_compute_phase(const Model& model, int width, std::size_t n,
                                int reps) {
  // Separations spanning hit and miss lanes around the contact diameter.
  std::vector<double> r2(n), rv(n), s(n), e(n);
  std::vector<unsigned char> hit(n);
  std::uint64_t rng = 0x2545f4914f6cdd1dull;
  for (std::size_t k = 0; k < n; ++k) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(rng >> 11) / 9007199254740992.0;
    const double d = model.d;
    r2[k] = (0.25 + 1.5 * u) * d * d;
    rv[k] = (u - 0.5) * 1e-3;
  }
  const auto best_of = [&](auto&& fn) {
    double best = 1e300;
    for (int r = 0; r <= reps; ++r) {
      Timer t;
      const double guard = fn();
      const double sec = t.seconds();
      volatile double g = guard;
      (void)g;
      if (r > 0 && sec < best) best = sec;
    }
    return best / static_cast<double>(n) * 1e9;
  };
  ComputePhase out;
  out.ns_scalar = best_of([&] { return eval_scalar(model, r2, rv, s, e, hit); });
  double ns_v = out.ns_scalar;
  if constexpr (simd::kMaxWidth >= 4) {
    if (width >= 4) {
      ns_v = best_of([&] { return eval_packed<4>(model, r2, rv, s, e, hit); });
    }
  }
  if constexpr (simd::kMaxWidth >= 2) {
    if (width == 2) {
      ns_v = best_of([&] { return eval_packed<2>(model, r2, rv, s, e, hit); });
    }
  }
  out.ns_simd = ns_v;
  return out;
}

// A DissipativeSphere with ElasticSphere-compatible construction for the
// sweep loops.
struct Models {
  ElasticSphere elastic;
  DissipativeSphere dissipative;
};

// --- trajectory identity ---------------------------------------------------

template <int D>
SimConfig<D> traj_config() {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 777;
  cfg.velocity_scale = 0.8;  // several rebuilds inside the window
  return cfg;
}

template <int D>
std::uint64_t serial_traj(std::uint64_t n, int steps, int width) {
  simd::set_dispatch_width(width);
  const auto cfg = traj_config<D>();
  const auto init = uniform_random_particles(cfg, n);
  SerialSim<D> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
  sim.run(static_cast<std::uint64_t>(steps));
  simd::set_dispatch_width(0);
  return trajectory_digest<D>(sim.store());
}

template <int D>
std::uint64_t smp_traj(std::uint64_t n, int steps, int width) {
  simd::set_dispatch_width(width);
  const auto cfg = traj_config<D>();
  const auto init = uniform_random_particles(cfg, n);
  SmpSim<D> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init, 3,
                ReductionKind::kColored);
  sim.run(static_cast<std::uint64_t>(steps));
  simd::set_dispatch_width(0);
  return trajectory_digest<D>(sim.store());
}

template <int D>
std::uint64_t mp_traj(std::uint64_t n, int steps, int width) {
  simd::set_dispatch_width(width);
  const auto cfg = traj_config<D>();
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<D>::make(2, 2);
  std::uint64_t h = 0;
  mp::run(2, [&](mp::Comm& comm) {
    typename MpSim<D>::Options opts;
    MpSim<D> sim(cfg, layout, comm, ElasticSphere{cfg.stiffness, cfg.diameter},
                 init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    auto state = sim.gather_state();
    if (comm.rank() == 0) h = trajectory_digest<D>(std::move(state));
  });
  simd::set_dispatch_width(0);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n2 = static_cast<std::uint64_t>(
      cli.integer("n2", 30'000, "particles for the D=2 force-pass timings"));
  const auto n3 = static_cast<std::uint64_t>(
      cli.integer("n3", 24'000, "particles for the D=3 force-pass timings"));
  const auto reps =
      static_cast<int>(cli.integer("reps", 5, "repetitions (best-of)"));
  const auto phase_n = static_cast<std::uint64_t>(cli.integer(
      "phase-n", 1 << 16, "elements for the compute-phase timings"));
  const auto traj_n = static_cast<std::uint64_t>(cli.integer(
      "traj-n", 4'000, "particles for the bit-identity trajectory check"));
  const auto traj_steps = static_cast<int>(
      cli.integer("traj-steps", 120, "steps for the trajectory check"));
  if (cli.finish()) return cli.exit_code();

  std::vector<int> widths{1};
  if (simd::kMaxWidth >= 2 && simd::cpu_supports_width(2)) widths.push_back(2);
  if (simd::kMaxWidth >= 4 && simd::cpu_supports_width(4)) widths.push_back(4);
  const int native = widths.back();

  std::ostringstream out;
  out << "== SIMD width sweep (compiled=" << simd::isa_name(simd::kCompiledIsa)
      << ", native width=" << native << ") ==\n\n";

  std::ostringstream json;
  json << "{\n  \"compiled_isa\": \"" << simd::isa_name(simd::kCompiledIsa)
       << "\",\n  \"native_width\": " << native << ",\n";

  // -- whole-kernel ns/link sweep ------------------------------------------
  const Models models{};
  Table t({"D", "model", "width", "ns/link", "speedup vs scalar"});
  json << "  \"force_pass\": [";
  bool first = true;
  double best_kernel_speedup = 0.0;
  System<2> sys2(n2);
  System<3> sys3(n3);
  for (int D : {2, 3}) {
    for (const char* mname : {"elastic", "dissipative"}) {
      const bool elastic = std::strcmp(mname, "elastic") == 0;
      double ns1 = 0.0;
      for (const int w : widths) {
        double ns = 0.0;
        if (D == 2) {
          ns = elastic ? time_force_pass(sys2, models.elastic, w, reps)
                       : time_force_pass(sys2, models.dissipative, w, reps);
        } else {
          ns = elastic ? time_force_pass(sys3, models.elastic, w, reps)
                       : time_force_pass(sys3, models.dissipative, w, reps);
        }
        if (w == 1) ns1 = ns;
        const double speedup = ns > 0.0 ? ns1 / ns : 0.0;
        if (w == native && speedup > best_kernel_speedup) {
          best_kernel_speedup = speedup;
        }
        t.add_row({std::to_string(D), mname, std::to_string(w),
                   Table::num(ns, 2),
                   w == 1 ? "-" : Table::num(speedup, 2) + "x"});
        json << (first ? "" : ",") << "\n    {\"D\": " << D
             << ", \"model\": \"" << mname << "\", \"width\": " << w
             << ", \"ns_per_link\": " << ns
             << ", \"speedup_vs_scalar\": " << speedup << "}";
        first = false;
      }
    }
  }
  json << "\n  ],\n";
  out << t.render() << "\n";

  // -- compute phase in isolation ------------------------------------------
  Table ct({"model", "width", "scalar ns/elem", "simd ns/elem", "speedup"});
  json << "  \"compute_phase\": [";
  double best_phase_speedup = 0.0;
  bool cfirst = true;
  for (const char* mname : {"elastic", "dissipative"}) {
    const bool elastic = std::strcmp(mname, "elastic") == 0;
    const ComputePhase p =
        elastic
            ? time_compute_phase(models.elastic, native, phase_n, reps)
            : time_compute_phase(models.dissipative, native, phase_n, reps);
    best_phase_speedup = std::max(best_phase_speedup, p.speedup());
    ct.add_row({mname, std::to_string(native), Table::num(p.ns_scalar, 2),
                Table::num(p.ns_simd, 2), Table::num(p.speedup(), 2) + "x"});
    json << (cfirst ? "" : ",") << "\n    {\"model\": \"" << mname
         << "\", \"width\": " << native
         << ", \"ns_per_elem_scalar\": " << p.ns_scalar
         << ", \"ns_per_elem_simd\": " << p.ns_simd
         << ", \"speedup\": " << p.speedup() << "}";
    cfirst = false;
  }
  json << "\n  ],\n  \"best_compute_phase_speedup\": " << best_phase_speedup
       << ",\n  \"best_kernel_speedup\": " << best_kernel_speedup
       << ",\n  \"meets_1p3x\": "
       << (best_phase_speedup >= 1.3 ? "true" : "false") << ",\n";
  out << ct.render() << "\n";
  out << "Best compute-phase speedup at native width: "
      << Table::num(best_phase_speedup, 2) << "x (target >= 1.3x)\n\n";

  // -- trajectory bit-identity across widths -------------------------------
  out << "Trajectory bit-identity across widths {";
  for (std::size_t i = 0; i < widths.size(); ++i) {
    out << (i ? ", " : "") << widths[i];
  }
  out << "} (" << traj_n << " particles, " << traj_steps << " steps):\n";
  json << "  \"trajectory_identity\": [";
  bool all_identical = true;
  bool tfirst = true;
  const auto check = [&](const char* driver, int D, auto&& runner) {
    std::uint64_t ref = 0;
    bool identical = true;
    std::ostringstream hashes;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::uint64_t h = runner(widths[i]);
      if (i == 0) ref = h;
      identical = identical && h == ref;
      hashes << (i ? ", " : "") << "\"" << std::hex << h << std::dec << "\"";
    }
    all_identical = all_identical && identical;
    out << "  " << driver << " D=" << D << " -> "
        << (identical ? "bit-identical" : "MISMATCH") << "\n";
    json << (tfirst ? "" : ",") << "\n    {\"driver\": \"" << driver
         << "\", \"D\": " << D
         << ", \"identical\": " << (identical ? "true" : "false")
         << ", \"hashes\": [" << hashes.str() << "]}";
    tfirst = false;
  };
  check("serial", 2,
        [&](int w) { return serial_traj<2>(traj_n, traj_steps, w); });
  check("serial", 3,
        [&](int w) { return serial_traj<3>(traj_n, traj_steps, w); });
  check("smp", 3, [&](int w) { return smp_traj<3>(traj_n, traj_steps, w); });
  check("mp", 3, [&](int w) { return mp_traj<3>(traj_n, traj_steps, w); });
  json << "\n  ],\n  \"all_identical\": "
       << (all_identical ? "true" : "false") << "\n}\n";

  out << "\nShape checks:\n"
      << "  - compute-phase speedup at the native width exceeds 1.3x on at\n"
      << "    least one force model (explicit sqrt/rcp lanes vs scalar)\n"
      << "  - whole-kernel gains are smaller (gather + ordered scatter stay\n"
      << "    partly serial by design) but must not regress below 1x\n"
      << "  - every trajectory hash is identical across widths: fixed-order\n"
      << "    lane reduction keeps the vector kernels bit-exact\n";
  perf::save_artifact("BENCH_simd.json", json.str());
  out << "Per-width results written to results/BENCH_simd.json\n";
  emit("simd_width_sweep.txt", out.str());
  return all_identical ? 0 : 1;
}

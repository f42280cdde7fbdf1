// Initial-condition generators, and the workload that selects one.
//
// Every driver (serial, threaded, message-passing, hybrid) starts from the
// same deterministic global particle set so their trajectories can be
// compared directly; the decomposed drivers filter this set into their own
// blocks.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/rng.hpp"
#include "util/vec.hpp"

namespace hdem {

template <int D>
struct ParticleInit {
  Vec<D> pos;
  Vec<D> vel;
};

// Snapshot of one particle with its stable id; the interchange format
// between drivers (trajectory comparison, checkpoints).
template <int D>
struct StateRecord {
  std::int32_t id;
  Vec<D> pos;
  Vec<D> vel;
};

// Initial conditions from a snapshot: records are placed so that particle
// ids match their position in the returned list (throws when ids are not
// exactly 0..n-1, e.g. a truncated snapshot).
template <int D>
std::vector<ParticleInit<D>> particles_from_records(
    std::span<const StateRecord<D>> records) {
  std::vector<ParticleInit<D>> out(records.size());
  std::vector<bool> seen(records.size(), false);
  for (const auto& r : records) {
    if (r.id < 0 || static_cast<std::size_t>(r.id) >= records.size() ||
        seen[static_cast<std::size_t>(r.id)]) {
      throw std::invalid_argument(
          "particles_from_records: ids must be a permutation of 0..n-1");
    }
    seen[static_cast<std::size_t>(r.id)] = true;
    out[static_cast<std::size_t>(r.id)] = {r.pos, r.vel};
  }
  return out;
}

// The paper's benchmark initial condition: n identical particles with "a
// uniform, random distribution" in the box and small random velocities.
template <int D>
std::vector<ParticleInit<D>> uniform_random_particles(const SimConfig<D>& cfg,
                                                      std::uint64_t n) {
  Rng rng(cfg.seed);
  std::vector<ParticleInit<D>> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ParticleInit<D> p;
    for (int d = 0; d < D; ++d) {
      p.pos[d] = rng.uniform(0.0, cfg.box[d]);
      p.vel[d] = rng.uniform(-cfg.velocity_scale, cfg.velocity_scale);
    }
    out.push_back(p);
  }
  return out;
}

// Clustered initial condition: all particles confined to the bottom
// `fraction` of the box in the last dimension (a settled sand pile, to
// first order).  This is the workload class that motivates the paper —
// "there is an ever-changing spatial distribution of clusters of
// particles; load-balance is clearly one of the key issues" — and what
// the block-cyclic distribution and hybrid load balancing exist for.
template <int D>
std::vector<ParticleInit<D>> clustered_particles(const SimConfig<D>& cfg,
                                                 std::uint64_t n,
                                                 double fraction) {
  Rng rng(cfg.seed);
  std::vector<ParticleInit<D>> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ParticleInit<D> p;
    for (int d = 0; d < D; ++d) {
      const double hi = d == D - 1 ? cfg.box[d] * fraction : cfg.box[d];
      p.pos[d] = rng.uniform(0.0, hi);
      p.vel[d] = rng.uniform(-cfg.velocity_scale, cfg.velocity_scale);
    }
    out.push_back(p);
  }
  return out;
}

// Simple cubic lattice filling the box, spacing chosen from the particle
// count; useful for tests that need a non-overlapping configuration.
template <int D>
std::vector<ParticleInit<D>> lattice_particles(const SimConfig<D>& cfg,
                                               std::uint64_t approx_n) {
  // per-dimension count so that prod(m) >= approx_n with equal spacing
  std::uint64_t m = 1;
  while (true) {
    std::uint64_t total = 1;
    for (int d = 0; d < D; ++d) total *= (m + 1);
    if (total >= approx_n) break;
    ++m;
  }
  const std::uint64_t side = m + 1;
  std::vector<ParticleInit<D>> out;
  Rng rng(cfg.seed);
  std::uint64_t total = 1;
  for (int d = 0; d < D; ++d) total *= side;
  for (std::uint64_t idx = 0; idx < total && out.size() < approx_n; ++idx) {
    std::uint64_t rem = idx;
    ParticleInit<D> p;
    for (int d = D - 1; d >= 0; --d) {
      const std::uint64_t k = rem % side;
      rem /= side;
      p.pos[d] = (static_cast<double>(k) + 0.5) * cfg.box[d] /
                 static_cast<double>(side);
      p.vel[d] = rng.uniform(-cfg.velocity_scale, cfg.velocity_scale);
    }
    out.push_back(p);
  }
  return out;
}

// Settled bed: a contact-free lattice at rest except for every `stride`-th
// particle, which carries a fixed small velocity.  The static majority
// repeats bit-identically between halo swaps — the workload the
// delta-compressed halo frames (SimConfig::halo_delta) exploit.  Callers
// widen the box (lattice spacing > rc) so the bed stays contact-free over
// the measured window.
template <int D>
std::vector<ParticleInit<D>> settled_bed_particles(const SimConfig<D>& cfg,
                                                   std::uint64_t approx_n,
                                                   std::uint64_t stride,
                                                   double speed) {
  SimConfig<D> quiet = cfg;
  quiet.velocity_scale = 0.0;
  auto out = lattice_particles(quiet, approx_n);
  if (stride == 0) return out;
  for (std::size_t i = 0; i < out.size();
       i += static_cast<std::size_t>(stride)) {
    for (int d = 0; d < D; ++d) {
      out[i].vel[d] = speed / static_cast<double>(d + 1);
    }
  }
  return out;
}

// The scenario registry: every entry maps to one of the generators above.
enum class Scenario : std::uint8_t {
  kUniform,    // the paper's uniform random benchmark system
  kClustered,  // settled-sand pile (bottom fraction of the box)
  kSettled,    // near-static lattice bed with a sparse moving minority
};

inline const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kUniform: return "uniform";
    case Scenario::kClustered: return "clustered";
    case Scenario::kSettled: return "settled";
  }
  return "?";
}

inline Scenario scenario_from_string(const std::string& s) {
  if (s == "uniform") return Scenario::kUniform;
  if (s == "clustered") return Scenario::kClustered;
  if (s == "settled") return Scenario::kSettled;
  throw std::invalid_argument(
      "scenario must be uniform, clustered or settled, got '" + s + "'");
}

// What a run simulates, as opposed to how it executes (the run knobs,
// driver/knobs.hpp): a scenario at the paper's density.  Measuring,
// tuning and serving all describe their systems with it.  The scenario
// parameters are read only by their own scenario.
struct Workload {
  Scenario scenario = Scenario::kUniform;
  int D = 2;                          // 2 or 3
  std::uint64_t n = 4000;             // particles
  double rc_factor = 1.5;             // rc / rmax
  // Initial speed scale: how hot the system runs, i.e. how often drift
  // invalidates the candidate list.  kSettled: the movers' speed.
  double velocity_scale = 0.05;
  std::uint64_t settled_stride = 16;  // kSettled: every stride-th moves
  double cluster_fraction = 0.5;      // kClustered: occupied box fraction
};

// The workload's config: the paper-density box for w.n particles, its
// cutoff and speed, and the knobs' list slice.  Callers set the seed.
template <int D>
SimConfig<D> workload_config(const Workload& w, const ListKnobs& knobs) {
  SimConfig<D> cfg{knobs};
  cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(w.n));
  cfg.cutoff_factor = w.rc_factor;
  cfg.velocity_scale = w.velocity_scale;
  return cfg;
}

// The workload's initial condition under cfg (box, seed, speed).
template <int D>
std::vector<ParticleInit<D>> workload_particles(const SimConfig<D>& cfg,
                                                const Workload& w) {
  switch (w.scenario) {
    case Scenario::kUniform:
      return uniform_random_particles(cfg, w.n);
    case Scenario::kClustered:
      return clustered_particles(cfg, w.n, w.cluster_fraction);
    case Scenario::kSettled:
      return settled_bed_particles(cfg, w.n, w.settled_stride,
                                   w.velocity_scale);
  }
  throw std::invalid_argument("workload_particles: unknown scenario");
}

}  // namespace hdem

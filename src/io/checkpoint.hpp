// Binary checkpoint / restart.
//
// Long DEM runs (the physics simulations behind this paper run piles for
// huge numbers of steps) need restartable state.  A checkpoint stores the
// simulation configuration and every particle's (id, position, velocity);
// any driver can resume from it — the serial driver directly, the
// decomposed drivers by re-scattering the records over their blocks, which
// they do anyway from an initial condition.
//
// Format (native endianness, documented in the header itself):
//   magic   u64  "HDEMCKP1"
//   version u32  (1)
//   D       u32
//   bc      u32  (BoundaryKind)
//   reorder u32  (0/1)
//   doubles: box[D], diameter, stiffness, cutoff_factor, dt,
//            velocity_scale, gravity[D]
//   seed    u64
//   n       u64
//   n x StateRecord<D>  (trivially copyable)
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/init.hpp"
#include "core/particle_store.hpp"

namespace hdem::io {

inline constexpr std::uint64_t kCheckpointMagic = 0x3150'4b43'4d45'4448ULL;
inline constexpr std::uint32_t kCheckpointVersion = 1;

template <int D>
struct Checkpoint {
  SimConfig<D> config;
  std::vector<StateRecord<D>> particles;
};

namespace detail {

template <class T>
void put(std::ofstream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T get(std::ifstream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("checkpoint: truncated file");
  return value;
}

}  // namespace detail

template <int D>
void write_checkpoint(const std::string& path, const SimConfig<D>& cfg,
                      std::span<const StateRecord<D>> particles) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("checkpoint: cannot open " + path);
  detail::put(out, kCheckpointMagic);
  detail::put(out, kCheckpointVersion);
  detail::put(out, static_cast<std::uint32_t>(D));
  detail::put(out, static_cast<std::uint32_t>(cfg.bc));
  detail::put(out, static_cast<std::uint32_t>(cfg.reorder ? 1 : 0));
  for (int d = 0; d < D; ++d) detail::put(out, cfg.box[d]);
  detail::put(out, cfg.diameter);
  detail::put(out, cfg.stiffness);
  detail::put(out, cfg.cutoff_factor);
  detail::put(out, cfg.dt);
  detail::put(out, cfg.velocity_scale);
  for (int d = 0; d < D; ++d) detail::put(out, cfg.gravity[d]);
  detail::put(out, cfg.seed);
  detail::put(out, static_cast<std::uint64_t>(particles.size()));
  // Field-wise, with the struct's alignment hole written as explicit
  // zeros: StateRecord has 4 bytes of padding after the int32 id, and
  // dumping raw structs would put indeterminate padding bytes in the file
  // — equal states must produce byte-identical checkpoints (the serving
  // layer's identity gates compare files directly).  The layout matches
  // the in-memory struct, so the reader can still bulk-read records.
  for (const auto& r : particles) {
    detail::put(out, r.id);
    detail::put(out, std::uint32_t{0});
    detail::put(out, r.pos);
    detail::put(out, r.vel);
  }
  if (!out) throw std::runtime_error("checkpoint: write failed: " + path);
}

template <int D>
Checkpoint<D> read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  if (detail::get<std::uint64_t>(in) != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: bad magic (not a checkpoint?)");
  }
  const auto version = detail::get<std::uint32_t>(in);
  if (version != kCheckpointVersion) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version));
  }
  const auto dim = detail::get<std::uint32_t>(in);
  if (dim != static_cast<std::uint32_t>(D)) {
    throw std::runtime_error("checkpoint: dimension mismatch (file has D=" +
                             std::to_string(dim) + ")");
  }
  Checkpoint<D> ck;
  ck.config.bc = static_cast<BoundaryKind>(detail::get<std::uint32_t>(in));
  ck.config.reorder = detail::get<std::uint32_t>(in) != 0;
  for (int d = 0; d < D; ++d) ck.config.box[d] = detail::get<double>(in);
  ck.config.diameter = detail::get<double>(in);
  ck.config.stiffness = detail::get<double>(in);
  ck.config.cutoff_factor = detail::get<double>(in);
  ck.config.dt = detail::get<double>(in);
  ck.config.velocity_scale = detail::get<double>(in);
  for (int d = 0; d < D; ++d) ck.config.gravity[d] = detail::get<double>(in);
  ck.config.seed = detail::get<std::uint64_t>(in);
  const auto n = detail::get<std::uint64_t>(in);
  ck.particles.resize(n);
  in.read(reinterpret_cast<char*>(ck.particles.data()),
          static_cast<std::streamsize>(n * sizeof(StateRecord<D>)));
  if (!in) throw std::runtime_error("checkpoint: truncated particle data");
  return ck;
}

// Sorted-by-id snapshot of any undecomposed driver's particle store (the
// decomposed driver's gather_state already returns this shape).  The
// serving jobs stream their state through this on every checkpoint.
template <int D>
std::vector<StateRecord<D>> snapshot_store(const ParticleStore<D>& store) {
  std::vector<StateRecord<D>> out(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = store.id(i);
    out[static_cast<std::size_t>(id)] = {id, store.pos(i), store.vel(i)};
  }
  return out;
}

// Snapshot any undecomposed driver (records sorted by id).
template <class Sim>
auto snapshot(const Sim& sim) {
  return snapshot_store(sim.store());
}

}  // namespace hdem::io

// Halo construction and per-iteration halo swaps.
//
// "The core domain of each block is extended in the standard way to
// include a halo of width rc in every dimension, and at each iteration we
// perform halo swaps with neighbouring processors. ... For efficiency, we
// construct MPI indexed data-types for every block which describe the halo
// data to be sent in each dimension.  Halo swaps are achieved by a series
// of matched sendrecv calls between neighbouring blocks; the strided halo
// is received into contiguous storage immediately following the data for
// the core particles."
//
// The exchange sweeps dimension by dimension; particles received in
// earlier dimensions are forwarded in later ones, which populates the
// corner regions.  Same-rank neighbouring blocks short-circuit through a
// local copy (tallied separately, so the performance model can price
// intra-rank transfers at memory speed).
//
// The per-iteration swap is split into two phases so the driver can
// overlap it with core-link forces: begin_swap packs and posts the first
// dimension's sends and receives, and finish_swap drains them and runs the
// remaining dimensions, which cannot start earlier because they forward
// data received in dimension 0.  Dimension-d send templates are built
// before dimension-d halos exist, so they never index a dimension-d
// receive region — packing and delivery within one dimension can
// interleave freely.  Core links only touch indices below ncore, which is
// what makes the in-flight window safe for compute.
//
// Every wire halo message is a stream of frames (DESIGN §3.8): a
// HaloFrameHeader naming the destination block and entry count, then the
// side's payload.  Receives land in a persistent per-channel buffer and
// are applied frame by frame into each block's halo region, after the
// header has been checked against the receiver's own template — so every
// wire byte is validated before it is used.  With delta and coalescing off
// each wire side is one eager frame, sent on its own per-side halo tag.
//
// With enable_shared_windows, edges between different ranks of the same
// node (per the NodeMap) bypass the wire entirely: the owner publishes a
// generation-fenced HaloWindow over its position array and the reader
// gathers straight into its halo storage, applying the periodic shift at
// read time (mp/shm.hpp).  The shift arithmetic per element is identical
// to the pack-time shift, and the receive layout is untouched, so the
// delivered halos — and hence trajectories — are bit-identical to the
// wire path.  Inter-node edges and the template-construction exchange
// keep the wire; same-rank edges keep the direct copy.
//
// Delta compression and coalescing (set_frame_modes): the halo templates
// are frozen between rebuilds, so each wire send side can keep a shadow
// of the (unshifted) slice it last shipped.  A delta frame carries a
// change bitmask and the dense list of changed Vec<D> values; the
// receiver patches only the masked entries of its halo region, which
// otherwise still holds the previous copies bit-exactly — reconstruction
// is bitwise-exact, so trajectories are bit-identical with delta on or
// off.  Coalescing merges every wire side sharing a (neighbour rank, dim,
// direction) into one message, cutting the per-message latency term when
// blocks-per-proc > 1.  Same-node windows stage the same way: the staged
// slice doubles as the shadow and readers copy only the masked entries.
// A per-side adaptive fallback reverts to eager frames when the measured
// change fraction makes masks a net loss; it is decided at rebuilds
// (global collective events), so both endpoints flip together.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/boundary.hpp"
#include "core/counters.hpp"
#include "decomp/block.hpp"
#include "decomp/layout.hpp"
#include "mp/comm.hpp"
#include "mp/nodemap.hpp"
#include "mp/shm.hpp"
#include "trace/tracer.hpp"
#include "util/vec.hpp"

namespace hdem {

// ---------------------------------------------------------------------------
// Frame format (wire layout of one side's swap payload):
//
//   HaloFrameHeader                                       16 bytes
//   mask    ceil(count/64) x uint64   (delta frames only)
//   values  changed x Vec<D>          (count x Vec<D> for eager frames)
//
// Every section size is a multiple of 8 bytes (the header is 16, mask
// words are 8, Vec<D> is 16 or 24), so in-buffer offsets stay 8-aligned
// and the mask/value sections can be read through typed pointers straight
// out of the (max-aligned) receive buffer.  A coalesced message is simply
// a sequence of frames in ascending destination-block order — the order
// both endpoints derive independently from the symmetric neighbour
// relations, so no offset table is needed beyond the per-frame headers.

inline constexpr std::uint16_t kHaloFrameEager = 0;
inline constexpr std::uint16_t kHaloFrameDelta = 1;

struct HaloFrameHeader {
  std::int32_t block;     // destination block (global index)
  std::uint16_t mode;     // kHaloFrameEager or kHaloFrameDelta
  std::uint16_t reserved; // zero
  std::uint32_t count;    // template entry count (the receiver's recv_count)
  std::uint32_t changed;  // values carried (== count for eager frames)
};
static_assert(sizeof(HaloFrameHeader) == 16);

// Mask words needed for `count` template entries.
inline constexpr std::size_t halo_mask_words(std::size_t count) {
  return (count + 63) / 64;
}

// Worst-case frame bytes for a side of `count` entries (all changed, mask
// included) — what the persistent channel buffers are pre-sized to.
template <int D>
constexpr std::size_t halo_frame_capacity(std::size_t count) {
  return sizeof(HaloFrameHeader) +
         halo_mask_words(count) * sizeof(std::uint64_t) +
         count * sizeof(Vec<D>);
}

// Coalesced frame streams get one tag per (dim, direction) in their own
// negative tag space below the collective tags (mp/comm.hpp); the per-
// (src, tag) FIFO channels of the mailbox then keep successive epochs
// ordered exactly as the per-side tags do.
inline constexpr int kTagHaloFrameBase = -16;
inline int halo_frame_tag(int dim, int side) {
  return kTagHaloFrameBase - (dim * 2 + side);
}

// Bounds-validated view of one frame at `offset` in a received buffer.
template <int D>
struct HaloFrameView {
  HaloFrameHeader hdr{};
  std::span<const std::uint64_t> mask;  // empty for eager frames
  std::span<const Vec<D>> values;       // changed (delta) or count (eager)
  std::size_t end = 0;                  // offset just past this frame
};

template <int D>
HaloFrameView<D> halo_parse_frame(std::span<const std::byte> buf,
                                  std::size_t offset) {
  HaloFrameView<D> f;
  if (offset + sizeof(HaloFrameHeader) > buf.size()) {
    throw std::logic_error("halo frame: truncated header");
  }
  std::memcpy(&f.hdr, buf.data() + offset, sizeof(HaloFrameHeader));
  offset += sizeof(HaloFrameHeader);
  if (f.hdr.mode != kHaloFrameEager && f.hdr.mode != kHaloFrameDelta) {
    throw std::logic_error("halo frame: unknown mode");
  }
  if (f.hdr.changed > f.hdr.count) {
    throw std::logic_error("halo frame: changed count exceeds entry count");
  }
  const bool delta = f.hdr.mode == kHaloFrameDelta;
  const std::size_t mask_words = delta ? halo_mask_words(f.hdr.count) : 0;
  const std::size_t nvalues = delta ? f.hdr.changed : f.hdr.count;
  const std::size_t body =
      mask_words * sizeof(std::uint64_t) + nvalues * sizeof(Vec<D>);
  if (offset + body > buf.size()) {
    throw std::logic_error("halo frame: truncated body");
  }
  f.mask = {reinterpret_cast<const std::uint64_t*>(buf.data() + offset),
            mask_words};
  f.values = {reinterpret_cast<const Vec<D>*>(
                  buf.data() + offset + mask_words * sizeof(std::uint64_t)),
              nvalues};
  f.end = offset + body;
  return f;
}

// Patch `dest` (the side's halo region, hdr.count entries) from a parsed
// frame: eager frames overwrite everything, delta frames only the
// mask-set entries — the rest of the region already holds the previous
// copies bit-exactly.  Returns the number of entries written.
template <int D>
std::size_t halo_apply_frame(const HaloFrameView<D>& f,
                             std::span<Vec<D>> dest) {
  if (f.hdr.mode == kHaloFrameEager) {
    if (f.values.size() > dest.size()) {
      throw std::logic_error("halo frame: entry count exceeds region size");
    }
    std::copy(f.values.begin(), f.values.end(), dest.begin());
    return f.values.size();
  }
  // Validate before every access: a malformed mask must throw, not read
  // past the changed-value list or write past the region.
  std::size_t j = 0;
  for (std::size_t w = 0; w < f.mask.size(); ++w) {
    std::uint64_t bits = f.mask[w];
    while (bits != 0) {
      const std::size_t k = w * 64 +
          static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (j >= f.values.size()) {
        throw std::logic_error("halo frame: mask popcount != changed count");
      }
      if (k >= dest.size()) {
        throw std::logic_error("halo frame: mask bit beyond region size");
      }
      dest[k] = f.values[j++];
    }
  }
  if (j != f.hdr.changed) {
    throw std::logic_error("halo frame: mask popcount != changed count");
  }
  return j;
}

template <int D>
class HaloExchanger {
 public:
  // Aliases `layout` (which must outlive the exchanger): the adaptive
  // rebalancer edits the driver's assignment table in place, and the
  // neighbour-rank lookups below must see the updated table when the
  // templates are next rebuilt.
  HaloExchanger(const DecompLayout<D>& layout, const Boundary<D>& bc,
                double rc)
      : layout_(&layout), bc_(bc), rc_(rc) {}

  // Switch same-node cross-rank edges to the zero-copy window path.  Must
  // be called before build_templates; the node map decides, per edge,
  // whether the neighbour rank shares this rank's memory.  Off by default
  // so the exchanger is a pure wire engine unless a driver opts in.
  void enable_shared_windows(const mp::NodeMap& nodes) {
    node_map_ = nodes;
    shared_ = true;
  }
  bool shared_windows() const { return shared_; }

  // Select the frame modes (see file comment): `delta` ships bitmask
  // frames of changed positions, `coalesce` merges wire sides sharing a
  // (neighbour rank, dim, direction) into one message.  With both off each
  // wire side is one eager frame.  Must be called before build_templates
  // and identically on every rank.
  void set_frame_modes(bool delta, bool coalesce) {
    delta_ = delta;
    coalesce_ = coalesce;
  }
  bool delta_frames() const { return delta_; }
  bool coalesced_frames() const { return coalesce_; }

  // Rebuild every block's halo templates and perform the initial exchange,
  // appending halo copies to each store.  Call after migration (and after
  // any particle reordering) while each store holds core particles only.
  void build_templates(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                       Counters& counters) {
    index_blocks(blocks);
    for (auto& b : blocks) {
      if (b.store.size() != b.ncore) {
        throw std::logic_error("build_templates: stale halo particles");
      }
    }
    for (int d = 0; d < D; ++d) {
      // Phase A: choose what to send based on pre-dim-d state.
      local_payloads_.clear();
      for (std::size_t k = 0; k < blocks.size(); ++k) {
        auto& b = blocks[k];
        for (int s = 0; s < 2; ++s) {
          auto& side = b.halo[d][s];
          configure_side(b, d, s, side);
          if (side.nb_block < 0) continue;
          side.send.clear();
          const auto pos = b.store.cpositions();
          for (std::size_t idx = 0; idx < pos.size(); ++idx) {
            const double x = pos[idx][d];
            const bool near = s == 0 ? x < b.lo[d] + rc_ : x >= b.hi[d] - rc_;
            if (near) side.send.add(static_cast<std::int32_t>(idx));
          }
          dispatch(comm, counters, b, d, s, side);
        }
      }
      // Phase B: deliver, appending halo copies.
      for (auto& b : blocks) {
        for (int s = 0; s < 2; ++s) {
          auto& side = b.halo[d][s];
          if (side.nb_block < 0) {
            side.recv_offset = b.store.size();
            side.recv_count = 0;
            continue;
          }
          const std::vector<Vec<D>> payload = collect(comm, b, d, s, side);
          side.recv_offset = b.store.size();
          side.recv_count = payload.size();
          for (const auto& x : payload) b.store.push_back(x, Vec<D>{}, -1);
        }
      }
    }
    // Descriptors capture raw position/index pointers, so they can only be
    // published once every dimension's appends are done — push_back above
    // and send.add in phase A both reallocate.
    publish_windows(blocks, comm, counters);
    build_frame_plan(blocks, comm);
  }

  // Refresh halo positions using the templates built at the last rebuild.
  void swap_positions(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                      Counters& counters) {
    begin_swap(blocks, comm, counters);
    finish_swap(blocks, comm, counters);
  }

  // Phase 1 of the swap: pack and post dimension 0's sends and receives.
  // Remote receives are posted into each channel's persistent buffer;
  // same-rank payloads are delivered immediately.  Between begin_swap and
  // finish_swap the caller may compute anything that reads only core
  // particles (indices < ncore).
  void begin_swap(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                  Counters& counters) {
    if (in_flight_) throw std::logic_error("begin_swap: swap already in flight");
    index_blocks(blocks);
    ++swap_epoch_;
    post_dim(blocks, comm, counters, 0);
    in_flight_ = true;
  }

  // Phase 2: drain dimension 0's receives (the exposed wait, if any), then
  // sweep the remaining dimensions, which forward dimension-0 data into
  // the corner regions and so cannot begin until it has arrived.
  // The caller may mutate positions freely afterwards: same-node readers
  // copy from the windows' staged slices, never from the live arrays.
  void finish_swap(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                   Counters& counters) {
    if (!in_flight_) throw std::logic_error("finish_swap: no swap in flight");
    in_flight_ = false;
    complete_dim(blocks, comm, counters, 0);
    for (int d = 1; d < D; ++d) {
      post_dim(blocks, comm, counters, d);
      complete_dim(blocks, comm, counters, d);
    }
  }

 private:
  // One wire stream: every (block, side) this rank exchanges with `peer`
  // in one (dim, direction), in ascending destination-block order, over a
  // persistent buffer pre-sized for the all-changed worst case.  With
  // coalescing off each channel holds exactly one side and keeps the
  // per-side halo tag.
  struct FrameChannel {
    int peer = -1;
    int tag = 0;
    std::vector<std::pair<std::size_t, int>> sides;  // (block slot, side)
    std::size_t capacity = 0;
    std::vector<std::byte> buf;
  };

  void index_blocks(const std::vector<BlockDomain<D>>& blocks) {
    local_of_.clear();
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      local_of_[blocks[k].index] = k;
    }
  }

  static std::string side_context(const char* what, int rank, int block,
                                  int d, int s) {
    std::ostringstream os;
    os << "halo swap: " << what << " (rank " << rank << ", block " << block
       << ", dim " << d << ", side " << (s == 0 ? "minus" : "plus") << ")";
    return os.str();
  }

  void configure_side(const BlockDomain<D>& b, int d, int s,
                      typename BlockDomain<D>::HaloSide& side) const {
    side.pub = nullptr;  // publish_windows re-resolves at the end of the build
    side.sub = nullptr;
    side.nb_block = layout_->neighbor_block(b.coords, d, s, bc_.periodic());
    if (side.nb_block < 0) {
      side.nb_rank = -1;
      side.shift = 0.0;
      return;
    }
    side.nb_rank = layout_->owner_of_index(side.nb_block);
    // Crossing the global periodic boundary shifts the copies by a box
    // length so block-local geometry never needs minimum-image arithmetic.
    side.shift = 0.0;
    if (s == 0 && b.coords[d] == 0) {
      side.shift = bc_.box()[d];
    } else if (s == 1 && b.coords[d] == layout_->block_dims()[d] - 1) {
      side.shift = -bc_.box()[d];
    }
  }

  // Gather side.send into pack_scratch_, unshifted; the shift (if any) is
  // applied separately so the delta shadow can hold the unshifted bits.
  void pack_side(const BlockDomain<D>& b,
                 const typename BlockDomain<D>::HaloSide& side) {
    pack_scratch_.resize(side.send.count());
    side.send.pack(b.store.cpositions(), std::span<Vec<D>>(pack_scratch_));
  }

  static void shift_values(int d, double shift, std::span<Vec<D>> vals) {
    if (shift == 0.0) return;
    for (auto& x : vals) x[d] += shift;
  }

  // Post one dimension's exchange: window slices staged and published
  // first (same-node readers can start copying while we pack the wire
  // sides), then receives into the persistent channel buffers, then pack
  // and send every wire channel.  Same-rank payloads are copied across
  // immediately — their destination regions belong to this dimension,
  // which no dimension-d send template can index; the same invariant is
  // what makes the early stage safe, since it only reads pre-dim-d data.
  void post_dim(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                Counters& counters, int d) {
    reqs_.clear();
    if (shared_) {
      for (auto& b : blocks) {
        for (int s = 0; s < 2; ++s) {
          auto& side = b.halo[d][s];
          if (side.pub != nullptr) {
            stage_window(b, side, counters);
            side.pub->advance(side.pub->gen, swap_epoch_);
          }
        }
      }
    }
    for (auto& ch : recv_plan_[static_cast<std::size_t>(d)]) {
      ch.buf.resize(ch.capacity);
      reqs_.push_back(
          comm.irecv_bytes(ch.peer, ch.tag, std::span<std::byte>(ch.buf)));
    }
    for (auto& b : blocks) {
      for (int s = 0; s < 2; ++s) {
        auto& side = b.halo[d][s];
        if (side.nb_block < 0 || side.nb_rank != comm.rank()) continue;
        pack_side(b, side);
        shift_values(d, side.shift, pack_scratch_);
        ++counters.msgs_local;
        counters.bytes_local += pack_scratch_.size() * sizeof(Vec<D>);
        auto& nb = blocks[local_of_.at(side.nb_block)];
        const auto& dest = nb.halo[d][1 - s];
        if (pack_scratch_.size() != dest.recv_count) {
          std::ostringstream os;
          os << side_context("halo count changed", comm.rank(), b.index, d, s)
             << ": local copy of " << pack_scratch_.size()
             << " positions into a region of " << dest.recv_count;
          throw std::logic_error(os.str());
        }
        auto pos = nb.store.positions();
        std::copy(pack_scratch_.begin(), pack_scratch_.end(),
                  pos.begin() + static_cast<std::ptrdiff_t>(dest.recv_offset));
      }
    }
    for (auto& ch : send_plan_[static_cast<std::size_t>(d)]) {
      ch.buf.clear();
      for (const auto& [k, s] : ch.sides) {
        append_frame(blocks[k], d, blocks[k].halo[d][s], ch.buf, counters);
      }
      comm.isend_bytes(ch.peer, ch.tag, std::span<const std::byte>(ch.buf));
      ++counters.halo_msgs_wire;
      counters.halo_bytes_wire += ch.buf.size();
      counters.msgs_coalesced += ch.sides.size() - 1;
    }
  }

  // Complete the posted dimension: gather the shared-window sides (their
  // owners published this dimension's generation at the top of their
  // post_dim, so the spin is short), then wait on every wire receive
  // (tallying overlapped vs exposed bytes inside the communicator), then
  // parse and apply each channel's frames in destination-block order.
  void complete_dim(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                    Counters& counters, int d) {
    if (shared_) {
      bool any = false;
      for (const auto& b : blocks) {
        for (int s = 0; s < 2 && !any; ++s) {
          any = b.halo[d][s].sub != nullptr;
        }
        if (any) break;
      }
      if (any) {
        trace::Scope scope(trace::Phase::kHaloShared, comm.rank());
        for (auto& b : blocks) {
          for (int s = 0; s < 2; ++s) {
            auto& side = b.halo[d][s];
            if (side.sub != nullptr) {
              gather_window(b, side, counters, comm, d, s);
            }
          }
        }
      }
    }
    comm.wait_all(reqs_);
    // reqs_ was posted in recv_plan_ order.
    auto& recvs = recv_plan_[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      unpack_channel(blocks, comm, counters, d, recvs[i], reqs_[i].bytes());
    }
    reqs_.clear();
  }

  // Append one side's frame to a channel buffer.  Delta frames run the
  // fused compare-gather against the side's shadow (mp/indexed.hpp) and
  // carry mask + changed values; eager frames (delta off, or the adaptive
  // fallback) carry the full slice — under delta the compare still runs so
  // the shadow stays current and the change fraction stays measured, which
  // is what lets the fallback decision reverse itself at a later rebuild.
  void append_frame(const BlockDomain<D>& b, int d,
                    typename BlockDomain<D>::HaloSide& side,
                    std::vector<std::byte>& buf, Counters& counters) {
    const std::size_t count = side.send.count();
    const std::size_t words = halo_mask_words(count);
    HaloFrameHeader hdr{};
    hdr.block = side.nb_block;
    hdr.reserved = 0;
    hdr.count = static_cast<std::uint32_t>(count);
    const bool delta_frame = delta_ && !side.eager_frames;
    std::size_t changed = count;
    if (delta_frame) {
      mask_scratch_.assign(words, 0);
      vals_scratch_.clear();
      changed = side.send.pack_delta(b.store.cpositions(),
                                     std::span<Vec<D>>(side.shadow),
                                     std::span<std::uint64_t>(mask_scratch_),
                                     vals_scratch_);
      shift_values(d, side.shift, vals_scratch_);
      hdr.mode = kHaloFrameDelta;
      hdr.changed = static_cast<std::uint32_t>(changed);
    } else {
      pack_side(b, side);
      if (delta_) {
        changed = 0;
        for (std::size_t k = 0; k < count; ++k) {
          if (std::memcmp(&pack_scratch_[k], &side.shadow[k],
                          sizeof(Vec<D>)) != 0) {
            side.shadow[k] = pack_scratch_[k];
            ++changed;
          }
        }
      }
      shift_values(d, side.shift, pack_scratch_);
      hdr.mode = kHaloFrameEager;
      hdr.changed = hdr.count;
    }
    if (delta_) {
      counters.halo_bytes_eager += count * sizeof(Vec<D>);
      counters.halo_bytes_delta +=
          (delta_frame ? changed : count) * sizeof(Vec<D>);
      side.delta_entries += count;
      side.delta_changed += changed;
      // The would-be mask cost accrues in both modes so the fallback rule
      // compares like against like whichever mode the interval ran in.
      side.delta_mask_bytes += words * sizeof(std::uint64_t);
    }
    counters.halo_frame_overhead +=
        sizeof(HaloFrameHeader) +
        (delta_frame ? words * sizeof(std::uint64_t) : 0);
    append_bytes(buf, &hdr, sizeof(hdr));
    if (delta_frame) {
      append_bytes(buf, mask_scratch_.data(), words * sizeof(std::uint64_t));
      append_bytes(buf, vals_scratch_.data(), changed * sizeof(Vec<D>));
    } else {
      append_bytes(buf, pack_scratch_.data(), count * sizeof(Vec<D>));
    }
  }

  // Walk one received channel buffer frame by frame, validating each
  // header against the expected (block, count) and patching the side's
  // halo region in place.
  void unpack_channel(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                      Counters& counters, int d, FrameChannel& ch,
                      std::size_t nbytes) {
    const std::span<const std::byte> data(ch.buf.data(), nbytes);
    std::size_t offset = 0;
    for (const auto& [k, s] : ch.sides) {
      auto& b = blocks[k];
      auto& side = b.halo[d][s];
      HaloFrameView<D> f;
      try {
        f = halo_parse_frame<D>(data, offset);
      } catch (const std::logic_error& e) {
        std::ostringstream os;
        os << side_context("frame header mismatch", comm.rank(), b.index, d,
                           s)
           << ": " << e.what() << " (from rank " << ch.peer << ", "
           << nbytes << " bytes)";
        throw std::logic_error(os.str());
      }
      if (f.hdr.block != b.index ||
          f.hdr.count != static_cast<std::uint32_t>(side.recv_count)) {
        std::ostringstream os;
        os << side_context("frame header mismatch", comm.rank(), b.index, d,
                           s)
           << ": expected block " << b.index << " x " << side.recv_count
           << " entries, got block " << f.hdr.block << " x " << f.hdr.count
           << " (from rank " << ch.peer << ")";
        throw std::logic_error(os.str());
      }
      auto dest =
          b.store.positions().subspan(side.recv_offset, side.recv_count);
      const std::size_t applied = halo_apply_frame<D>(f, dest);
      counters.bytes_delta_saved +=
          (side.recv_count - applied) * sizeof(Vec<D>);
      offset = f.end;
    }
    if (offset != nbytes) {
      std::ostringstream os;
      os << "halo swap: frame stream length mismatch (rank " << comm.rank()
         << ", from rank " << ch.peer << ", dim " << d << "): parsed "
         << offset << " of " << nbytes << " bytes";
      throw std::logic_error(os.str());
    }
  }

  // Stage one published side: gather the send template's positions into
  // the window's buffer, unshifted.  The buffer for the previous epoch
  // may be overwritten only once its reader acknowledged it — one full
  // step of slack, so the wait is satisfied in steady state and ranks
  // stay as decoupled as the wire path's buffered sends keep them.
  // Under delta the staged slice from the previous epoch *is* the shadow
  // (readers copied it bit-exactly), so the stage compares in place and
  // rewrites only what moved, publishing the change mask alongside.
  void stage_window(const BlockDomain<D>& b,
                    typename BlockDomain<D>::HaloSide& side,
                    Counters& counters) {
    mp::HaloWindow* w = side.pub;
    w->wait_ge(w->ack, swap_epoch_ - 1);
    auto* dst = reinterpret_cast<Vec<D>*>(w->stage.data());
    const std::size_t count = side.send.count();
    if (!delta_) {
      side.send.pack(b.store.cpositions(), std::span<Vec<D>>(dst, count));
      return;
    }
    if (w->fresh) {
      // First epoch after (re)publication: the buffer holds no valid
      // shadow yet, so stage the full slice eagerly.
      side.send.pack(b.store.cpositions(), std::span<Vec<D>>(dst, count));
      w->changed = count;
      w->masked = false;
      w->fresh = false;
      counters.halo_bytes_eager += count * sizeof(Vec<D>);
      counters.halo_bytes_delta += count * sizeof(Vec<D>);
      return;
    }
    std::fill(w->mask.begin(), w->mask.end(), 0);
    const auto pos = b.store.cpositions();
    const auto idx = side.send.indices();
    std::size_t changed = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const Vec<D>& v = pos[static_cast<std::size_t>(idx[k])];
      if (std::memcmp(&v, &dst[k], sizeof(Vec<D>)) != 0) {
        dst[k] = v;
        w->mask[k >> 6] |= std::uint64_t{1} << (k & 63);
        ++changed;
      }
    }
    w->changed = changed;
    w->masked = !side.eager_frames;
    side.delta_entries += count;
    side.delta_changed += changed;
    side.delta_mask_bytes += halo_mask_words(count) * sizeof(std::uint64_t);
    counters.halo_bytes_eager += count * sizeof(Vec<D>);
    counters.halo_bytes_delta +=
        (w->masked ? changed : count) * sizeof(Vec<D>);
  }

  // Read one shared-window side: wait for the owner's generation fence,
  // copy the staged slice into this block's halo region (shift applied
  // at read time — the identical one-component add the owner would have
  // applied at pack time), then acknowledge so the owner may restage
  // the buffer next epoch.  A masked epoch copies only the mask-set
  // entries: the unchanged staged bits equal the bits behind this halo
  // region's previous copies, and the same shift added to the same bits
  // gives the same bits, so the untouched entries are already exact.
  void gather_window(BlockDomain<D>& b,
                     typename BlockDomain<D>::HaloSide& side,
                     Counters& counters, mp::Comm& comm, int d, int s) {
    mp::HaloWindow* w = side.sub;
    w->wait_ge(w->gen, swap_epoch_);
    if (w->count != side.recv_count) {
      std::ostringstream os;
      os << side_context("halo count changed", comm.rank(), b.index, d, s)
         << ": window stages " << w->count << " positions, region holds "
         << side.recv_count;
      throw std::logic_error(os.str());
    }
    const auto* src = reinterpret_cast<const Vec<D>*>(w->stage.data());
    auto dest = b.store.positions().subspan(side.recv_offset,
                                            side.recv_count);
    const double shift = w->shift;
    const int sd = w->dim;
    if (w->masked) {
      for (std::size_t wi = 0; wi < w->mask.size(); ++wi) {
        std::uint64_t bits = w->mask[wi];
        while (bits != 0) {
          const std::size_t k = wi * 64 +
              static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          Vec<D> x = src[k];
          if (shift != 0.0) x[sd] += shift;
          dest[k] = x;
        }
      }
      counters.bytes_shared += w->changed * sizeof(Vec<D>);
      counters.bytes_delta_saved +=
          (side.recv_count - w->changed) * sizeof(Vec<D>);
    } else if (shift != 0.0) {
      for (std::size_t i = 0; i < side.recv_count; ++i) {
        Vec<D> x = src[i];
        x[sd] += shift;
        dest[i] = x;
      }
      counters.bytes_shared += side.recv_count * sizeof(Vec<D>);
    } else {
      for (std::size_t i = 0; i < side.recv_count; ++i) {
        dest[i] = src[i];
      }
      counters.bytes_shared += side.recv_count * sizeof(Vec<D>);
    }
    w->advance(w->ack, swap_epoch_);
    ++counters.msgs_shared;
  }

  // Resolve and fill the window descriptors for every same-node cross-rank
  // edge.  Runs once per rebuild, after all templates and halo appends are
  // final.  Before any descriptor or staging buffer is rewritten, every
  // window this rank published last time must be acknowledged through the
  // last epoch — readers of the old slices are then quiescent, so the
  // rewrites (and the ack bump that arms a fresh window's one-epoch
  // slack) race with nothing.
  void publish_windows(std::vector<BlockDomain<D>>& blocks, mp::Comm& comm,
                       Counters& counters) {
    if (!shared_) return;
    registry_ = &comm.windows();
    for (auto* w : published_) w->wait_ge(w->ack, swap_epoch_);
    published_.clear();
    for (auto& b : blocks) {
      for (int d = 0; d < D; ++d) {
        for (int s = 0; s < 2; ++s) {
          auto& side = b.halo[d][s];
          if (side.nb_block < 0 || side.nb_rank == comm.rank() ||
              !node_map_.same_node(side.nb_rank, comm.rank())) {
            continue;
          }
          const int dest_side = 1 - s;
          auto& w = comm.windows().window(
              comm.rank(), halo_tag(side.nb_block, d, dest_side));
          w.stage.resize(side.send.count() * sizeof(Vec<D>));
          w.count = side.send.count();
          w.shift = side.shift;
          w.dim = d;
          // Republication invalidates the staged shadow: the first epoch
          // through a fresh window stages (and its reader copies) the
          // full slice.
          w.mask.assign(halo_mask_words(side.send.count()), 0);
          w.changed = 0;
          w.masked = false;
          w.fresh = true;
          w.ack.store(swap_epoch_, std::memory_order_release);
          side.pub = &w;
          published_.push_back(&w);
          side.sub = &comm.windows().window(side.nb_rank,
                                            halo_tag(b.index, d, s));
          ++counters.window_republishes;
        }
      }
    }
  }

  // Group this rank's wire sides into frame channels, one per
  // (neighbour rank, direction) per dimension when coalescing, one per
  // side otherwise.  Both endpoints sort by destination block, and block
  // adjacency is symmetric with a replicated owner table, so sender and
  // receiver derive the identical frame order independently.  Buffers are
  // pre-sized to the all-changed worst case and reused every step.
  void build_frame_plan(const std::vector<BlockDomain<D>>& blocks,
                        const mp::Comm& comm) {
    for (int d = 0; d < D; ++d) {
      auto& sends = send_plan_[static_cast<std::size_t>(d)];
      auto& recvs = recv_plan_[static_cast<std::size_t>(d)];
      sends.clear();
      recvs.clear();
      // (peer, direction, dest block, block slot, side)
      std::vector<std::array<std::size_t, 5>> out, in;
      for (std::size_t k = 0; k < blocks.size(); ++k) {
        for (int s = 0; s < 2; ++s) {
          const auto& side = blocks[k].halo[d][s];
          if (side.nb_block < 0 || side.nb_rank == comm.rank()) continue;
          if (side.pub == nullptr) {
            out.push_back({static_cast<std::size_t>(side.nb_rank),
                           static_cast<std::size_t>(1 - s),
                           static_cast<std::size_t>(side.nb_block), k,
                           static_cast<std::size_t>(s)});
          }
          if (side.sub == nullptr) {
            in.push_back({static_cast<std::size_t>(side.nb_rank),
                          static_cast<std::size_t>(s),
                          static_cast<std::size_t>(blocks[k].index), k,
                          static_cast<std::size_t>(s)});
          }
        }
      }
      std::sort(out.begin(), out.end());
      std::sort(in.begin(), in.end());
      const auto group = [&](std::vector<std::array<std::size_t, 5>>& edges,
                             std::vector<FrameChannel>& plan, bool sending) {
        for (std::size_t i = 0; i < edges.size();) {
          FrameChannel ch;
          ch.peer = static_cast<int>(edges[i][0]);
          const int dir = static_cast<int>(edges[i][1]);
          std::size_t j = i;
          for (; j < edges.size(); ++j) {
            if (coalesce_) {
              if (edges[j][0] != edges[i][0] || edges[j][1] != edges[i][1]) {
                break;
              }
            } else if (j > i) {
              break;
            }
            const std::size_t k = edges[j][3];
            const int s = static_cast<int>(edges[j][4]);
            const auto& side = blocks[k].halo[d][s];
            ch.sides.emplace_back(k, s);
            ch.capacity += halo_frame_capacity<D>(
                sending ? side.send.count() : side.recv_count);
          }
          ch.tag = coalesce_
                       ? halo_frame_tag(d, dir)
                       : halo_tag(static_cast<int>(edges[i][2]), d, dir);
          ch.buf.reserve(ch.capacity);
          plan.push_back(std::move(ch));
          i = j;
        }
      };
      group(out, sends, true);
      group(in, recvs, false);
    }
  }

  // Pack side.send (applying the shift) and hand the payload to the
  // destination: an mp message for remote blocks, an in-memory stash for
  // blocks of the same rank.  Build-time path — halo storage does not
  // exist yet, so payloads buffer until phase B appends them.  This is
  // also where each wire side's delta state turns over: the shadow is
  // reseeded from the freshly built template (so the very first swap
  // after a rebuild already compresses), and the adaptive mode for the
  // coming interval is decided from the change fraction measured over the
  // last one — rebuilds are global collective events, so both endpoints
  // decide identically and flip together.
  void dispatch(mp::Comm& comm, Counters& counters, const BlockDomain<D>& b,
                int d, int s, typename BlockDomain<D>::HaloSide& side) {
    pack_side(b, side);
    if (delta_ && side.nb_rank != comm.rank()) {
      // Masks pay while the value bytes they save exceed the mask bytes
      // they add (both sides of the inequality measured over the same
      // swaps, whichever mode they ran in).
      side.eager_frames =
          side.delta_entries > 0 &&
          (side.delta_entries - side.delta_changed) * sizeof(Vec<D>) <=
              side.delta_mask_bytes;
      side.delta_entries = 0;
      side.delta_changed = 0;
      side.delta_mask_bytes = 0;
      side.shadow.assign(pack_scratch_.begin(), pack_scratch_.end());
    }
    shift_values(d, side.shift, pack_scratch_);
    const int dest_side = 1 - s;
    if (side.nb_rank == comm.rank()) {
      ++counters.msgs_local;
      counters.bytes_local += pack_scratch_.size() * sizeof(Vec<D>);
      local_payloads_[key(side.nb_block, d, dest_side)] =
          std::move(pack_scratch_);  // pack_side resizes before each reuse
    } else {
      comm.send(side.nb_rank, halo_tag(side.nb_block, d, dest_side),
                std::span<const Vec<D>>(pack_scratch_));
    }
  }

  // Counterpart of dispatch: the payload arriving at block b's (d, s) face.
  std::vector<Vec<D>> collect(mp::Comm& comm, const BlockDomain<D>& b, int d,
                              int s,
                              const typename BlockDomain<D>::HaloSide& side) {
    if (side.nb_rank == comm.rank()) {
      auto it = local_payloads_.find(key(b.index, d, s));
      if (it == local_payloads_.end()) {
        throw std::logic_error("collect: missing local halo payload");
      }
      std::vector<Vec<D>> payload = std::move(it->second);
      local_payloads_.erase(it);
      return payload;
    }
    return comm.template recv<Vec<D>>(side.nb_rank, halo_tag(b.index, d, s));
  }

  static void append_bytes(std::vector<std::byte>& buf, const void* p,
                           std::size_t n) {
    const auto* bytes = static_cast<const std::byte*>(p);
    buf.insert(buf.end(), bytes, bytes + n);
  }

  static std::uint64_t key(int block, int d, int s) {
    return (static_cast<std::uint64_t>(block) * 8 + static_cast<unsigned>(d)) *
               2 +
           static_cast<unsigned>(s);
  }

  const DecompLayout<D>* layout_;
  Boundary<D> bc_;
  double rc_;
  // Shared-window state: epochs advance once per begin_swap on every rank
  // in lockstep (swap counts are collective decisions), so a reader's
  // swap_epoch_ equals the owner's when it gathers.
  bool shared_ = false;
  mp::NodeMap node_map_;
  mp::WindowRegistry* registry_ = nullptr;  // resolved at publish_windows
  std::vector<mp::HaloWindow*> published_;  // our windows, for rebuild fences
  std::uint64_t swap_epoch_ = 0;
  // Frame modes and wire channels (rebuilt with the templates).
  bool delta_ = false;
  bool coalesce_ = false;
  std::array<std::vector<FrameChannel>, static_cast<std::size_t>(D)>
      send_plan_;
  std::array<std::vector<FrameChannel>, static_cast<std::size_t>(D)>
      recv_plan_;
  std::unordered_map<int, std::size_t> local_of_;
  std::unordered_map<std::uint64_t, std::vector<Vec<D>>> local_payloads_;
  // Swap-phase state, reused across iterations (no per-message allocation
  // on the hot path).
  std::vector<Vec<D>> pack_scratch_;
  std::vector<Vec<D>> vals_scratch_;
  std::vector<std::uint64_t> mask_scratch_;
  std::vector<mp::Request> reqs_;
  bool in_flight_ = false;
};

}  // namespace hdem

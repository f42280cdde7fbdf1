// Pairwise link list — the fundamental object of the algorithm.
//
// "The fundamental object in the code is a single list of links and the
// major time-consuming loop is over this list rather than over the
// particles themselves."  Links connect particles closer than the cutoff
// rc; the list stays valid until some particle has drifted too far.
//
// In the decomposed drivers each block keeps core links first and
// core-halo links after them (halo-halo pairs are dropped; both owners see
// the pair as core-halo).  For a core-halo link the core particle is
// always stored first so the force pass can update only that end.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cell_grid.hpp"
#include "core/counters.hpp"
#include "core/pair_disp.hpp"
#include "util/vec.hpp"

namespace hdem {

struct Link {
  std::int32_t i;  // first particle (always core in decomposed blocks)
  std::int32_t j;  // second particle (may be a halo copy)
};

// Conflict-free partition of a link list for the colored force reduction.
//
// The grid's axis-0 slabs are grouped into `nchunks` contiguous chunks
// (each at least one slab wide); every link is assigned to the chunk of
// its lower slab, so the particles a chunk's links touch lie inside the
// chunk or in the first slab of the next chunk (half-stencil geometry —
// see CellGrid::slab_count).  Chunks of equal parity therefore touch
// pairwise-disjoint particle sets: any number of threads may process
// same-parity chunks concurrently with plain unprotected updates, with one
// barrier between the even ("color 0") and odd ("color 1") phases.
//
// With axis 0 periodic the chunk count is forced even so the parity
// alternation stays consistent around the ring (the last chunk's links
// wrap into the first chunk's leading slab).
//
// The link sections are stored in the pair-swapped chunk order 0, 2, 1,
// 4, 3, ... (cell order within each chunk): for every chunk pair sharing
// particles the even chunk's links come first, so a serial in-order
// traversal accumulates every particle's contributions in exactly the
// order the colored pass does — that is what makes the colored
// trajectories bit-identical to the serial driver's — while the layout
// stays near-ascending and cache-friendly for the block strategies.
struct ColorPlan {
  int nchunks = 0;  // 0 = no plan built
  int ncolors = 0;  // 1 (degenerate single chunk) or 2
  // Per chunk: absolute index ranges into LinkList::links.
  std::vector<std::size_t> core_lo, core_hi;
  std::vector<std::size_t> halo_lo, halo_hi;

  bool active() const { return nchunks > 0; }
  int color_of(int chunk) const { return ncolors < 2 ? 0 : chunk & 1; }
  void clear() {
    nchunks = 0;
    ncolors = 0;
    core_lo.clear();
    core_hi.clear();
    halo_lo.clear();
    halo_hi.clear();
  }
};

// The chunk geometry shared by build_color_plan and the fused link build:
// how slabs group into chunks, and the pair-swapped storage order.
struct ChunkMap {
  int nslabs = 0;
  int nchunks = 0;
  bool wrapped = false;

  template <int D>
  static ChunkMap of(const CellGrid<D>& grid) {
    ChunkMap m;
    m.nslabs = grid.slab_count();
    m.wrapped = grid.wrapped(0);
    // With axis 0 periodic the chunk count is forced even so the parity
    // alternation stays consistent around the ring.
    m.nchunks = m.wrapped ? m.nslabs - (m.nslabs & 1) : m.nslabs;
    if (m.nchunks < 1) m.nchunks = 1;
    return m;
  }

  int ncolors() const { return nchunks >= 2 ? 2 : 1; }

  // Chunk c covers slabs [c * nslabs / nchunks, (c+1) * nslabs / nchunks),
  // each at least one slab wide since nchunks <= nslabs.
  int chunk_of_slab(int s) const {
    return static_cast<int>(
        (static_cast<std::int64_t>(s + 1) * nchunks - 1) / nslabs);
  }
  int slab_lo(int c) const { return c * nslabs / nchunks; }
  int slab_hi(int c) const { return (c + 1) * nslabs / nchunks; }

  // Storage rank: the pair-swapped sequence 0, 2, 1, 4, 3, 6, 5, ...
  // Every pair of chunks that shares particles — {c-1, c}, and {nchunks-1,
  // 0} across the periodic seam — stores the even chunk's links before the
  // odd chunk's, so a serial in-order traversal accumulates each
  // particle's contributions in exactly the colored pass's
  // even-phase-then-odd-phase order (bit-identity).  Unlike a fully
  // color-major layout the sequence stays near-ascending, so static link
  // blocks keep their spatial locality and the selected-atomic conflict
  // surface stays a surface.  The permutation is an involution, so it also
  // maps a storage rank back to its chunk.
  int rank_of_chunk(int c) const {
    if ((c & 1) == 0) return c == 0 ? 0 : c - 1;
    return c + 1 < nchunks ? c + 1 : c;
  }
};

struct LinkList {
  std::vector<Link> links;
  std::size_t n_core = 0;  // links[0, n_core) have both ends core
  ColorPlan plan;          // rebuilt with the list (see build_color_plan)

  std::span<const Link> core() const { return {links.data(), n_core}; }
  std::span<const Link> halo() const {
    return {links.data() + n_core, links.size() - n_core};
  }
  std::size_t size() const { return links.size(); }
  void clear() {
    links.clear();
    n_core = 0;
    plan.clear();
  }
};

// Generate links originating from cells [cell_lo, cell_hi).  Particles
// with index < ncore are core; the rest are halo copies.  `disp(xi, xj)`
// yields the displacement for the distance test (minimum-image in serial
// periodic runs, plain subtraction in block runs where halo copies carry
// shifted coordinates).  Core-core links are appended to out_core,
// core-halo links (core end first) to out_halo; halo-halo pairs are
// dropped.  This per-range form is what the threaded driver parallelises
// over cells, exactly as the paper's OpenMP code does.
template <int D, class Disp>
void build_links_range(const CellGrid<D>& grid, std::span<const Vec<D>> pos,
                       std::size_t ncore, double rc, Disp&& disp,
                       std::int32_t cell_lo, std::int32_t cell_hi,
                       std::vector<Link>& out_core,
                       std::vector<Link>& out_halo) {
  const double rc2 = rc * rc;

  auto consider = [&](std::int32_t a, std::int32_t b) {
    const bool a_halo = static_cast<std::size_t>(a) >= ncore;
    const bool b_halo = static_cast<std::size_t>(b) >= ncore;
    if (a_halo && b_halo) return;  // owned (as core-halo) by other blocks
    const Vec<D> d = disp(pos[static_cast<std::size_t>(a)],
                          pos[static_cast<std::size_t>(b)]);
    if (norm2(d) >= rc2) return;
    if (!a_halo && !b_halo) {
      out_core.push_back({a, b});
    } else if (a_halo) {
      out_halo.push_back({b, a});  // core end first
    } else {
      out_halo.push_back({a, b});
    }
  };

  const auto& stencil = CellGrid<D>::half_stencil();
  for (std::int32_t c = cell_lo; c < cell_hi; ++c) {
    const auto in_c = grid.cell_particles(c);
    // Intra-cell pairs: originate from the lower list position, visiting
    // each unordered pair exactly once.
    for (std::size_t a = 0; a < in_c.size(); ++a) {
      for (std::size_t b = a + 1; b < in_c.size(); ++b) {
        consider(in_c[a], in_c[b]);
      }
    }
    // Cross-cell pairs via the half stencil: each unordered cell pair is
    // visited exactly once.
    for (const auto& off : stencil) {
      const std::int32_t nb = grid.neighbor(c, off);
      if (nb < 0) continue;
      const auto in_nb = grid.cell_particles(nb);
      for (const std::int32_t a : in_c) {
        for (const std::int32_t b : in_nb) {
          consider(a, b);
        }
      }
    }
  }
}

// Record the current list's size and locality statistics.  Accumulates
// (callers owning several blocks zero links_core/links_halo once per
// rebuild, then record every block's list).
//
// Only core links feed the gap histogram: a core-halo link's second end
// lives in the compact halo region that the halo swap has just streamed
// through the cache, so its (large) storage-index gap says nothing about
// its reuse distance.
inline void record_link_stats(const LinkList& list, Counters& counters) {
  counters.links_core += list.n_core;
  counters.links_halo += list.size() - list.n_core;
  for (const Link& l : list.core()) {
    counters.record_link_gap(
        static_cast<std::uint64_t>(l.i > l.j ? l.i - l.j : l.j - l.i));
  }
}

// Build the list's ColorPlan: assign every link to its chunk, reorder the
// core and halo sections into the pair-swapped chunk order (a stable
// counting sort, so cell order is preserved within each chunk), and record
// the per-chunk ranges.
// `pos` must be the positions the grid was last binned with — both ends of
// a link are then at most one slab apart (cells are at least rc wide),
// except the pair that spans the periodic seam, which belongs to the last
// chunk (its links wrap into slab 0, the first chunk's leading slab).
template <int D>
void build_color_plan(LinkList& list, const CellGrid<D>& grid,
                      std::span<const Vec<D>> pos) {
  ColorPlan& plan = list.plan;
  plan.clear();
  const ChunkMap cm = ChunkMap::of(grid);
  plan.nchunks = cm.nchunks;
  plan.ncolors = cm.ncolors();
  const auto nsz = static_cast<std::size_t>(cm.nchunks);
  plan.core_lo.assign(nsz, 0);
  plan.core_hi.assign(nsz, 0);
  plan.halo_lo.assign(nsz, 0);
  plan.halo_hi.assign(nsz, 0);

  std::vector<std::int32_t> chunk(list.links.size());
  std::vector<Link> tmp;
  std::vector<std::size_t> start;

  auto reorder_section = [&](std::size_t lo, std::size_t hi,
                             std::vector<std::size_t>& out_lo,
                             std::vector<std::size_t>& out_hi) {
    start.assign(nsz + 1, 0);
    for (std::size_t l = lo; l < hi; ++l) {
      const Link& ln = list.links[l];
      int sp = grid.slab_of_position(pos[static_cast<std::size_t>(ln.i)]);
      int sq = grid.slab_of_position(pos[static_cast<std::size_t>(ln.j)]);
      if (sp > sq) std::swap(sp, sq);
      // sq - sp > 1 can only be the pair straddling the periodic seam
      // ({0, nslabs-1}); it originates from the top slab.
      const int slab = (cm.wrapped && sq - sp > 1) ? sq : sp;
      chunk[l] = static_cast<std::int32_t>(cm.chunk_of_slab(slab));
      ++start[static_cast<std::size_t>(cm.rank_of_chunk(chunk[l])) + 1];
    }
    for (std::size_t r = 0; r < nsz; ++r) start[r + 1] += start[r];
    for (int c = 0; c < cm.nchunks; ++c) {
      const auto r = static_cast<std::size_t>(cm.rank_of_chunk(c));
      out_lo[static_cast<std::size_t>(c)] = lo + start[r];
      out_hi[static_cast<std::size_t>(c)] = lo + start[r + 1];
    }
    tmp.resize(hi - lo);
    for (std::size_t l = lo; l < hi; ++l) {
      const auto r = static_cast<std::size_t>(cm.rank_of_chunk(chunk[l]));
      tmp[start[r]++] = list.links[l];
    }
    std::copy(tmp.begin(), tmp.end(),
              list.links.begin() + static_cast<std::ptrdiff_t>(lo));
  };
  reorder_section(0, list.n_core, plan.core_lo, plan.core_hi);
  reorder_section(list.n_core, list.links.size(), plan.halo_lo, plan.halo_hi);
}

// The two-pass build — build_links_range over every cell, halo links
// spliced on, then build_color_plan — kept as the oracle build_links_fused
// is tested against.
template <int D, class Disp>
void build_links(LinkList& out, const CellGrid<D>& grid,
                 std::span<const Vec<D>> pos, std::size_t ncore, double rc,
                 Disp&& disp, Counters* counters = nullptr) {
  out.clear();
  std::vector<Link> halo;
  build_links_range(grid, pos, ncore, rc, disp, 0, grid.ncells(), out.links,
                    halo);
  out.n_core = out.links.size();
  out.links.insert(out.links.end(), halo.begin(), halo.end());
  build_color_plan(out, grid, pos);
  if (counters != nullptr) record_link_stats(out, *counters);
}

// One team member's staging area for build_links_fused.  Each stage starts
// on a cache line of its own, so one thread's appends (vector headers,
// counts, tallies) never invalidate a line another thread writes.
struct alignas(64) LinkStage {
  // Generated links, chunk-segmented.  Only [0, n_core) and [0, n_halo)
  // are valid: the vectors are sized ahead of the candidate loop, which
  // writes through raw pointers.
  std::vector<Link> core, halo;
  std::size_t n_core = 0, n_halo = 0;
  // Per chunk: links generated, and the segment's destination offset in
  // the final list.
  std::vector<std::size_t> core_count, halo_count, core_dst, halo_dst;
  // The neighbour cell's positions, one row per axis (SoA tile).
  std::vector<double> tile;
  // Locality statistics of this stage's core links (record_link_stats'
  // gap sum and histogram; the count is n_core).
  std::uint64_t gap_sum = 0;
  std::uint64_t gap_hist[Counters::kGapBuckets] = {};
};

// Scratch for build_links_fused, owned by the caller so every buffer keeps
// its capacity across rebuilds (the rebuild hot path stays allocation-free
// at steady state).
struct FusedBuildScratch {
  std::vector<LinkStage> stages;  // one per team member
};

namespace detail {

// Displacement-component policies of the candidate test: component k of a
// pair's displacement is image(xi[k] - xj[k], k).
//
// ShiftImage adds the periodic-image shift fixed once per cell pair (0, or
// minus/plus the box length when the neighbour lookup wrapped).
template <int D>
struct ShiftImage {
  std::array<double, D> shift{};
  double operator()(double t, int k) const {
    return t + shift[static_cast<std::size_t>(k)];
  }
};

// MinImage re-derives the minimum image per candidate with PairDisp's
// scalar rule, for the geometries where the cell adjacency does not pin
// the image (see build_links_fused).
template <int D>
struct MinImage {
  PairDisp<D> disp;
  double operator()(double t, int k) const {
    if (!disp.periodic) return t;
    const double l = disp.box[k];
    const double lo = t < -0.5 * l ? t + l : t;
    return t > 0.5 * l ? t - l : lo;
  }
};

// Room for `extra` more links after the first `used` entries of buf
// (resize grows the capacity geometrically).
inline Link* link_room(std::vector<Link>& buf, std::size_t used,
                       std::size_t extra) {
  if (buf.size() < used + extra) buf.resize(used + extra);
  return buf.data() + used;
}

// Test origin particle a (at xa) against tile entries [b0, b1) and append
// the pairs within range without branching: every candidate is written,
// and the cursor only advances past the linked ones.  `out` must have room
// for b1 - b0 links.  kSwap stores the tile particle first (a halo origin
// against core neighbours: the core end goes first).
template <int D, bool kSwap, class Image>
Link* link_row(std::int32_t a, const Vec<D>& xa, const double* tile,
               std::size_t stride, const std::int32_t* ids, std::size_t b0,
               std::size_t b1, const Image& image, double rc2, Link* out) {
  for (std::size_t b = b0; b < b1; ++b) {
    // The operation order of norm2(disp(xa, xb)), so the test is exact.
    double r2 = 0.0;
    for (int k = 0; k < D; ++k) {
      const double d =
          image(xa[k] - tile[static_cast<std::size_t>(k) * stride + b], k);
      r2 += d * d;
    }
    *out = kSwap ? Link{ids[b], a} : Link{a, ids[b]};
    out += r2 < rc2 ? 1 : 0;
  }
  return out;
}

// Number of core particles (index < ncore) at the front of a cell list.
// Cell lists ascend in particle index, so core particles come first.
inline std::size_t core_prefix(std::span<const std::int32_t> in,
                               std::size_t ncore) {
  if (in.empty() || static_cast<std::size_t>(in.back()) < ncore) {
    return in.size();
  }
  return static_cast<std::size_t>(
      std::lower_bound(in.begin(), in.end(),
                       static_cast<std::int64_t>(ncore)) -
      in.begin());
}

// The links between an origin cell's particles in_a and a neighbour cell's
// in_b (the same cell when `same`), in build_links_range's generation
// order.  The first a_core / b_core entries of each list are core.
template <int D, class Image>
void link_cell_pair(LinkStage& st, std::span<const Vec<D>> pos,
                    std::span<const std::int32_t> in_a, std::size_t a_core,
                    std::span<const std::int32_t> in_b, std::size_t b_core,
                    bool same, const Image& image, double rc2) {
  const std::size_t m = in_b.size();
  if (st.tile.size() < D * m) st.tile.resize(D * m);
  double* tile = st.tile.data();
  for (std::size_t b = 0; b < m; ++b) {
    const Vec<D>& x = pos[static_cast<std::size_t>(in_b[b])];
    for (int k = 0; k < D; ++k) {
      tile[static_cast<std::size_t>(k) * m + b] = x[k];
    }
  }
  const std::size_t a_halo = same ? 0 : in_a.size() - a_core;
  Link* core = link_room(st.core, st.n_core, a_core * b_core);
  Link* halo =
      link_room(st.halo, st.n_halo, a_core * (m - b_core) + a_halo * b_core);
  const std::int32_t* ids = in_b.data();
  for (std::size_t p = 0; p < a_core; ++p) {
    const std::int32_t a = in_a[p];
    const Vec<D>& xa = pos[static_cast<std::size_t>(a)];
    // Intra-cell pairs originate from the lower list position.
    const std::size_t lo = same ? p + 1 : 0;
    core = link_row<D, false>(a, xa, tile, m, ids, lo, b_core, image, rc2,
                              core);
    halo = link_row<D, false>(a, xa, tile, m, ids, b_core, m, image, rc2,
                              halo);
  }
  // A halo origin links only to core neighbours (halo-halo pairs belong to
  // other blocks); inside one cell those pairs were all emitted above.
  if (!same) {
    for (std::size_t p = a_core; p < in_a.size(); ++p) {
      const std::int32_t a = in_a[p];
      halo = link_row<D, true>(a, pos[static_cast<std::size_t>(a)], tile, m,
                               ids, 0, b_core, image, rc2, halo);
    }
  }
  st.n_core = static_cast<std::size_t>(core - st.core.data());
  st.n_halo = static_cast<std::size_t>(halo - st.halo.data());
}

// Append the links originating from cells [lo, hi) to the stage: the
// intra-cell pairs, then each half-stencil neighbour in stencil order.
// kHoist fixes each cell pair's image shift from the neighbour lookup;
// otherwise every candidate takes the minimum image.
template <int D, bool kHoist>
void link_cell_range(LinkStage& st, const CellGrid<D>& grid,
                     std::span<const Vec<D>> pos, std::size_t ncore,
                     double rc2, const PairDisp<D>& disp, std::int32_t lo,
                     std::int32_t hi) {
  using Image = std::conditional_t<kHoist, ShiftImage<D>, MinImage<D>>;
  const auto& dims = grid.dims();
  std::array<int, D> at = grid.coords_of(lo);
  for (std::int32_t c = lo; c < hi; ++c) {
    const auto in_a = grid.cell_particles(c);
    if (!in_a.empty()) {
      const std::size_t a_core = core_prefix(in_a, ncore);
      Image image{};
      if constexpr (!kHoist) image.disp = disp;
      if (a_core > 0 && in_a.size() > 1) {
        link_cell_pair<D>(st, pos, in_a, a_core, in_a, a_core, true, image,
                          rc2);
      }
      for (const auto& off : CellGrid<D>::half_stencil()) {
        std::array<int, D> wrap{};
        const std::int32_t nb = grid.neighbor_image(at, off, wrap);
        if (nb < 0) continue;
        const auto in_b = grid.cell_particles(nb);
        const std::size_t b_core = core_prefix(in_b, ncore);
        // Skip empty neighbours and halo-halo-only pairs.
        if (in_b.empty() || (a_core == 0 && b_core == 0)) continue;
        if constexpr (kHoist) {
          for (int d = 0; d < D; ++d) {
            const double l = disp.periodic ? disp.box[d] : 0.0;
            const int w = wrap[static_cast<std::size_t>(d)];
            image.shift[static_cast<std::size_t>(d)] =
                w > 0 ? -l : (w < 0 ? l : 0.0);
          }
        }
        link_cell_pair<D>(st, pos, in_a, a_core, in_b, b_core, false, image,
                          rc2);
      }
    }
    // Next cell's coordinates (row-major, last axis fastest).
    for (int d = D - 1; d >= 0; --d) {
      const auto u = static_cast<std::size_t>(d);
      if (++at[u] < dims[u]) break;
      at[u] = 0;
    }
  }
}

// The gap sum and histogram of the stage's core links.
inline void tally_link_gaps(LinkStage& st) {
  std::uint64_t sum = 0;
  std::fill(std::begin(st.gap_hist), std::end(st.gap_hist), 0);
  for (std::size_t l = 0; l < st.n_core; ++l) {
    const Link& ln = st.core[l];
    const auto gap =
        static_cast<std::uint64_t>(ln.i > ln.j ? ln.i - ln.j : ln.j - ln.i);
    sum += gap;
    ++st.gap_hist[Counters::link_gap_bucket(gap)];
  }
  st.gap_sum = sum;
}

}  // namespace detail

// The link build every driver runs: generates the list AND its ColorPlan
// in one pass over the cells, producing byte-identical links/n_core/plan
// to build_links (the two-pass oracle) for any team size, and with
// `counters` the same link counts and locality statistics as
// record_link_stats.
//
// Chunk tagging.  Every link's chunk is known from its originating cell
// alone: the half stencil steps 0 or +1 along axis 0, so the origin always
// holds the lower of the two endpoint slabs — and the periodic-seam pair
// (endpoint slabs {0, nslabs-1}, only possible with nslabs >= 3) is
// assigned to the top slab, which again is the origin.  So instead of
// tagging links by two slab_of_position calls and re-sorting afterwards
// (build_color_plan), each thread walks the chunk-intersections of its
// static cell range and records the growth of its stage: the stage is
// already chunk-segmented, in storage-rank order, cell order within.
//
// Order.  One exclusive scan over the (thread, chunk) counts — in
// storage-rank order, thread-minor — gives every segment's final
// destination, and threads copy their segments straight into the
// pair-swapped canonical positions.  Ordering matches build_color_plan's
// stable counting sort because both enumerate links in (rank, cell,
// generation) order: within a chunk, threads in tid order own ascending
// cell ranges, and link_cell_pair keeps build_links_range's generation
// order within a cell.
//
// Candidate loop.  Per (origin cell, neighbour cell) pair the neighbour's
// positions are staged once into an SoA tile, each cell splits once at its
// core/halo boundary (cell lists ascend in index), and each origin row is
// tested and appended without branches.  The periodic image is fixed once
// per cell pair from the neighbour lookup (a wrap across the top face
// shifts the displacement by -L, across the bottom by +L), and the
// displacement is then (xi - xj) + shift: the same two roundings as the
// minimum image's (xi - xj) -/+ L, so wherever the two rules pick the same
// image they give the same bits.  They can only disagree about a pair
// neither links.  Per axis, with cell width w >= rc, a pair in adjacent
// cells has its adjacency image a within 2w (plus rounding) and the other
// image o = a -/+ L at least L - 2w away.  The minimum image picks o only
// when |a| > L/2; on a wrapped axis of n >= 4 cells (L >= 4w) that puts the
// hoisted pair beyond 2w > rc, and the minimum-image pair at least
// L - 2w >= 2w > rc away as well.  With n = 3 the second margin is only
// w, which rounding at cell faces can undercut, so such grids (and a
// periodic disp on an unwrapped axis) take the minimum image per
// candidate instead.  `disp` is the oracle's displacement rule: plain
// subtraction, or the minimum image of the wrapped grid's box.
//
// Everything runs inside one parallel region: generation, the per-thread
// gap tallies, and the copy into place; only the O(T * chunks) layout scan
// runs on one thread.  A one-member team generates its core links in
// place (see in_place below).
template <int D, class Team>
void build_links_fused(LinkList& out, const CellGrid<D>& grid,
                       std::span<const Vec<D>> pos, std::size_t ncore,
                       double rc, const PairDisp<D>& disp, Team& team,
                       FusedBuildScratch& scratch,
                       Counters* counters = nullptr) {
  const ChunkMap cm = ChunkMap::of(grid);
  const auto tsz = static_cast<std::size_t>(team.size());
  const auto nsz = static_cast<std::size_t>(cm.nchunks);
  const auto cps = static_cast<std::size_t>(grid.cells_per_slab());
  const auto ncells = static_cast<std::size_t>(grid.ncells());
  const double rc2 = rc * rc;
  bool hoist = true;
  for (int d = 0; d < D && disp.periodic; ++d) {
    hoist = hoist && grid.wrapped(d) &&
            grid.dims()[static_cast<std::size_t>(d)] >= 4;
  }

  ColorPlan& plan = out.plan;
  plan.nchunks = cm.nchunks;
  plan.ncolors = cm.ncolors();
  plan.core_lo.assign(nsz, 0);
  plan.core_hi.assign(nsz, 0);
  plan.halo_lo.assign(nsz, 0);
  plan.halo_hi.assign(nsz, 0);
  scratch.stages.resize(tsz);
  for (LinkStage& st : scratch.stages) {
    st.core_count.assign(nsz, 0);
    st.halo_count.assign(nsz, 0);
    st.core_dst.resize(nsz);
    st.halo_dst.resize(nsz);
  }

  // Static cell split, same convention as smp::static_block (remainder
  // spread over the first members).  Correctness only needs contiguous
  // ascending ranges; matching the team's convention keeps the split
  // aligned with the force pass's cell-derived work.
  auto cell_range = [&](int tid) {
    const std::size_t chunk = ncells / tsz;
    const std::size_t rem = ncells % tsz;
    const auto id = static_cast<std::size_t>(tid);
    const std::size_t lo = chunk * id + (id < rem ? id : rem);
    return std::pair<std::size_t, std::size_t>{
        lo, lo + chunk + (id < rem ? 1 : 0)};
  };

  // Every thread walks its chunks in storage-rank order, so a one-member
  // team's stage already holds the final core section: it generates
  // straight into the list's buffer (lent to the stage, no second copy of
  // the list is kept) and only its halo links are copied.
  const bool in_place = tsz == 1;

  team.parallel([&](int tid) {
    LinkStage& st = scratch.stages[static_cast<std::size_t>(tid)];
    if (in_place) std::swap(st.core, out.links);
    st.n_core = 0;
    st.n_halo = 0;
    const auto [lo, hi] = cell_range(tid);
    if (lo < hi) {
      // Chunks intersecting [lo, hi): chunk k owns the contiguous cell
      // range [slab_lo(k), slab_hi(k)) * cells_per_slab.
      const int k_first = cm.chunk_of_slab(
          grid.slab_of_cell(static_cast<std::int32_t>(lo)));
      const int k_last = cm.chunk_of_slab(
          grid.slab_of_cell(static_cast<std::int32_t>(hi - 1)));
      for (int r = 0; r < cm.nchunks; ++r) {
        const int k = cm.rank_of_chunk(r);
        if (k < k_first || k > k_last) continue;
        const auto k_lo = static_cast<std::size_t>(cm.slab_lo(k)) * cps;
        const auto k_hi = static_cast<std::size_t>(cm.slab_hi(k)) * cps;
        const auto sub_lo = static_cast<std::int32_t>(std::max(lo, k_lo));
        const auto sub_hi = static_cast<std::int32_t>(std::min(hi, k_hi));
        const std::size_t c0 = st.n_core, h0 = st.n_halo;
        if (hoist) {
          detail::link_cell_range<D, true>(st, grid, pos, ncore, rc2, disp,
                                           sub_lo, sub_hi);
        } else {
          detail::link_cell_range<D, false>(st, grid, pos, ncore, rc2, disp,
                                            sub_lo, sub_hi);
        }
        st.core_count[static_cast<std::size_t>(k)] = st.n_core - c0;
        st.halo_count[static_cast<std::size_t>(k)] = st.n_halo - h0;
      }
    }
    if (counters != nullptr) detail::tally_link_gaps(st);
    team.barrier();
    if (tid == 0) {
      // Layout: walk chunks in storage-rank order (rank_of_chunk is an
      // involution, so it also maps rank -> chunk), threads in tid order
      // within each chunk, assigning destination offsets.
      std::size_t total_core = 0, total_halo = 0;
      for (const LinkStage& s : scratch.stages) {
        total_core += s.n_core;
        total_halo += s.n_halo;
      }
      out.n_core = total_core;
      if (in_place) {
        std::swap(st.core, out.links);
      } else {
        // Grow to the exact size (resize alone would double the capacity).
        out.links.reserve(total_core + total_halo);
      }
      out.links.resize(total_core + total_halo);
      std::size_t coff = 0, hoff = total_core;
      for (int r = 0; r < cm.nchunks; ++r) {
        const auto c = static_cast<std::size_t>(cm.rank_of_chunk(r));
        plan.core_lo[c] = coff;
        plan.halo_lo[c] = hoff;
        for (LinkStage& s : scratch.stages) {
          s.core_dst[c] = coff;
          s.halo_dst[c] = hoff;
          coff += s.core_count[c];
          hoff += s.halo_count[c];
        }
        plan.core_hi[c] = coff;
        plan.halo_hi[c] = hoff;
      }
    }
    team.barrier();
    // Copy each chunk segment of this thread's stage to its final slot
    // (in place, the core links already are there).
    std::size_t csrc = 0, hsrc = 0;
    for (int r = 0; r < cm.nchunks; ++r) {
      const auto k = static_cast<std::size_t>(cm.rank_of_chunk(r));
      if (!in_place) {
        std::copy_n(st.core.data() + csrc, st.core_count[k],
                    out.links.data() + st.core_dst[k]);
      }
      std::copy_n(st.halo.data() + hsrc, st.halo_count[k],
                  out.links.data() + st.halo_dst[k]);
      csrc += st.core_count[k];
      hsrc += st.halo_count[k];
    }
  });

  if (counters != nullptr) {
    counters->links_core += out.n_core;
    counters->links_halo += out.size() - out.n_core;
    for (const LinkStage& s : scratch.stages) {
      counters->link_gap_sum += s.gap_sum;
      counters->link_gap_count += s.n_core;
      for (int b = 0; b < Counters::kGapBuckets; ++b) {
        counters->link_gap_hist[b] += s.gap_hist[b];
      }
    }
  }
}

}  // namespace hdem

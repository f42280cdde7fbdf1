// The benchmark's own logic that deserves tests of its own: the rule that
// picks a reported percentile, span self time, the serve arrival schedule
// and the output checks.  Everything here is deterministic and
// independent of wall time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/boundary.hpp"
#include "core/init.hpp"
#include "io/checkpoint.hpp"
#include "serve/job.hpp"
#include "util/rng.hpp"

namespace perfbench {

// ---- percentiles ---------------------------------------------------------

// Nearest-rank percentile at `permille` (500 = median, 990 = p99): the
// smallest sample with at least permille/1000 of all samples at or below
// it.  0 for no samples.
inline double percentile(std::vector<double> xs, int permille) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  std::size_t rank = (n * static_cast<std::size_t>(permille) + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return xs[rank - 1];
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 500);
}

// Samples strictly beyond the nearest-rank percentile at `permille`.
inline std::size_t samples_beyond(std::size_t n, int permille) {
  return n * static_cast<std::size_t>(1000 - permille) / 1000;
}

// The highest of p50, p90, p99 and p99.9 that has at least ten samples
// beyond it, in permille; 0 when even the median has fewer than ten.
inline int reportable_permille(std::size_t n) {
  int best = 0;
  for (const int pm : {500, 900, 990, 999}) {
    if (samples_beyond(n, pm) >= 10) best = pm;
  }
  return best;
}

// ---- spans ---------------------------------------------------------------

// One traced interval.  Times are seconds on the hdem tracer clock, so
// the drivers' own phase events and the benchmark's spans share a
// timeline.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 = root
  std::int64_t owner = -1;   // rank or job id, -1 = none
};

// Length of the union of `intervals` clipped to [lo, hi].
inline double covered(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b <= a) continue;
    total += b - a;
    reach = b;
  }
  return total;
}

// A span's duration minus the part of it that its children cover
// (children may overlap each other or nest; covered time counts once).
inline double self_time(const Span& s, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(children.size());
  for (const Span& c : children) iv.emplace_back(c.start, c.end);
  return (s.end - s.start) - covered(std::move(iv), s.start, s.end);
}

// In-memory span store shared by the threads of one run; written out when
// the run ends.
class SpanLog {
 public:
  std::int64_t add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void set_start(std::int64_t idx, double start) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].start = start;
  }
  void set_end(std::int64_t idx, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].end = end;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- serve arrival schedule ----------------------------------------------

// One job class of a serving mix: particle count drawn uniformly from
// [n_min, n_max], a fixed step budget.
struct JobClass {
  std::uint64_t n_min = 0;
  std::uint64_t n_max = 0;
  std::uint64_t steps = 0;
};

// The mix is stratified so that every seed puts the same work in a run:
// exactly one job in `batch_every` is a batch job and the scenarios
// rotate uniform -> clustered -> settled; the seed sets the arrival times,
// the phase of both patterns and each job's particle count.
struct ServeMix {
  int dim = 2;
  double rate = 0.0;                // open-loop arrivals per second
  std::uint64_t batch_every = 10;   // one batch job per this many jobs
  JobClass interactive;
  JobClass batch;
};

struct Arrival {
  double due = 0.0;  // seconds after the open loop starts
  hdem::serve::JobSpec spec;
};

// The index-th job of a stratified sequence whose patterns start at
// `phase`; its size comes from `rng`.
inline hdem::serve::JobSpec mix_job(hdem::Rng& rng, const ServeMix& mix,
                                    std::uint64_t seed, std::uint64_t phase,
                                    std::uint64_t index,
                                    std::uint64_t job_id) {
  using namespace hdem::serve;
  JobSpec spec;
  spec.job_id = job_id;
  spec.dim = mix.dim;
  spec.seed = seed;
  const bool interactive = (index + phase) % mix.batch_every != 0;
  const JobClass& cls = interactive ? mix.interactive : mix.batch;
  spec.deadline =
      interactive ? DeadlineClass::kInteractive : DeadlineClass::kBatch;
  spec.n = cls.n_min + rng.uniform_index(cls.n_max - cls.n_min + 1);
  spec.steps = cls.steps;
  constexpr Scenario kScenarios[] = {Scenario::kUniform, Scenario::kClustered,
                                     Scenario::kSettled};
  spec.scenario = kScenarios[(index + phase) % 3];
  // Pinned knobs: no skin, no checkpoint stream, serial engine per job.
  spec.skin_factor = 0.0;
  spec.checkpoint_every = 0;
  spec.inner_threads = 1;
  return spec;
}

// Open-loop schedule: ceil(rate * seconds) jobs, or more when needed for
// `min_interactive` interactive ones, at seeded Poisson arrival times.
// The same seed and part always give the same schedule; part k draws
// from its own random stream and numbers its jobs from k * 2^20.
inline std::vector<Arrival> arrival_schedule(std::uint64_t seed,
                                             const ServeMix& mix,
                                             double seconds,
                                             std::size_t min_interactive,
                                             std::uint64_t part = 0) {
  hdem::Rng rng(seed, /*stream=*/1 + 2 * part);
  const std::uint64_t phase = rng.uniform_index(mix.batch_every * 3);
  std::size_t count = static_cast<std::size_t>(std::ceil(mix.rate * seconds));
  std::vector<Arrival> out;
  std::size_t interactive = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < count || interactive < min_interactive; ++i) {
    t += -std::log1p(-rng.uniform()) / mix.rate;
    Arrival a;
    a.due = t;
    a.spec = mix_job(rng, mix, seed, phase, i, (part << 20) + i);
    if (a.spec.deadline == hdem::serve::DeadlineClass::kInteractive) {
      ++interactive;
    }
    out.push_back(std::move(a));
  }
  return out;
}

// A fixed backlog of `count` jobs of the same mix (ids from first_id on).
inline std::vector<hdem::serve::JobSpec> job_backlog(std::uint64_t seed,
                                                     const ServeMix& mix,
                                                     std::size_t count,
                                                     std::uint64_t first_id) {
  hdem::Rng rng(seed, /*stream=*/2);
  const std::uint64_t phase = rng.uniform_index(mix.batch_every * 3);
  std::vector<hdem::serve::JobSpec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(mix_job(rng, mix, seed, phase, i, first_id + i));
  }
  return out;
}

// ---- output checks -------------------------------------------------------

// Tolerances of the sim output check.  Positions of a parallel scheme may
// differ from the serial run's only by round-off; total momentum may
// drift only by round-off of the pairwise force sums.  Measured on both
// workloads: positions within 2.2e-16 (one ulp at a periodic wrap),
// momentum drift below 4e-17 of sum |v|; a missed pair force moves either
// by orders of magnitude more than these bounds.
struct SimTolerance {
  double position = 1e-9;  // box units, per coordinate under minimum image
  double momentum = 1e-12;  // per component, relative to sum |v| at start
};

inline std::string sci(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", x);
  return buf;
}

// Reasons a final sim state fails the check (empty: it passes).  `state`
// must hold every id in 0..n-1 exactly once, finite coordinates, total
// momentum within tolerance of `p0` (scaled by `speed_sum`, the sum of
// initial speeds), and - when `reference` is non-empty - positions within
// tolerance of the reference run's, matched by id under minimum image.
template <int D>
std::vector<std::string> check_sim_state(
    std::span<const hdem::StateRecord<D>> state, std::size_t n,
    const hdem::Boundary<D>& boundary, const hdem::Vec<D>& p0,
    double speed_sum, std::span<const hdem::StateRecord<D>> reference,
    const SimTolerance& tol) {
  std::vector<std::string> why;
  std::vector<const hdem::StateRecord<D>*> by_id(n, nullptr);
  for (const auto& r : state) {
    if (r.id < 0 || static_cast<std::size_t>(r.id) >= n) {
      why.push_back("id out of range: " + std::to_string(r.id));
      continue;
    }
    auto& slot = by_id[static_cast<std::size_t>(r.id)];
    if (slot != nullptr) why.push_back("duplicated id " + std::to_string(r.id));
    slot = &r;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (by_id[i] == nullptr) why.push_back("lost id " + std::to_string(i));
  }
  hdem::Vec<D> p{};
  for (const auto& r : state) {
    for (int d = 0; d < D; ++d) {
      if (!std::isfinite(r.pos[d]) || !std::isfinite(r.vel[d])) {
        why.push_back("non-finite coordinate at id " + std::to_string(r.id));
        break;
      }
    }
    p += r.vel;
  }
  for (int d = 0; d < D; ++d) {
    const double drift = std::abs(p[d] - p0[d]);
    if (!(drift <= tol.momentum * speed_sum)) {
      why.push_back("momentum drift " + sci(drift) + " in dim " +
                    std::to_string(d));
    }
  }
  if (!reference.empty()) {
    std::vector<const hdem::StateRecord<D>*> ref_by_id(n, nullptr);
    for (const auto& r : reference) {
      if (r.id >= 0 && static_cast<std::size_t>(r.id) < n) {
        ref_by_id[static_cast<std::size_t>(r.id)] = &r;
      }
    }
    double worst = 0.0;
    std::int32_t worst_id = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (by_id[i] == nullptr || ref_by_id[i] == nullptr) continue;
      const hdem::Vec<D> dx =
          boundary.displacement(by_id[i]->pos, ref_by_id[i]->pos);
      for (int d = 0; d < D; ++d) {
        if (!(std::abs(dx[d]) <= worst)) {
          worst = std::abs(dx[d]);
          worst_id = static_cast<std::int32_t>(i);
        }
      }
    }
    if (!(worst <= tol.position)) {
      why.push_back("position differs from serial by " + sci(worst) +
                    " at id " +
                    std::to_string(worst_id));
    }
  }
  return why;
}

// Reasons a served job's checkpoint fails (empty: it passes): the file
// must read back through io::read_checkpoint with exactly n particles.
inline std::vector<std::string> check_job_checkpoint(const std::string& path,
                                                     int dim, std::uint64_t n) {
  try {
    const std::size_t got =
        dim == 2 ? hdem::io::read_checkpoint<2>(path).particles.size()
                 : hdem::io::read_checkpoint<3>(path).particles.size();
    if (got != n) {
      return {"checkpoint holds " + std::to_string(got) + " particles, want " +
              std::to_string(n)};
    }
  } catch (const std::exception& e) {
    return {std::string("checkpoint unreadable: ") + e.what()};
  }
  return {};
}

// Byte-for-byte file equality (false when either file cannot be read).
inline bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  return std::equal(std::istreambuf_iterator<char>(fa),
                    std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb),
                    std::istreambuf_iterator<char>());
}

}  // namespace perfbench

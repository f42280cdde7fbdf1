#include "perf/calibrate.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/stats.hpp"

namespace hdem::perf {

CalibrationResult calibrate(const MachineSpec& base,
                            std::span<const CalibrationObservation> obs,
                            double target_particles) {
  if (obs.size() < 3) {
    throw std::invalid_argument("calibrate: need at least 3 observations");
  }
  const std::size_t rows = obs.size();
  // t_pair, t_pair3, t_update, t_contact, t_mem_l1, t_mem
  constexpr std::size_t kCols = 6;
  std::vector<double> x(rows * kCols);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const RunMeasurement& run = obs[r].run;
    if (run.knobs.nprocs != 1 || run.knobs.nthreads != 1 ||
        run.iterations == 0) {
      throw std::invalid_argument("calibrate: observations must be serial");
    }
    // A degenerate observation — an empty measurement window or a
    // non-positive target — would divide to NaN below and silently fit
    // zero constants; reject it instead so callers re-measure with a
    // longer window (MeasureSpec::min_seconds).
    if (run.agg.force_evals == 0 || run.agg.position_updates == 0) {
      throw std::invalid_argument(
          "calibrate: observation " + std::to_string(r) +
          " has an empty measurement window (zero link/update counts); "
          "re-run with more iterations or MeasureSpec::min_seconds");
    }
    if (!(obs[r].paper_seconds > 0.0) ||
        !std::isfinite(obs[r].paper_seconds)) {
      throw std::invalid_argument(
          "calibrate: observation " + std::to_string(r) +
          " has a non-positive target time; fitted constants would be "
          "NaN/0");
    }
    const double count_scale =
        target_particles / static_cast<double>(run.workload.n);
    const double links = static_cast<double>(run.agg.force_evals) /
                         static_cast<double>(run.iterations) * count_scale;
    const double contacts = static_cast<double>(run.agg.contacts) /
                            static_cast<double>(run.iterations) * count_scale;
    const double updates = static_cast<double>(run.agg.position_updates) /
                           static_cast<double>(run.iterations) * count_scale;
    const double gap_scale =
        paper_scale_layout(run, 1, target_particles).cache_gap_scale;
    const double miss_l2 =
        CostModel::miss_fraction(base.cache_bytes, run, gap_scale);
    const double l1_bytes =
        base.cache_l1_bytes > 0.0 ? base.cache_l1_bytes : base.cache_bytes;
    const double miss_l1 = CostModel::miss_fraction(l1_bytes, run, gap_scale);
    x[r * kCols + 0] = links;
    x[r * kCols + 1] = run.workload.D == 3 ? links : 0.0;
    x[r * kCols + 2] = updates;
    // Parametrised as t_mem = t_mem_l1 + extra (both non-negative) so a
    // beyond-L2 access can never be fitted cheaper than an L1 miss:
    //   t_mem_l1 (f1 - f2) + t_mem f2  ==  t_mem_l1 f1 + extra f2.
    x[r * kCols + 3] = contacts * miss_l1;
    x[r * kCols + 4] = links * miss_l1;
    x[r * kCols + 5] = links * miss_l2;
    y[r] = obs[r].paper_seconds;
  }

  const std::vector<double> beta = nonneg_least_squares(x, rows, kCols, y);

  CalibrationResult result;
  result.spec = base;
  result.spec.t_pair = beta[0];
  result.spec.t_pair3 = beta[1];
  result.spec.t_update = beta[2];
  result.spec.t_contact = beta[3];
  result.spec.t_mem_l1 = beta[4];
  result.spec.t_mem = beta[4] + beta[5];
  result.predicted.resize(rows);
  result.target = y;
  double sum_rel = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    result.predicted[r] = 0.0;
    for (std::size_t c = 0; c < kCols; ++c) {
      result.predicted[r] += x[r * kCols + c] * beta[c];
    }
    const double rel = std::abs(result.predicted[r] - y[r]) / y[r];
    sum_rel += rel;
    if (rel > result.max_rel_error) result.max_rel_error = rel;
  }
  result.mean_rel_error = sum_rel / static_cast<double>(rows);
  return result;
}

}  // namespace hdem::perf

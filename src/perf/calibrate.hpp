// Calibration of the per-platform serial kernel costs.
//
// The model's three serial constants (t_pair, t_update, t_mem) are fitted
// per platform against the paper's own Tables 1 and 2: eight observations
// (D in {2,3} x rc in {1.5, 2.0} rmax x {random, reordered}) against three
// parameters, solved by non-negative least squares.  The regressors are
// *measured* per-iteration link/update counts and the measured link-gap
// locality of this library's serial runs, extrapolated to the paper's one
// million particles.
#pragma once

#include <span>
#include <vector>

#include "perf/cost_model.hpp"
#include "perf/machine.hpp"

namespace hdem::perf {

struct CalibrationObservation {
  RunMeasurement run;          // serial measurement (P = T = 1)
  double paper_seconds = 0.0;  // the Tables 1/2 target for this configuration
};

struct CalibrationResult {
  MachineSpec spec;               // base spec with fitted serial constants
  std::vector<double> predicted;  // model seconds per observation
  std::vector<double> target;     // paper seconds per observation
  double max_rel_error = 0.0;
  double mean_rel_error = 0.0;
};

// Fit t_pair / t_update / t_mem of `base` to the observations, which must
// all be serial runs of the benchmark system.  Link-gap locality is
// extrapolated to target_particles as paper_scale_layout does.
CalibrationResult calibrate(const MachineSpec& base,
                            std::span<const CalibrationObservation> obs,
                            double target_particles);

}  // namespace hdem::perf

#include "perf/calibrate.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "perf/machine.hpp"
#include "perf/measure.hpp"
#include "perf/paper_data.hpp"

namespace hdem::perf {
namespace {

// A synthetic base spec: calibrate fits the serial kernel costs and keeps
// the cache sizes it is given.
MachineSpec base_spec() {
  MachineSpec m;
  m.name = "base";
  m.cache_bytes = 8.0e6;
  m.cache_l1_bytes = 32.0e3;
  return m;
}

// Synthetic observations generated from known constants must be recovered.
TEST(Calibrate, RecoversKnownConstants) {
  MachineSpec base = base_spec();
  base.cache_bytes = 1e6;
  const double t_pair = 2e-7, t_pair3 = 1e-7, t_update = 5e-7, t_mem = 3e-7;

  std::vector<CalibrationObservation> obs;
  int idx = 0;
  for (int D : {2, 3}) {
    for (double links_per_particle : {3.0, 6.0}) {
      for (bool reordered : {false, true}) {
        CalibrationObservation o;
        o.run.workload.D = D;
        o.run.workload.n = 10000;
        o.run.knobs.reorder = reordered;
        o.run.iterations = 1;
        o.run.agg.position_updates = 10000;
        const auto links =
            static_cast<std::uint64_t>(10000 * links_per_particle);
        o.run.agg.force_evals = links;
        // Random order: huge gaps (always miss). Reordered: tiny gaps.
        for (std::uint64_t l = 0; l < links; ++l) {
          o.run.agg.record_link_gap(reordered ? 4 : 5000 + idx);
        }
        const double miss = CostModel::miss_probability(
            base, o.run, paper_scale_layout(o.run, 1, 1e6).cache_gap_scale);
        const double scale = 1e6 / 10000.0;
        o.paper_seconds =
            scale * (links * (t_pair + (D == 3 ? t_pair3 : 0.0)) +
                     10000 * t_update + links * miss * t_mem);
        obs.push_back(o);
        ++idx;
      }
    }
  }
  const auto res = calibrate(base, obs, 1e6);
  EXPECT_LT(res.max_rel_error, 1e-6);
  EXPECT_NEAR(res.spec.t_pair, t_pair, 1e-10);
  EXPECT_NEAR(res.spec.t_pair3, t_pair3, 1e-10);
  EXPECT_NEAR(res.spec.t_update, t_update, 1e-10);
  EXPECT_NEAR(res.spec.t_mem, t_mem, 1e-10);
}

// A degenerate observation — an empty measurement window (zero counts) or
// a non-positive/non-finite target — must be rejected instead of silently
// fitting NaN/zero constants.
TEST(Calibrate, RejectsDegenerateObservations) {
  const MachineSpec base = base_spec();
  CalibrationObservation good;
  good.run.workload.n = 1000;
  good.run.iterations = 1;
  good.run.agg.force_evals = 3000;
  good.run.agg.position_updates = 1000;
  good.paper_seconds = 1.0;

  std::vector<CalibrationObservation> obs(3, good);
  obs[1].run.agg.force_evals = 0;
  obs[1].run.agg.position_updates = 0;
  EXPECT_THROW(calibrate(base, obs, 1e6), std::invalid_argument);

  obs = {good, good, good};
  obs[2].paper_seconds = 0.0;
  EXPECT_THROW(calibrate(base, obs, 1e6), std::invalid_argument);
  obs[2].paper_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(calibrate(base, obs, 1e6), std::invalid_argument);
}

TEST(Calibrate, RejectsBadInputs) {
  const MachineSpec base = base_spec();
  std::vector<CalibrationObservation> few(2);
  EXPECT_THROW(calibrate(base, few, 1e6), std::invalid_argument);

  CalibrationObservation parallel_obs;
  parallel_obs.run.knobs.nprocs = 2;
  parallel_obs.run.iterations = 1;
  std::vector<CalibrationObservation> bad(3, parallel_obs);
  EXPECT_THROW(calibrate(base, bad, 1e6), std::invalid_argument);
}

// End-to-end: calibrating all three paper platforms from real (small)
// serial runs must reproduce Tables 1 and 2 within a modest tolerance.
TEST(Calibrate, PaperTablesWithinTolerance) {
  std::vector<RunMeasurement> runs;
  for (bool reorder : {false, true}) {
    for (auto [D, rcf] : {std::pair{2, 1.5}, {2, 2.0}, {3, 1.5}, {3, 2.0}}) {
      MeasureSpec s;
      s.D = D;
      s.n = 20000;
      s.rc_factor = rcf;
      s.reorder = reorder;
      s.mode = MeasureSpec::Mode::kSerial;
      s.iterations = 2;
      runs.push_back(measure_run(s));
    }
  }
  for (const auto& base : {t3e900(), sun_hpc3500(), compaq_es40_cluster()}) {
    std::vector<CalibrationObservation> obs;
    for (const auto& r : runs) {
      obs.push_back({r, paper_serial_seconds(base.name, r.workload.D,
                                             r.workload.rc_factor,
                                             r.knobs.reorder)});
    }
    const auto res = calibrate(base, obs, kPaperParticles);
    EXPECT_LT(res.mean_rel_error, 0.12) << base.name;
    EXPECT_LT(res.max_rel_error, 0.35) << base.name;
    EXPECT_GT(res.spec.t_update, 0.0) << base.name;
  }
}

}  // namespace
}  // namespace hdem::perf

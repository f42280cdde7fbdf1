#include "perf/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ci_knobs.hpp"
#include "perf/measure.hpp"
#include "perf/tune.hpp"

namespace hdem::perf {
namespace {

// A well-conditioned synthetic design: columns vary independently.
std::vector<double> make_design(std::size_t nrows, std::size_t ncols) {
  std::vector<double> x(nrows * ncols);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < ncols; ++j) {
      // Deterministic, full-rank, strictly positive entries with very
      // different per-column scales (mimics n/P vs barrier counts).
      const double base = std::pow(10.0, static_cast<double>(j));
      x[r * ncols + j] =
          base * (1.0 + 0.37 * static_cast<double>((r * (j + 3)) % 7));
    }
  }
  return x;
}

std::vector<double> apply(const std::vector<double>& x, std::size_t nrows,
                          std::size_t ncols,
                          const std::vector<double>& beta) {
  std::vector<double> y(nrows, 0.0);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < ncols; ++j) {
      y[r] += x[r * ncols + j] * beta[j];
    }
  }
  return y;
}

TEST(FitPhase, ExactRecovery) {
  const std::size_t nrows = 9, ncols = 3;
  const auto x = make_design(nrows, ncols);
  const std::vector<double> truth = {3e-7, 2e-6, 5e-5};
  const auto y = apply(x, nrows, ncols, truth);
  const PhaseFit fit = fit_phase(x, nrows, ncols, y);
  ASSERT_EQ(fit.beta.size(), ncols);
  for (std::size_t j = 0; j < ncols; ++j) {
    EXPECT_NEAR(fit.beta[j] / truth[j], 1.0, 1e-6) << "column " << j;
  }
  EXPECT_LT(fit.max_rel_error, 1e-6);
}

TEST(FitPhase, NoisyRecoveryWithinTolerance) {
  const std::size_t nrows = 24, ncols = 3;
  const auto x = make_design(nrows, ncols);
  // Coefficients scaled so every column contributes comparably to y;
  // recovering a term whose whole contribution is smaller than the noise
  // is impossible for any fitter and not what this test is about.
  const std::vector<double> truth = {5e-5, 2e-6, 3e-7};
  auto y = apply(x, nrows, ncols, truth);
  // +-3% deterministic multiplicative noise.
  for (std::size_t r = 0; r < nrows; ++r) {
    y[r] *= 1.0 + 0.03 * ((r % 2 == 0) ? 1.0 : -1.0);
  }
  const PhaseFit fit = fit_phase(x, nrows, ncols, y);
  for (std::size_t j = 0; j < ncols; ++j) {
    EXPECT_NEAR(fit.beta[j] / truth[j], 1.0, 0.15) << "column " << j;
  }
  EXPECT_LT(fit.mean_rel_error, 0.05);
}

TEST(FitPhase, RejectsDependentColumn) {
  const std::size_t nrows = 8, ncols = 3;
  auto x = make_design(nrows, ncols);
  // Make column 2 an exact multiple of column 0.
  for (std::size_t r = 0; r < nrows; ++r) {
    x[r * ncols + 2] = 4.0 * x[r * ncols + 0];
  }
  const auto y = apply(x, nrows, ncols, {1.0, 2.0, 3.0});
  try {
    fit_phase(x, nrows, ncols, y);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("column 2"), std::string::npos)
        << e.what();
  }
}

TEST(FitPhase, RejectsZeroColumn) {
  const std::size_t nrows = 6, ncols = 2;
  auto x = make_design(nrows, ncols);
  for (std::size_t r = 0; r < nrows; ++r) x[r * ncols + 1] = 0.0;
  const std::vector<double> y(nrows, 1.0);
  EXPECT_THROW(fit_phase(x, nrows, ncols, y), std::invalid_argument);
}

TEST(FitPhase, RejectsUnderdeterminedDesign) {
  const std::size_t nrows = 2, ncols = 3;
  const auto x = make_design(nrows, ncols);
  const std::vector<double> y(nrows, 1.0);
  EXPECT_THROW(fit_phase(x, nrows, ncols, y), std::invalid_argument);
}

TEST(FitPhasePruned, DropsDependentColumnsAndStillFits) {
  const std::size_t nrows = 8, ncols = 3;
  auto x = make_design(nrows, ncols);
  for (std::size_t r = 0; r < nrows; ++r) {
    x[r * ncols + 2] = 4.0 * x[r * ncols + 0];
  }
  // Target generated from the identifiable columns only.
  const auto y = apply(x, nrows, ncols, {2.0, 3.0, 0.0});
  const PrunedPhaseFit fit = fit_phase_pruned(x, nrows, ncols, y);
  EXPECT_TRUE(fit.kept[0]);
  EXPECT_TRUE(fit.kept[1]);
  EXPECT_FALSE(fit.kept[2]);
  EXPECT_DOUBLE_EQ(fit.fit.beta[2], 0.0);
  EXPECT_LT(fit.fit.max_rel_error, 1e-6);
}

TEST(IndependentColumnMask, FlagsZeroAndDependent) {
  // Columns: [t, 2t, 1] over t = 1..4, plus a zero column.
  const std::size_t nrows = 4, ncols = 4;
  std::vector<double> x(nrows * ncols, 0.0);
  for (std::size_t r = 0; r < nrows; ++r) {
    const double t = static_cast<double>(r + 1);
    x[r * ncols + 0] = t;
    x[r * ncols + 1] = 2.0 * t;
    x[r * ncols + 2] = 1.0;
    x[r * ncols + 3] = 0.0;
  }
  const auto keep = independent_column_mask(x, nrows, ncols);
  EXPECT_TRUE(keep[0]);
  EXPECT_FALSE(keep[1]);  // multiple of column 0
  EXPECT_TRUE(keep[2]);   // intercept is independent of a linear ramp
  EXPECT_FALSE(keep[3]);  // identically zero
}

// --- FittedModel / fit_model over synthetic tune rows ---------------------

double phase_value(const FittedModel& truth, int phase, const TuneRow& r) {
  const auto f = FittedModel::features(phase, r.workload, r.config,
                                       r.rebuilds_per_step);
  double v = 0.0;
  for (int j = 0; j < FittedModel::kFeatureCount; ++j) {
    v += truth.beta[static_cast<std::size_t>(phase)]
                   [static_cast<std::size_t>(j)] *
         f[static_cast<std::size_t>(j)];
  }
  return v;
}

std::vector<TuneRow> synthetic_rows(const FittedModel& truth) {
  std::vector<TuneRow> rows;
  for (const int p : {1, 2, 4}) {
    for (const int t : {1, 2}) {
      for (const int b : {1, 2}) {
        if (p == 1 && b != 1) continue;
        for (const double skin : {0.0, 0.3}) {
          TuneRow r;
          r.workload.scenario = Scenario::kUniform;
          r.workload.n = 4000;
          r.config.nprocs = p;
          r.config.nthreads = t;
          r.config.blocks_per_proc = b;
          r.config.skin_factor = skin;
          // Constant per (scenario, skin) class, so the fitted class-rate
          // table reproduces each row's own rate exactly.
          r.rebuilds_per_step = skin == 0.0 ? 1.0 : 0.25;
          r.iterations = 8;
          r.force_s = phase_value(truth, FittedModel::kForce, r);
          r.rebuild_s = phase_value(truth, FittedModel::kRebuild, r);
          r.halo_wire_s = phase_value(truth, FittedModel::kHalo, r);
          r.migrate_s = phase_value(truth, FittedModel::kMigrate, r);
          r.other_s = phase_value(truth, FittedModel::kOther, r);
          r.step_seconds = r.force_s + r.rebuild_s + r.halo_wire_s +
                           r.migrate_s + r.other_s;
          rows.push_back(r);
        }
      }
    }
  }
  return rows;
}

TEST(FitModel, RecoversSyntheticModel) {
  FittedModel truth;
  truth.beta[FittedModel::kForce] = {4e-7, 1e-8, 2e-5, 3e-6};
  truth.beta[FittedModel::kRebuild] = {2e-7, 2e-8, 1e-4, 1e-6};
  truth.beta[FittedModel::kHalo] = {5e-7, 1e-7, 2e-7, 4e-5};
  truth.beta[FittedModel::kMigrate] = {3e-8, 2e-7, 5e-5, 0.0};
  truth.beta[FittedModel::kOther] = {1e-4, 2e-5, 3e-5, 1e-8};

  const auto rows = synthetic_rows(truth);
  const FittedModel fitted = fit_model(rows);
  ASSERT_TRUE(fitted.fitted());

  // Predictions must reproduce the generating model on every grid point
  // (individual coefficients may shuffle along near-degenerate directions;
  // the prediction is the contract).
  for (const TuneRow& r : rows) {
    const auto pred = fitted.predict(r.workload, r.config);
    EXPECT_NEAR(pred.total() / r.step_seconds, 1.0, 1e-3)
        << "P=" << r.config.nprocs << " T=" << r.config.nthreads
        << " B=" << r.config.blocks_per_proc
        << " skin=" << r.config.skin_factor;
    EXPECT_NEAR(pred[FittedModel::kForce] / r.force_s, 1.0, 1e-3);
  }
}

TEST(FitModel, RejectsEmptyRowSet) {
  EXPECT_THROW(fit_model({}), std::invalid_argument);
}

TEST(FitModel, NarrowServingGridStillFits) {
  // A serving-shaped sweep: P = 1, B = 1 fixed, only T varies.  n_r is
  // then constant, collinear with the intercept — the strict fit would
  // reject it; fit_model must prune and still predict the grid.
  FittedModel truth;
  truth.beta[FittedModel::kForce] = {4e-7, 0.0, 0.0, 3e-6};
  truth.beta[FittedModel::kOther] = {1e-5, 2e-5, 0.0, 0.0};
  std::vector<TuneRow> rows;
  for (const int t : {1, 2, 4}) {
    TuneRow r;
    r.workload.n = 2000;
    r.config.nthreads = t;
    r.rebuilds_per_step = 1.0;
    r.force_s = phase_value(truth, FittedModel::kForce, r);
    r.other_s = phase_value(truth, FittedModel::kOther, r);
    r.step_seconds = r.force_s + r.other_s;
    rows.push_back(r);
  }
  const FittedModel fitted = fit_model(rows);
  for (const TuneRow& r : rows) {
    const auto pred = fitted.predict(r.workload, r.config);
    EXPECT_NEAR(pred.total() / r.step_seconds, 1.0, 1e-3)
        << "T=" << r.config.nthreads;
  }
}

// --- tune-file format ------------------------------------------------------

TEST(TuneFile, RoundTrip) {
  std::vector<TuneRow> rows;
  TuneRow r;
  r.workload.scenario = Scenario::kSettled;
  r.workload.D = 2;
  r.workload.n = 1234;
  r.workload.settled_stride = 8;
  r.workload.velocity_scale = 0.25;
  // Every knob off its default, so a knob missing from for_each_knob
  // reads back as its default and fails the equality below.
  RunKnobs& k = r.config;
  k.nprocs = 4;
  k.nthreads = 2;
  k.blocks_per_proc = 3;
  k.reduction = ReductionKind::kColored;
  k.fused = true;
  k.overlap = true;
  k.steal = true;
  k.rebalance = true;
  k.rebalance_threshold = 1.25;
  k.shared_halo = true;
  k.ranks_per_node = 2;
  k.skin_factor = 0.3;
  k.skin_cap_factor = 0.5;
  k.halo_delta = true;
  k.halo_coalesce = true;
  k.reorder = false;
  k.drift_measured = false;
  r.iterations = 16;
  r.step_seconds = 1.25e-3;
  r.force_s = 9.0e-4;
  r.rebuild_s = 1.0e-4;
  r.halo_wire_s = 5.0e-5;
  r.halo_shared_s = 2.5e-5;
  r.halo_wait_s = 4.0e-5;
  r.migrate_s = 1.5e-5;
  r.rebalance_s = 1.0e-5;
  r.other_s = 2.0e-4;
  r.imbalance = 1.17;
  r.rebuilds_per_step = 0.125;
  rows.push_back(r);

  const std::string text = format_tune_rows(rows);
  EXPECT_NE(text.find("# hdem-tune v3\n# host: "), std::string::npos);
  EXPECT_NE(text.find("# columns:"), std::string::npos);

  const auto back = parse_tune_rows(text);
  ASSERT_EQ(back.size(), 1u);
  const TuneRow& b = back[0];
  EXPECT_EQ(b.workload.scenario, Scenario::kSettled);
  EXPECT_EQ(b.workload.n, 1234u);
  EXPECT_EQ(b.workload.settled_stride, 8u);
  EXPECT_TRUE(b.config == r.config);
  EXPECT_EQ(b.iterations, 16u);
  EXPECT_NEAR(b.step_seconds, r.step_seconds, 1e-12);
  EXPECT_NEAR(b.force_s, r.force_s, 1e-12);
  EXPECT_NEAR(b.halo_shared_s, r.halo_shared_s, 1e-12);
  EXPECT_NEAR(b.halo_wait_s, r.halo_wait_s, 1e-12);
  EXPECT_NEAR(b.imbalance, r.imbalance, 1e-12);
  EXPECT_NEAR(b.rebuilds_per_step, r.rebuilds_per_step, 1e-12);
}

// Rows of the v2 files the parent wrote under results/tune/
// (fig15_hot.tune, fig15_settled.tune): uniform rows carry stride 0 and
// cluster 1, the settled row stride 8, and each row a `simd` column.  Such
// a file loads and fits without re-measuring, and formats back as v3: the
// same rows without the `simd` column.
TEST(TuneFile, ParsesParentRows) {
  const std::string columns =
      "# columns: scenario D n rc velocity stride cluster P T B reduction"
      " fused overlap steal rebalance rebalance_threshold shared_halo"
      " ranks_per_node skin skin_cap halo_delta halo_coalesce reorder"
      " drift_measured simd iters rebuild_rate imbalance force_s rebuild_s"
      " halo_wire_s halo_shared_s halo_wait_s migrate_s rebalance_s other_s"
      " step_s\n";
  const std::string data =
      "uniform 2 800 1.5 0.25 0 1 1 2 1 colored 0 0 0 0 1.15 0 0 0 -1 0 0 1"
      " 1 2 128 0.015625 1 7.27352188e-05 3.80016407e-06 0 0 0 0 0"
      " 3.94789058e-07 7.69301719e-05\n"
      "uniform 2 800 1.5 0.25 0 1 2 2 1 colored 0 0 0 0 1.15 0 0 0 -1 0 0 1"
      " 1 2 64 0.0078125 1.01280098 9.77598752e-05 5.01882032e-06"
      " 2.74313282e-06 0 5.40330468e-06 2.22226546e-07 0 1.73751795e-05"
      " 0.000123119234\n"
      "settled 2 800 1.5 0.25 8 1 1 2 1 colored 0 0 0 0 1.15 0 0 0 -1 0 0 1"
      " 1 2 128 0.0078125 1 6.97873437e-05 1.42677344e-06 0 0 0 0 0"
      " 4.59312531e-07 7.16734297e-05\n";
  const std::string text =
      "# hdem-tune v2\n"
      "# host: 1 node(s) x 1 cpu(s), t_pair=20ns, simd_isa=sse2,"
      " simd_gain=1 | host kernels: compiled=sse2, active=sse2, width=2\n"
      "# per-phase *_s columns: seconds per step, mean over ranks; step_s:"
      " slowest rank's wall per step\n" +
      columns + data;

  const auto rows = parse_tune_rows(text);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].workload.scenario, Scenario::kUniform);
  EXPECT_EQ(rows[0].workload.settled_stride, 0u);
  EXPECT_EQ(rows[0].workload.cluster_fraction, 1.0);
  EXPECT_EQ(rows[1].config.nprocs, 2);
  EXPECT_EQ(rows[2].workload.scenario, Scenario::kSettled);
  EXPECT_EQ(rows[2].workload.settled_stride, 8u);
  EXPECT_EQ(rows[2].workload.velocity_scale, 0.25);

  const FittedModel model = fit_model(rows);
  EXPECT_TRUE(model.fitted());
  ASSERT_EQ(model.rates.size(), 2u);
  EXPECT_EQ(model.rebuilds_per_step(rows[2].workload, 0.0), 0.0078125);
  EXPECT_GT(model.predict(rows[0].workload, rows[0].config).total(), 0.0);

  const std::string columns_v3 =
      "# columns: scenario D n rc velocity stride cluster P T B reduction"
      " fused overlap steal rebalance rebalance_threshold shared_halo"
      " ranks_per_node skin skin_cap halo_delta halo_coalesce reorder"
      " drift_measured iters rebuild_rate imbalance force_s rebuild_s"
      " halo_wire_s halo_shared_s halo_wait_s migrate_s rebalance_s other_s"
      " step_s\n";
  const std::string data_v3 =
      "uniform 2 800 1.5 0.25 0 1 1 2 1 colored 0 0 0 0 1.15 0 0 0 -1 0 0 1"
      " 1 128 0.015625 1 7.27352188e-05 3.80016407e-06 0 0 0 0 0"
      " 3.94789058e-07 7.69301719e-05\n"
      "uniform 2 800 1.5 0.25 0 1 2 2 1 colored 0 0 0 0 1.15 0 0 0 -1 0 0 1"
      " 1 64 0.0078125 1.01280098 9.77598752e-05 5.01882032e-06"
      " 2.74313282e-06 0 5.40330468e-06 2.22226546e-07 0 1.73751795e-05"
      " 0.000123119234\n"
      "settled 2 800 1.5 0.25 8 1 1 2 1 colored 0 0 0 0 1.15 0 0 0 -1 0 0 1"
      " 1 128 0.0078125 1 6.97873437e-05 1.42677344e-06 0 0 0 0 0"
      " 4.59312531e-07 7.16734297e-05\n";
  const std::string back = format_tune_rows(rows);
  EXPECT_EQ(back.rfind("# hdem-tune v3\n", 0), 0u) << back;
  EXPECT_NE(back.find(columns_v3 + data_v3), std::string::npos) << back;
}

TEST(TuneFile, RejectsUnknownScenario) {
  std::string text = format_tune_rows(std::vector<TuneRow>(1));
  const auto row = text.find("\nuniform ");
  ASSERT_NE(row, std::string::npos) << text;
  text.replace(row + 1, std::string("uniform").size(), "sandpile");
  try {
    parse_tune_rows(text);
    ADD_FAILURE() << "no error for scenario 'sandpile'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'sandpile'"), std::string::npos)
        << e.what();
  }
}

TEST(TuneFile, ParsesByColumnNameNotPosition) {
  // Reordered + extra columns must parse; values bind by header name.
  const std::string text =
      "# hdem-tune v2\n"
      "# columns: step_s extra T P scenario D n rc velocity stride cluster"
      " B skin skin_cap halo_delta halo_coalesce overlap steal rebalance"
      " reorder simd iters rebuild_rate imbalance force_s rebuild_s"
      " halo_wire_s halo_shared_s halo_wait_s migrate_s rebalance_s"
      " other_s reduction fused rebalance_threshold shared_halo"
      " ranks_per_node drift_measured\n"
      "0.5 99 3 2 uniform 2 1000 1.5 0.05 0 1 4 0 -1 0 0 0 0 0 1 1 8 1 1"
      " 0.4 0.05 0.01 0 0.002 0.005 0 0.035 colored 0 1.15 0 0 1\n";
  const auto rows = parse_tune_rows(text);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].step_seconds, 0.5);
  EXPECT_EQ(rows[0].config.nthreads, 3);
  EXPECT_EQ(rows[0].config.nprocs, 2);
  EXPECT_EQ(rows[0].config.blocks_per_proc, 4);
  EXPECT_EQ(rows[0].config.reduction, ReductionKind::kColored);
}

// `text` (one header, one row) with `column`'s value in the row replaced.
std::string with_value(const std::string& text, const std::string& column,
                       const std::string& token) {
  std::istringstream in(text);
  std::string out, line;
  std::vector<std::string> names;
  while (std::getline(in, line)) {
    if (line.rfind("# columns:", 0) == 0) {
      std::istringstream hs(line.substr(10));
      for (std::string name; hs >> name;) names.push_back(name);
    } else if (!line.empty() && line[0] != '#') {
      std::istringstream ls(line);
      std::string row;
      std::size_t i = 0;
      for (std::string tok; ls >> tok; ++i) {
        row += (i ? " " : "") + (i < names.size() && names[i] == column
                                     ? token
                                     : tok);
      }
      line = row;
    }
    out += line + "\n";
  }
  return out;
}

TEST(TuneFile, RejectsMalformedInput) {
  // Data before the columns header.
  EXPECT_THROW(parse_tune_rows("1 2 3\n"), std::invalid_argument);
  // Row shorter than the header.
  EXPECT_THROW(parse_tune_rows("# columns: a b c\n1 2\n"),
               std::invalid_argument);
  // Header missing a required column: the error names it.
  EXPECT_THROW(parse_tune_rows("# columns: scenario D\nuniform 2\n"),
               std::invalid_argument);
  TuneRow valid;
  valid.iterations = 8;
  const std::string full = format_tune_rows(std::vector<TuneRow>{valid});
  ASSERT_EQ(parse_tune_rows(full).size(), 1u);
  // A value the casts cannot take, or a knob set the drivers reject: the
  // error names the column (MpOptions::validate names the knob).
  const std::pair<const char*, const char*> bad_values[] = {
      {"D", "nan"},       {"D", "5"},         {"D", "inf"},
      {"n", "-1"},        {"n", "0"},         {"n", "1e30"},
      {"iters", "0"},     {"iters", "-inf"},  {"stride", "-1"},
      {"P", "0"},         {"T", "0"},         {"T", "1e30"},
      {"T", "2.5"},       {"B", "0"},         {"ranks_per_node", "-1"},
      {"rc", "nan"},      {"skin", "inf"},    {"force_s", "-1"},
      {"step_s", "nan"},  {"rc", "abc"},      {"velocity", "1e400"},
      {"n", "5abc"},      {"T", "2x"},
      {"rebalance_threshold", "0.5"},
  };
  for (const auto& [column, token] : bad_values) {
    try {
      parse_tune_rows(with_value(full, column, token));
      ADD_FAILURE() << "no error for " << column << " = " << token;
    } catch (const std::invalid_argument& e) {
      const std::string knob =
          std::string(column) == "rebalance_threshold" ? "threshold" : column;
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << column << " = " << token << ": " << e.what();
    }
  }
  // Knobs that parse one by one but not together.
  EXPECT_THROW(parse_tune_rows(with_value(full, "fused", "1")),
               std::invalid_argument);  // fused at T = 1
  EXPECT_THROW(parse_tune_rows(with_value(full, "steal", "1")),
               std::invalid_argument);  // stealing needs colored
  for (const char* column : {"reduction", "drift_measured"}) {
    std::string text = full;
    text.replace(text.find(std::string(" ") + column + " "),
                 std::string(column).size() + 1, " missing");
    try {
      parse_tune_rows(text);
      ADD_FAILURE() << "no error for a file without " << column;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(column), std::string::npos)
          << e.what();
    }
  }
}

// --auto's closed loop: a file that parses is used as it is; a missing
// file, or one in an older format (v1 rows lack the reduction column), is
// measured and overwritten.
TEST(TuneFile, LoadOrMeasureReplacesAFileThatDoesNotParse) {
  const std::string path = "fit_load_or_measure.tune";
  std::filesystem::remove(path);
  std::vector<TuneRow> measured(2);
  for (TuneRow& r : measured) r.iterations = 8;
  measured[1].config.nthreads = 2;
  int calls = 0;
  const auto measure = [&] {
    ++calls;
    return measured;
  };
  EXPECT_EQ(load_or_measure_tune_rows(path, "test", measure).size(), 2u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(load_or_measure_tune_rows(path, "test", measure).size(), 2u);
  EXPECT_EQ(calls, 1);
  {
    std::ofstream out(path);
    out << "# hdem-tune v1\n# columns: scenario D n P T B\n"
           "uniform 2 1000 1 1 1\n";
  }
  const auto rows = load_or_measure_tune_rows(path, "test", measure);
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].config.nthreads, 2);
  EXPECT_EQ(load_tune_rows(path).size(), 2u);
  std::filesystem::remove(path);
}

// --- serving choice --------------------------------------------------------

TEST(ChooseServing, LatencyScalesBatchConserves) {
  // Perfectly thread-scalable force term, no parallel overhead: a latency
  // job should take every thread, a batch job (same predicted CPU-seconds
  // at any T) the smallest team.
  FittedModel model;
  model.beta[FittedModel::kForce] = {1e-6, 0.0, 0.0, 0.0};  // n_r / T
  const Workload w;  // n = 4000
  const auto latency = choose_serving(model, w, {}, true, 4);
  EXPECT_EQ(latency.inner_threads, 4);
  const auto batch = choose_serving(model, w, {}, false, 4);
  EXPECT_EQ(batch.inner_threads, 1);
  EXPECT_GT(batch.predicted_step_seconds, latency.predicted_step_seconds);
}

TEST(ChooseServing, FlatScalingKeepsOneThread) {
  // A per-thread overhead term with no 1/T win: even the latency class
  // must keep T = 1 (the oversubscribed-CI-host shape).
  FittedModel model;
  model.beta[FittedModel::kForce] = {0.0, 1e-6, 0.0, 0.0};   // n_r, T-free
  model.beta[FittedModel::kOther] = {0.0, 5e-4, 0.0, 0.0};   // (T-1) cost
  const Workload w;
  EXPECT_EQ(choose_serving(model, w, {}, true, 4).inner_threads, 1);
  EXPECT_EQ(choose_serving(model, w, {}, false, 4).inner_threads, 1);
}

TEST(ChooseServing, QuantumTargetsFixedWorkAndClamps) {
  FittedModel model;
  model.beta[FittedModel::kForce] = {0.0, 1e-6, 0.0, 0.0};  // step = 1e-6 n
  Workload w;
  w.n = 400;  // step 4e-4 -> 0.004/4e-4 = 10 steps per quantum
  EXPECT_EQ(choose_serving(model, w, {}, false, 1).quantum_steps, 10u);
  w.n = 4;  // tiny step -> clamp high
  EXPECT_EQ(choose_serving(model, w, {}, false, 1).quantum_steps, 256u);
  w.n = 4'000'000;  // huge step -> clamp low
  EXPECT_EQ(choose_serving(model, w, {}, false, 1).quantum_steps, 8u);
}

// A tune row records its own knobs (skin, halo delta/coalesce, ...), so
// the HDEM_* environment of the measuring process must not reach the run:
// with every knob off in the spec, the knob variables set or unset give
// the same counters.
TEST(TuneFile, MeasuredRowIgnoresKnobEnvironment) {
  MeasureSpec s;
  s.D = 2;
  s.n = 4000;
  s.mode = MeasureSpec::Mode::kMp;
  s.nprocs = 4;
  s.velocity_scale = 12.0;  // rebuilds inside the window
  s.iterations = 8;
  Counters unset, set;
  {
    const ScopedEnv env({{"HDEM_SKIN", nullptr},
                         {"HDEM_HALO_DELTA", nullptr},
                         {"HDEM_HALO_COALESCE", nullptr},
                         {"HDEM_SHARED_HALO", nullptr},
                         {"HDEM_RANKS_PER_NODE", nullptr}});
    unset = measure_run(s).agg;
  }
  {
    const ScopedEnv env({{"HDEM_SKIN", "0.3"},
                         {"HDEM_HALO_DELTA", "1"},
                         {"HDEM_HALO_COALESCE", "1"},
                         {"HDEM_SHARED_HALO", "1"},
                         {"HDEM_RANKS_PER_NODE", "2"}});
    set = measure_run(s).agg;
  }
  EXPECT_GT(unset.rebuilds, 0u);
  EXPECT_GT(unset.bytes_sent, 0u);
  EXPECT_EQ(set.force_evals, unset.force_evals);
  EXPECT_EQ(set.rebuilds, unset.rebuilds);
  EXPECT_EQ(set.bytes_sent, unset.bytes_sent);
  EXPECT_EQ(set.halo_bytes_delta, 0u);
  EXPECT_EQ(set.msgs_shared, 0u);
}

}  // namespace
}  // namespace hdem::perf

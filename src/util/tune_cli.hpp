// Shared command-line group for the closed-loop auto-tuner, so every
// example exposes the same spelling:
//
//   --auto         consult the fitted per-phase scaling model to pick the
//                  run's knobs (inner threads, quantum, placement) instead
//                  of taking the hand-set defaults.  The model comes from
//                  --tune-file when it exists; otherwise a small sweep is
//                  measured first and saved there, so the *next* run of
//                  the same program starts from measurements — the closed
//                  loop.
//   --tune-file=P  measurement rows to fit, in the documented plain-text
//                  format of perf/tune.hpp (default:
//                  results/tune/<use>.tune)
//
// --auto only ever *selects* knobs that could equally be passed
// explicitly; it never perturbs trajectories (the sim_server --verify and
// fig15 identity gates enforce this).
#pragma once

#include <filesystem>
#include <string>

#include "perf/report.hpp"
#include "util/cli.hpp"

namespace hdem {

struct TuneCliOptions {
  bool auto_mode = false;
  std::string tune_file;  // empty: derive from `use` via tune_file_path()

  // Effective tune-file path for a given use ("serving", "hybrid", ...).
  std::string tune_file_path(const std::string& use) const {
    if (!tune_file.empty()) return tune_file;
    return (std::filesystem::path(perf::results_dir()) / "tune" /
            (use + ".tune"))
        .string();
  }
};

inline TuneCliOptions declare_tune_options(Cli& cli) {
  TuneCliOptions o;
  o.auto_mode =
      cli.flag("auto",
               "pick knobs from the fitted per-phase scaling model; sweeps "
               "and saves --tune-file first when it does not exist yet");
  o.tune_file = cli.str(
      "tune-file", "",
      "measurement rows for --auto, in the documented plain-text tune "
      "format (default results/tune/<use>.tune)");
  return o;
}

}  // namespace hdem

// The CI halo-transport matrix (.github/workflows/ci.yml) runs the
// message-passing suites under environment variables:
//
//   HDEM_SKIN=F            Verlet skin as a fraction of rc
//   HDEM_HALO_DELTA=1      delta-compressed halo frames
//   HDEM_HALO_COALESCE=1   coalesced halo frames
//   HDEM_SHARED_HALO=1     zero-copy shared-window halo path
//   HDEM_RANKS_PER_NODE=N  node packing for that path (0 = one node)
//
// No library default reads them.  This header is their only reader; the
// suites call it where a construction should follow the matrix leg.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "driver/knobs.hpp"
#include "driver/mp_sim.hpp"
#include "util/cli.hpp"
#include "util/knob_cli.hpp"
#include "util/simd.hpp"
#include "util/tune_cli.hpp"

namespace hdem {

// One matrix variable: a switch is on when its value starts with '1'; a
// number is `unset` when the variable is not set.
inline bool ci_switch(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

inline double ci_number(const char* name, double unset) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : unset;
}

// The matrix leg's knobs (defaults where a variable is unset).
inline RunKnobs ci_knobs() {
  RunKnobs k;
  k.skin_factor = ci_number("HDEM_SKIN", k.skin_factor);
  k.halo_delta = ci_switch("HDEM_HALO_DELTA");
  k.halo_coalesce = ci_switch("HDEM_HALO_COALESCE");
  k.shared_halo = ci_switch("HDEM_SHARED_HALO");
  k.ranks_per_node =
      static_cast<int>(ci_number("HDEM_RANKS_PER_NODE", k.ranks_per_node));
  return k;
}

// A default config with the leg's halo frame modes.
template <int D>
SimConfig<D> ci_config() {
  const RunKnobs k = ci_knobs();
  SimConfig<D> cfg;
  cfg.halo_delta = k.halo_delta;
  cfg.halo_coalesce = k.halo_coalesce;
  return cfg;
}

// Sets (value != nullptr) or unsets each variable for its lifetime and
// restores the previous values afterwards.
class ScopedEnv {
 public:
  ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name);
      saved_.push_back({name, old != nullptr, old != nullptr ? old : ""});
      if (value != nullptr) {
        ::setenv(name, value, 1);
      } else {
        ::unsetenv(name);
      }
    }
  }
  ~ScopedEnv() {
    for (const auto& s : saved_) {
      if (s.was_set) {
        ::setenv(s.name.c_str(), s.value.c_str(), 1);
      } else {
        ::unsetenv(s.name.c_str());
      }
    }
  }

 private:
  struct Saved {
    std::string name;
    bool was_set;
    std::string value;
  };
  std::vector<Saved> saved_;
};

// Every default a knob could take, with the process environment as it is.
struct KnobDefaults {
  SimConfig<2> config;
  MpSim<2>::Options options;
  RunKnobs knobs;
  RunKnobs flags;  // the flag groups on an empty command line
  TuneCliOptions tune;
  int simd_width = 0;  // dispatch_width() after set_dispatch_width(0)
};

inline KnobDefaults knob_defaults() {
  KnobDefaults d;
  std::string prog = "prog";
  char* argv[] = {prog.data()};
  Cli cli(1, argv);
  declare_decomp_options(cli, d.flags, {1});
  declare_steal_option(cli, d.flags);
  declare_skin_options(cli, d.flags);
  declare_halo_options(cli, d.flags);
  d.tune = declare_tune_options(cli);
  EXPECT_FALSE(cli.finish());
  simd::set_dispatch_width(0);
  d.simd_width = simd::dispatch_width();
  return d;
}

// The contract: no knob default reads the environment.  With every
// HDEM_* knob variable set to a non-default value, each default must
// equal its value with the variables unset.
inline void expect_environment_never_reaches_a_default() {
  constexpr const char* kVars[] = {
      "HDEM_SKIN",        "HDEM_HALO_DELTA",     "HDEM_HALO_COALESCE",
      "HDEM_SHARED_HALO", "HDEM_RANKS_PER_NODE", "HDEM_AUTO",
      "HDEM_TUNE_FILE",   "HDEM_SIMD_WIDTH"};
  KnobDefaults unset, set;
  {
    const ScopedEnv env({{kVars[0], nullptr}, {kVars[1], nullptr},
                         {kVars[2], nullptr}, {kVars[3], nullptr},
                         {kVars[4], nullptr}, {kVars[5], nullptr},
                         {kVars[6], nullptr}, {kVars[7], nullptr}});
    unset = knob_defaults();
  }
  {
    const ScopedEnv env({{kVars[0], "0.25"}, {kVars[1], "1"},
                         {kVars[2], "1"}, {kVars[3], "1"},
                         {kVars[4], "2"}, {kVars[5], "1"},
                         {kVars[6], "elsewhere.tune"}, {kVars[7], "1"}});
    set = knob_defaults();
  }
  simd::set_dispatch_width(0);
  EXPECT_TRUE(static_cast<const ListKnobs&>(set.config) ==
              static_cast<const ListKnobs&>(unset.config));
  EXPECT_TRUE(set.options == unset.options);
  EXPECT_TRUE(set.knobs == unset.knobs);
  EXPECT_TRUE(set.knobs == RunKnobs{});
  EXPECT_TRUE(set.flags == unset.flags);
  EXPECT_TRUE(set.flags == RunKnobs{});
  EXPECT_EQ(set.tune.auto_mode, unset.tune.auto_mode);
  EXPECT_EQ(set.tune.tune_file, unset.tune.tune_file);
  EXPECT_EQ(set.simd_width, unset.simd_width);
}

}  // namespace hdem

// Metric sink and shared clock of the benchmark.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/tracer.hpp"

namespace perfbench {

// Seconds on the hdem tracer clock: the drivers' phase events and the
// benchmark's own spans share this timeline.
inline double now() { return hdem::trace::Tracer::global().now(); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      nonfinite_ = true;
      value = -1.0;
    }
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }
  bool nonfinite() const { return nonfinite_; }

 private:
  std::vector<Metric> items_;
  bool nonfinite_ = false;
};

// Operations attempted and failed by the output checks of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok, const std::string& what,
              const std::vector<std::string>& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s:", what.c_str());
    for (std::size_t i = 0; i < why.size() && i < 4; ++i) {
      std::fprintf(stderr, " %s;", why[i].c_str());
    }
    std::fprintf(stderr, "\n");
  }
};

}  // namespace perfbench

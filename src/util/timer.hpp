// Wall-clock timing helpers for the benchmark harness.
#pragma once

#include <chrono>
#include <cstdint>

namespace hdem {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  // Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  // The same reading in whole nanoseconds (truncated), the unit of every
  // *_ns counter.
  std::uint64_t nanoseconds() const {
    return static_cast<std::uint64_t>(seconds() * 1e9);
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace hdem

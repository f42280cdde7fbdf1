#include "trace/tracer.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hdem::trace {

namespace {
double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int mute_depth = 0;
}  // namespace

Mute::Mute() { ++mute_depth; }
Mute::~Mute() { --mute_depth; }
bool Mute::active() { return mute_depth > 0; }

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kForce: return "force";
    case Phase::kUpdate: return "update";
    case Phase::kHaloSwap: return "halo-swap";
    case Phase::kHaloWait: return "halo-wait";
    case Phase::kMigrate: return "migrate";
    case Phase::kHaloBuild: return "halo-build";
    case Phase::kLinkBuild: return "link-build";
    case Phase::kBin: return "bin";
    case Phase::kLinkGen: return "link-gen";
    case Phase::kReorder: return "reorder";
    case Phase::kCollective: return "collective";
    case Phase::kIteration: return "iteration";
    case Phase::kRebalance: return "rebalance";
    case Phase::kHaloShared: return "halo-shared";
  }
  return "?";
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
  if (on) {
    epoch_ = wall_seconds();
    events_.clear();
  }
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

double Tracer::now() const { return wall_seconds() - epoch_; }

void Tracer::record(Phase phase, std::int32_t rank, double t_start,
                    double t_end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  events_.push_back({phase, rank, t_start, t_end});
}

std::vector<Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<Tracer::PhaseSummary> Tracer::summarize() const {
  std::vector<PhaseSummary> out(static_cast<std::size_t>(kPhaseCount));
  for (int p = 0; p < kPhaseCount; ++p) {
    out[static_cast<std::size_t>(p)].phase = static_cast<Phase>(p);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Event& e : events_) {
    auto& s = out[static_cast<std::size_t>(e.phase)];
    ++s.count;
    s.total_seconds += e.t_end - e.t_start;
  }
  return out;
}

std::string Tracer::summary_table() const {
  const auto sums = summarize();
  std::ostringstream os;
  os << "phase        count   total(ms)   mean(us)\n";
  os << "-------------------------------------------\n";
  for (const auto& s : sums) {
    if (s.count == 0) continue;
    char line[128];
    std::snprintf(line, sizeof line, "%-12s %6llu  %9.3f  %9.2f\n",
                  to_string(s.phase),
                  static_cast<unsigned long long>(s.count),
                  1e3 * s.total_seconds,
                  1e6 * s.total_seconds / static_cast<double>(s.count));
    os << line;
  }
  return os.str();
}

std::string Tracer::chrome_trace_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Event& e : events_) {
    if (!first) os << ",";
    first = false;
    // Complete ("X") events, microsecond timestamps, one row per rank.
    os << "\n{\"name\":\"" << to_string(e.phase) << "\",\"ph\":\"X\",\"ts\":"
       << static_cast<long long>(e.t_start * 1e6) << ",\"dur\":"
       << static_cast<long long>((e.t_end - e.t_start) * 1e6)
       << ",\"pid\":0,\"tid\":" << (e.rank < 0 ? 0 : e.rank)
       << ",\"cat\":\"hdem\"}";
  }
  os << "\n]\n";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("Tracer::write_chrome_trace: cannot open " +
                             path);
  }
  out << chrome_trace_json();
}

}  // namespace hdem::trace

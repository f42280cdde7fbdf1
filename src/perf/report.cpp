#include "perf/report.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/simd.hpp"

namespace hdem::perf {

std::string results_dir() {
  const char* env = std::getenv("HDEM_RESULTS_DIR");
  const std::string dir = env != nullptr ? env : "results";
  std::filesystem::create_directories(dir);
  return dir;
}

void save_artifact(const std::string& name, const std::string& content) {
  const std::filesystem::path path =
      std::filesystem::path(results_dir()) / name;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_artifact: cannot open " + path.string());
  out << content;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    const auto start = line.find_first_not_of(" \t", colon + 1);
    if (colon != std::string::npos && start != std::string::npos) {
      return line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace

std::string host_report() {
  std::ostringstream os;
  os << "host: " << std::thread::hardware_concurrency() << " cpu(s), "
     << cpu_model()
     << " | kernels: compiled=" << simd::isa_name(simd::kCompiledIsa)
     << ", active=" << simd::isa_name(simd::active_isa())
     << ", width=" << simd::dispatch_width();
  return os.str();
}

ReuseSummary reuse_summary(const Counters& c) {
  ReuseSummary s;
  s.iterations = c.iterations;
  s.rebuilds = c.rebuilds;
  s.rebuilds_skipped = c.rebuilds_skipped;
  s.migrations_skipped = c.migrations_skipped;
  s.halo_rebuilds_skipped = c.halo_rebuilds_skipped;
  if (c.rebuilds > 0) {
    s.mean_reuse_interval = static_cast<double>(c.iterations) /
                            static_cast<double>(c.rebuilds);
  } else if (c.iterations > 0) {
    // A window that never rebuilt served every step off one list.
    s.mean_reuse_interval = static_cast<double>(c.iterations);
  }
  return s;
}

std::string reuse_line(const ReuseSummary& s) {
  std::ostringstream os;
  os << "rebuilds=" << s.rebuilds << " skipped=" << s.rebuilds_skipped;
  if (s.migrations_skipped > 0 || s.halo_rebuilds_skipped > 0) {
    os << " (migrations=" << s.migrations_skipped
       << " halo_templates=" << s.halo_rebuilds_skipped << ")";
  }
  os.setf(std::ios::fixed);
  os.precision(1);
  os << " reuse=" << s.mean_reuse_interval << "x";
  return os.str();
}

HaloSummary halo_summary(const Counters& c) {
  HaloSummary s;
  s.iterations = c.iterations;
  if (c.iterations > 0) {
    const double steps = static_cast<double>(c.iterations);
    s.wire_bytes_per_step = static_cast<double>(c.halo_bytes_wire) / steps;
    s.wire_msgs_per_step = static_cast<double>(c.halo_msgs_wire) / steps;
    s.shared_bytes_per_step = static_cast<double>(c.bytes_shared) / steps;
    s.coalesced_per_step = static_cast<double>(c.msgs_coalesced) / steps;
  }
  s.delta_hit_rate = c.delta_hit_rate();
  return s;
}

std::string halo_line(const HaloSummary& s) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "wire=" << s.wire_bytes_per_step << "B/step in "
     << s.wire_msgs_per_step << " msgs";
  if (s.shared_bytes_per_step > 0.0) {
    os << " shared=" << s.shared_bytes_per_step << "B/step";
  }
  if (s.delta_hit_rate > 0.0) {
    os.precision(1);
    os << " hit=" << 100.0 * s.delta_hit_rate << "%";
  }
  if (s.coalesced_per_step > 0.0) {
    os << " coalesced=" << s.coalesced_per_step << "/step";
  }
  return os.str();
}

std::string serve_line(const ServeSummary& s) {
  std::ostringstream os;
  os << "jobs=" << s.jobs;
  os.setf(std::ios::fixed);
  if (s.run_seconds > 0.0) {
    os.precision(2);
    os << " (" << static_cast<double>(s.jobs) / s.run_seconds << "/s)";
  }
  os << " quanta=" << s.quanta << " steals=" << s.steals;
  os.precision(1);
  os << " overhead=" << 100.0 * s.overhead_fraction << "%";
  if (s.workers > 1) {
    os.precision(2);
    os << " balance=" << s.balance;
  }
  return os.str();
}

}  // namespace hdem::perf

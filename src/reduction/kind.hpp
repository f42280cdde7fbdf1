// The force-accumulation strategies by name (reduction/strategies.hpp
// implements them).  Kept apart so the knob set (driver/knobs.hpp) can
// name a strategy without pulling in the accumulators.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace hdem {

enum class ReductionKind : std::uint8_t {
  kAtomicAll,
  kSelectedAtomic,
  kCritical,
  kStripe,
  kTranspose,
  kNoLock,
  kColored,
};

inline constexpr std::array<ReductionKind, 7> kAllReductionKinds = {
    ReductionKind::kAtomicAll, ReductionKind::kSelectedAtomic,
    ReductionKind::kCritical,  ReductionKind::kStripe,
    ReductionKind::kTranspose, ReductionKind::kNoLock,
    ReductionKind::kColored,
};

inline const char* to_string(ReductionKind k) {
  switch (k) {
    case ReductionKind::kAtomicAll: return "atomic";
    case ReductionKind::kSelectedAtomic: return "selected-atomic";
    case ReductionKind::kCritical: return "critical";
    case ReductionKind::kStripe: return "stripe";
    case ReductionKind::kTranspose: return "transpose";
    case ReductionKind::kNoLock: return "nolock";
    case ReductionKind::kColored: return "colored";
  }
  return "?";
}

// Parse a strategy name as printed by to_string.  Returns false (leaving
// `out` untouched) for unknown names.
inline bool reduction_from_string(std::string_view name, ReductionKind& out) {
  for (const ReductionKind k : kAllReductionKinds) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace hdem

// Serial reference driver: the shared-memory driver on a one-member team
// with the colored reduction (SmpSim's defaults).  It implements the
// paper's algorithm exactly as described in Section 4:
//   create links between particles closer than cutoff rc
//   repeat
//     calculate forces across all links
//     update particle positions
//   until list is no longer valid
// with optional cell-order particle reordering at every list rebuild (the
// Section 6.3 cache optimisation) and optional permanent bonds for the
// grain examples.
#pragma once

#include "driver/smp_sim.hpp"

namespace hdem {

template <int D, class Model = ElasticSphere>
using SerialSim = SmpSim<D, Model>;

}  // namespace hdem

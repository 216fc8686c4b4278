// The serve-live request and delta script: a pure function of the seed
// and the fixed world's base snapshot.  It lives in the benchmark, not in
// the program, and it cannot produce a failing operation:
//   * what-if conduit ids are drawn below the smallest conduit count any
//     epoch of the delta script reaches (a cut renumbers conduits, so an id
//     valid in the base map can be out of range two epochs later);
//   * every delta batch is valid against the cumulative LiveMap state, and
//     each pass's batches return the map to its base state, so every pass
//     replays the same epochs' worth of state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/delta.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// Request shares of the mix, in percent of all requests.  Point reads and
/// cache hits are about 60 % of requests, so the median lies inside the
/// fast class, not on its boundary with path misses; cascades are 3 %, so
/// the 99th percentile lies inside the cascade class.
struct ServeMix {
  double path = 34.0;     ///< CityPathQuery, Zipf over city pairs
  double risk = 16.0;     ///< SharedRiskQuery, Zipf over ISPs
  double top = 14.0;      ///< TopConduitsQuery, Zipf over k in 1..64
  double hamming = 16.0;  ///< HammingNeighborsQuery, Zipf over (ISP, k in 1..8)
  double cut = 8.0;       ///< WhatIfCutQuery, 1-3 uniform conduit ids
  double dissect = 9.0;   ///< LatencyDissectionQuery, Zipf over city pairs
  double cascade = 3.0;   ///< WhatIfCascadeQuery, 1-3 uniform conduit ids
};

struct ServeScript {
  /// One pass of requests per client.
  std::vector<std::vector<intertubes::serve::Request>> requests;
  /// Client 0 applies deltas[j] right after its (j + 1) * delta_every-th
  /// request of a pass.
  std::vector<intertubes::serve::DeltaBatch> deltas;
  std::size_t delta_every = 0;
  /// Smallest conduit count of any epoch the deltas produce; every what-if
  /// conduit id is below it.
  std::size_t min_conduits = 0;
  /// Distinct cache keys the script can draw (the key space).
  std::size_t key_space = 0;
  double zipf_exponent = 0.0;
};

/// Build the script at `seed` for `clients` clients of `per_client`
/// requests each over the base snapshot `base`.  `per_client` must be a
/// multiple of 2 * delta_every so a pass ends on the base state.
ServeScript make_serve_script(std::uint64_t seed, const intertubes::serve::Snapshot& base,
                              std::size_t clients, std::size_t per_client,
                              std::size_t delta_every);

}  // namespace perfbench

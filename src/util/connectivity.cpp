#include "util/connectivity.hpp"

#include <numeric>

namespace intertubes {

void Connectivity::reset(std::size_t num_nodes) {
  IT_CHECK(num_nodes <= std::numeric_limits<std::uint32_t>::max());
  parent_.resize(num_nodes);
  std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  size_.assign(num_nodes, 1);
  num_nodes_ = num_nodes;
  components_ = num_nodes;
  connected_pairs_ = 0;
  largest_ = num_nodes == 0 ? 0 : 1;
}

double Connectivity::pair_fraction() const noexcept {
  if (num_nodes_ < 2) return 1.0;
  const double n = static_cast<double>(num_nodes_);
  return static_cast<double>(connected_pairs_) / (n * (n - 1.0) / 2.0);
}

}  // namespace intertubes

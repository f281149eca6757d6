#include "src/core/pairwise_partition.h"

#include <cstdlib>

namespace actop {

bool PairwiseConfig::BalanceAllows(double from_size, double to_size, double move_size) const {
  const double new_from = from_size - move_size;
  const double new_to = to_size + move_size;
  if (target_size >= 0.0) {
    const double lo = target_size - static_cast<double>(balance_delta) / 2.0;
    const double hi = target_size + static_cast<double>(balance_delta) / 2.0;
    // Only the bound the move pushes toward matters: the shrinking server
    // must not fall below lo, the growing one must not rise above hi. (A
    // server outside the band for the other reason is being *helped* by the
    // move.)
    return new_from >= lo && new_to <= hi;
  }
  return std::abs(new_from - new_to) <= static_cast<double>(balance_delta);
}

}  // namespace actop

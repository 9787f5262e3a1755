#include "core/tag_identity.h"

#include <algorithm>
#include <cmath>

namespace lfbs::core {

TagIdentity TagIdentity::compare(Complex candidate, Complex reference) {
  const double direct = std::abs(candidate - reference);
  const double flipped = std::abs(candidate + reference);
  const double scale = std::max(std::abs(reference), 1e-12);
  return {std::min(direct, flipped) / scale, flipped < direct};
}

}  // namespace lfbs::core

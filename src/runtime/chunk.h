#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace lfbs::runtime {

/// One block of contiguous IQ samples in flight between a SampleSource and
/// the window slicer. `first_sample` is the chunk's absolute position in
/// the capture, so a consumer can detect (and account for) samples a
/// source skipped, such as FaultInjectingSource's dropped or truncated
/// chunks: a jump in `first_sample` is a gap, which the slicer zero-fills
/// to keep the window lattice aligned with absolute time.
struct SampleChunk {
  std::uint64_t first_sample = 0;
  std::vector<Complex> samples;

  std::size_t size() const { return samples.size(); }
};

}  // namespace lfbs::runtime

#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "signal/sample_buffer.h"

namespace lfbs::signal {

/// Simple IQ capture file format, so decoded experiments can be saved and
/// replayed — and so real captures (e.g. converted from a UHD recording)
/// can be fed through the decoder unchanged.
///
/// Layout (little-endian):
///   bytes 0..7   magic "LFBSIQ1\0"
///   bytes 8..15  sample rate, IEEE-754 double
///   bytes 16..23 sample count N, uint64
///   then N interleaved float32 pairs (I, Q)
///
/// float32 payload halves the file size against the in-memory double
/// representation; backscatter dynamic range fits comfortably.
constexpr char kIqMagic[8] = {'L', 'F', 'B', 'S', 'I', 'Q', '1', '\0'};

/// What, structurally, is wrong with an LFBSIQ1 file. A malformed capture
/// is an expected runtime condition (flaky SDR recordings, interrupted
/// writes), so readers report it with a typed error a caller can switch
/// on instead of a bare invariant failure.
enum class IqError {
  kOpenFailed,  ///< file missing or unreadable
  kBadMagic,    ///< first 8 bytes are not the LFBSIQ1 magic
  kBadHeader,   ///< header truncated, or sample rate non-finite / <= 0
  kTruncated,   ///< payload shorter than the declared sample count
};

const char* to_string(IqError code);

/// Thrown by the IQ readers on a malformed or truncated capture. Derives
/// from CheckError so existing catch sites keep working; new code can
/// catch IqFormatError and inspect code().
class IqFormatError : public CheckError {
 public:
  IqFormatError(IqError code, const std::string& what)
      : CheckError(what), code_(code) {}
  IqError code() const { return code_; }

 private:
  IqError code_;
};

/// Writes a buffer to `path`. Throws CheckError on I/O failure.
void save_iq(const SampleBuffer& buffer, const std::string& path);

/// Reads a capture back. Throws IqFormatError on a missing file, bad magic,
/// malformed header, or a payload shorter than the header declares. The
/// declared count is validated against the actual file size before any
/// allocation, so a garbled header cannot trigger a huge allocation.
/// Non-finite samples load as zero (scrub_non_finite), counted by the
/// `signal.samples_scrubbed` metric.
SampleBuffer load_iq(const std::string& path);

/// Incremental LFBSIQ1 reader: parses the header on open and then hands out
/// samples chunk by chunk, so the streaming runtime can replay captures far
/// larger than memory. Throws IqFormatError on a missing file, bad magic,
/// or malformed header. A payload shorter than the declared count is
/// tolerated (streaming fail-soft): total() is clamped to what the file
/// actually holds and truncated() reports the shortfall.
class IqReader {
 public:
  explicit IqReader(const std::string& path);

  SampleRate sample_rate() const { return fs_; }
  /// Total samples available (header count, clamped to the payload size).
  std::uint64_t total() const { return total_; }
  /// Samples not yet read.
  std::uint64_t remaining() const { return total_ - position_; }
  /// True when the payload is shorter than the header declared.
  bool truncated() const { return truncated_; }
  /// Samples the header declared, before clamping.
  std::uint64_t declared() const { return declared_; }

  /// Appends up to `max_samples` samples to `out`; returns how many were
  /// read (0 at end-of-stream).
  std::size_t read(std::size_t max_samples, std::vector<Complex>& out);

 private:
  std::ifstream in_;
  SampleRate fs_ = 0.0;
  std::uint64_t total_ = 0;
  std::uint64_t declared_ = 0;
  std::uint64_t position_ = 0;
  bool truncated_ = false;
};

}  // namespace lfbs::signal

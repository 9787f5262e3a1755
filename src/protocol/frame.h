#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"

namespace lfbs::protocol {

/// Frame integrity check options. Identification frames use the EPC CRC-5;
/// data frames use CRC-16.
enum class CrcKind { kCrc5, kCrc16 };

/// On-air frame layout (§3.4, Table 1):
///
///   [anchor = 1] [payload bits] [CRC]
///
/// The anchor is a single known 1 bit at a known location; since every tag
/// idles at level 0 before its first frame, the anchor guarantees the frame
/// starts with a rising edge, which pins which IQ cluster means "+1".
struct FrameConfig {
  std::size_t payload_bits = 96;
  CrcKind crc = CrcKind::kCrc16;

  std::size_t crc_bits() const { return crc == CrcKind::kCrc5 ? 5 : 16; }
  /// Total on-air bits per frame: anchor + payload + CRC.
  std::size_t frame_bits() const { return 1 + payload_bits + crc_bits(); }
};

/// Builds the on-air bits for a payload. Requires payload.size() ==
/// config.payload_bits.
std::vector<bool> build_frame(const std::vector<bool>& payload,
                              const FrameConfig& config);

/// Result of parsing one frame's worth of received bits.
struct ParsedFrame {
  std::vector<bool> payload;
  bool anchor_ok = false;
  bool crc_ok = false;
  bool valid() const { return anchor_ok && crc_ok; }
};

/// Parses frame bits (length must equal config.frame_bits()); never throws
/// on bad data — integrity failures are reported in the flags.
ParsedFrame parse_frame(const std::vector<bool>& bits,
                        const FrameConfig& config);

/// Splits a continuous decoded bit stream into consecutive frames and
/// parses each; a trailing partial frame is dropped.
std::vector<ParsedFrame> parse_stream(const std::vector<bool>& bits,
                                      const FrameConfig& config);

/// Resynchronizing parser: scans the stream for CRC-valid frames at *any*
/// bit offset and returns the non-overlapping set, greedily left-to-right.
/// Tolerant of bit slips (e.g. at the seams of windowed decoding) at the
/// cost of the CRC's false-positive floor and one CRC per offset whose
/// anchor bit is set: frame length / 8 table steps over bits unpacked once,
/// with no allocation until a frame passes. Every offset tried counts in
/// protocol.frames_parsed, every CRC failure in protocol.frames_crc_failed.
std::vector<ParsedFrame> scan_frames(const std::vector<bool>& bits,
                                     const FrameConfig& config);

/// Content key of a parsed frame's payload: CRC-16/CCITT of the payload
/// bits in the low 16 bits, the bit length above them. Pure function of
/// the payload, so it is identical wherever the frame was decoded — the
/// payload coordinate of runtime::FrameIdentity.
std::uint64_t payload_key(const ParsedFrame& frame);

}  // namespace lfbs::protocol

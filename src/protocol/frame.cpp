#include "protocol/frame.h"

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/crc.h"

namespace lfbs::protocol {

std::vector<bool> build_frame(const std::vector<bool>& payload,
                              const FrameConfig& config) {
  LFBS_CHECK_MSG(payload.size() == config.payload_bits,
                 "payload size does not match frame config");
  std::vector<bool> bits;
  bits.reserve(config.frame_bits());
  bits.push_back(true);  // anchor
  bits.insert(bits.end(), payload.begin(), payload.end());
  const std::vector<bool> protected_bits = bits;  // anchor + payload
  const std::vector<bool> with_crc = config.crc == CrcKind::kCrc5
                                         ? append_crc5(protected_bits)
                                         : append_crc16(protected_bits);
  return with_crc;
}

ParsedFrame parse_frame(const std::vector<bool>& bits,
                        const FrameConfig& config) {
  static obs::Counter& parsed = obs::metrics().counter("protocol.frames_parsed");
  static obs::Counter& crc_failed =
      obs::metrics().counter("protocol.frames_crc_failed");
  ParsedFrame out;
  if (bits.size() != config.frame_bits()) return out;
  parsed.add();
  out.anchor_ok = bits.front();
  out.crc_ok = config.crc == CrcKind::kCrc5 ? check_crc5(bits)
                                            : check_crc16(bits);
  if (!out.crc_ok) crc_failed.add();
  out.payload.assign(bits.begin() + 1,
                     bits.begin() + 1 + static_cast<std::ptrdiff_t>(
                                            config.payload_bits));
  return out;
}

std::vector<ParsedFrame> parse_stream(const std::vector<bool>& bits,
                                      const FrameConfig& config) {
  LFBS_OBS_SPAN(span, "crc", "protocol");
  span.attr("bits", static_cast<double>(bits.size()));
  std::vector<ParsedFrame> frames;
  const std::size_t len = config.frame_bits();
  for (std::size_t begin = 0; begin + len <= bits.size(); begin += len) {
    const std::vector<bool> chunk(bits.begin() + static_cast<std::ptrdiff_t>(begin),
                                  bits.begin() + static_cast<std::ptrdiff_t>(begin + len));
    frames.push_back(parse_frame(chunk, config));
  }
  return frames;
}

std::vector<ParsedFrame> scan_frames(const std::vector<bool>& bits,
                                     const FrameConfig& config) {
  LFBS_OBS_SPAN(span, "crc", "protocol");
  span.attr("bits", static_cast<double>(bits.size()));
  static obs::Counter& parsed =
      obs::metrics().counter("protocol.frames_parsed");
  static obs::Counter& crc_failed =
      obs::metrics().counter("protocol.frames_crc_failed");
  std::vector<ParsedFrame> frames;
  const std::size_t len = config.frame_bits();
  if (bits.size() < len) return frames;
  // One bit per byte, unpacked once; each offset then checks its frame's
  // CRC residue in place (zero exactly when the CRC matches, see crc.h).
  const std::vector<std::uint8_t> unpacked(bits.begin(), bits.end());
  const std::span<const std::uint8_t> all(unpacked);
  std::uint64_t tried = 0;
  std::uint64_t failed = 0;
  std::size_t begin = 0;
  while (begin + len <= bits.size()) {
    // Cheap gate first: the anchor bit must be set.
    if (unpacked[begin] == 0) {
      ++begin;
      continue;
    }
    ++tried;
    const std::span<const std::uint8_t> frame = all.subspan(begin, len);
    const bool crc_ok = config.crc == CrcKind::kCrc5 ? crc5_epc(frame) == 0
                                                     : crc16_ccitt(frame) == 0;
    if (!crc_ok) {
      ++failed;
      ++begin;
      continue;
    }
    ParsedFrame& out = frames.emplace_back();
    out.anchor_ok = true;
    out.crc_ok = true;
    const auto payload = bits.begin() + static_cast<std::ptrdiff_t>(begin + 1);
    out.payload.assign(
        payload, payload + static_cast<std::ptrdiff_t>(config.payload_bits));
    begin += len;
  }
  parsed.add(tried);
  crc_failed.add(failed);
  return frames;
}

std::uint64_t payload_key(const ParsedFrame& frame) {
  return static_cast<std::uint64_t>(crc16_ccitt(frame.payload)) |
         (static_cast<std::uint64_t>(frame.payload.size()) << 16);
}

}  // namespace lfbs::protocol

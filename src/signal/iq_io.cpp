#include "signal/iq_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace lfbs::signal {

namespace {

constexpr std::uint64_t kSampleBytes = 2 * sizeof(float);
constexpr std::uint64_t kHeaderBytes =
    sizeof kIqMagic + sizeof(double) + sizeof(std::uint64_t);

/// Parsed and validated LFBSIQ1 header plus the payload actually present.
struct Header {
  SampleRate fs = 0.0;
  std::uint64_t declared = 0;   ///< sample count the header claims
  std::uint64_t available = 0;  ///< samples the file actually holds
};

/// Reads and validates the header, leaving `in` positioned at the payload.
/// Throws IqFormatError naming the exact structural defect.
Header read_header(std::ifstream& in, const std::string& path) {
  if (!in.good()) {
    throw IqFormatError(IqError::kOpenFailed, "cannot open IQ file: " + path);
  }
  char magic[sizeof kIqMagic];
  in.read(magic, sizeof magic);
  if (!in.good() || std::memcmp(magic, kIqMagic, sizeof magic) != 0) {
    throw IqFormatError(IqError::kBadMagic,
                        "not an LFBSIQ1 capture: " + path);
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header.fs), sizeof header.fs);
  in.read(reinterpret_cast<char*>(&header.declared), sizeof header.declared);
  if (!in.good()) {
    throw IqFormatError(IqError::kBadHeader,
                        "truncated LFBSIQ1 header: " + path);
  }
  if (!std::isfinite(header.fs) || header.fs <= 0.0) {
    throw IqFormatError(IqError::kBadHeader,
                        "malformed IQ header (bad sample rate): " + path);
  }
  // Measure the payload actually on disk before trusting the declared
  // count: a garbled count must not drive allocation or read sizes.
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(static_cast<std::streamoff>(kHeaderBytes));
  if (!in.good() || end < static_cast<std::streamoff>(kHeaderBytes)) {
    throw IqFormatError(IqError::kBadHeader,
                        "unseekable LFBSIQ1 payload: " + path);
  }
  header.available =
      (static_cast<std::uint64_t>(end) - kHeaderBytes) / kSampleBytes;
  return header;
}

}  // namespace

const char* to_string(IqError code) {
  switch (code) {
    case IqError::kOpenFailed: return "open failed";
    case IqError::kBadMagic: return "bad magic";
    case IqError::kBadHeader: return "bad header";
    case IqError::kTruncated: return "truncated payload";
  }
  return "unknown";
}

void save_iq(const SampleBuffer& buffer, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  LFBS_CHECK_MSG(out.good(), "cannot open IQ file for writing: " + path);

  out.write(kIqMagic, sizeof kIqMagic);
  const double fs = buffer.sample_rate();
  out.write(reinterpret_cast<const char*>(&fs), sizeof fs);
  const std::uint64_t count = buffer.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof count);

  std::vector<float> interleaved(2 * buffer.size());
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    interleaved[2 * i] = static_cast<float>(buffer[i].real());
    interleaved[2 * i + 1] = static_cast<float>(buffer[i].imag());
  }
  out.write(reinterpret_cast<const char*>(interleaved.data()),
            static_cast<std::streamsize>(interleaved.size() * sizeof(float)));
  LFBS_CHECK_MSG(out.good(), "short write to IQ file: " + path);
}

SampleBuffer load_iq(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const Header header = read_header(in, path);
  // The whole-file loader is strict: every declared sample must be present.
  if (header.available < header.declared) {
    throw IqFormatError(
        IqError::kTruncated,
        "truncated IQ payload: " + path + " declares " +
            std::to_string(header.declared) + " samples, holds " +
            std::to_string(header.available));
  }
  const auto count = static_cast<std::size_t>(header.declared);

  std::vector<float> interleaved(2 * count);
  in.read(reinterpret_cast<char*>(interleaved.data()),
          static_cast<std::streamsize>(interleaved.size() * sizeof(float)));
  if (!in.good() && count != 0) {
    throw IqFormatError(IqError::kTruncated,
                        "truncated IQ payload: " + path);
  }

  std::vector<Complex> samples(count);
  for (std::size_t i = 0; i < count; ++i) {
    samples[i] = {static_cast<double>(interleaved[2 * i]),
                  static_cast<double>(interleaved[2 * i + 1])};
  }
  if (const std::size_t scrubbed = scrub_non_finite(samples); scrubbed > 0) {
    static obs::Counter& scrub_counter =
        obs::metrics().counter("signal.samples_scrubbed");
    scrub_counter.add(scrubbed);
  }
  return SampleBuffer(header.fs, std::move(samples));
}

IqReader::IqReader(const std::string& path) : in_(path, std::ios::binary) {
  const Header header = read_header(in_, path);
  fs_ = header.fs;
  declared_ = header.declared;
  // The streaming reader fails soft on truncation: it serves the samples
  // that exist and flags the shortfall, so a partially recorded capture
  // still replays up to the point the recording died.
  total_ = std::min(header.declared, header.available);
  truncated_ = header.available < header.declared;
}

std::size_t IqReader::read(std::size_t max_samples, std::vector<Complex>& out) {
  const std::uint64_t want =
      std::min<std::uint64_t>(max_samples, remaining());
  if (want == 0) return 0;
  std::vector<float> interleaved(2 * want);
  in_.read(reinterpret_cast<char*>(interleaved.data()),
           static_cast<std::streamsize>(interleaved.size() * sizeof(float)));
  // A truncated file yields whatever was present; gcount is always even
  // pairs short of the request by at most one partial sample, which we drop.
  const auto floats_read =
      static_cast<std::size_t>(in_.gcount()) / sizeof(float);
  const std::size_t got = floats_read / 2;
  out.reserve(out.size() + got);
  for (std::size_t i = 0; i < got; ++i) {
    out.emplace_back(static_cast<double>(interleaved[2 * i]),
                     static_cast<double>(interleaved[2 * i + 1]));
  }
  position_ += got;
  if (got < want) total_ = position_;  // truncated: clamp to what exists
  return got;
}

}  // namespace lfbs::signal

#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/chunk.h"
#include "signal/iq_io.h"
#include "signal/sample_buffer.h"

namespace lfbs::sim {
class Scenario;
}

namespace lfbs::runtime {

/// Thrown by SampleSource::next_chunk when a read fails. `transient()`
/// separates faults worth retrying (a flaky SDR link hiccup, an EAGAIN-ish
/// condition) from fatal ones (device gone); the runtime's supervisor
/// retries transient errors with exponential backoff and fails the run
/// cleanly — never by crashing — on fatal or persistent ones.
class SourceError : public std::runtime_error {
 public:
  explicit SourceError(const std::string& what, bool transient = true)
      : std::runtime_error(what), transient_(transient) {}
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Where the runtime's samples come from. Implementations are pulled from
/// the producer thread only (single consumer of the source); `next_chunk`
/// returns std::nullopt at end-of-stream and may throw SourceError on a
/// failed read (retried by the supervisor when transient). A live
/// deployment would add an SDR-backed source; everything downstream is
/// source-agnostic.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  virtual SampleRate sample_rate() const = 0;
  virtual std::optional<SampleChunk> next_chunk() = 0;
};

/// In-memory capture, served in fixed-size chunks. The buffer is borrowed:
/// the caller keeps it alive for the source's lifetime. This is the test
/// source, and what DecodeRuntime::decode streams an in-memory capture
/// through.
class MemorySource : public SampleSource {
 public:
  MemorySource(const signal::SampleBuffer& buffer, std::size_t chunk_samples);

  SampleRate sample_rate() const override;
  std::optional<SampleChunk> next_chunk() override;

 private:
  const signal::SampleBuffer& buffer_;
  std::size_t chunk_samples_;
  std::size_t position_ = 0;
};

/// LFBSIQ1 file replay via the incremental signal::IqReader — captures far
/// larger than memory stream through without ever being fully resident.
/// Construction throws signal::IqFormatError on a malformed file; a
/// truncated payload streams what exists and reports `truncated()`.
class IqFileSource : public SampleSource {
 public:
  IqFileSource(const std::string& path, std::size_t chunk_samples);

  SampleRate sample_rate() const override;
  std::optional<SampleChunk> next_chunk() override;
  std::uint64_t total_samples() const { return reader_.total(); }
  bool truncated() const { return reader_.truncated(); }
  std::uint64_t declared_samples() const { return reader_.declared(); }

 private:
  signal::IqReader reader_;
  std::size_t chunk_samples_;
  std::uint64_t position_ = 0;
};

/// Live synthetic capture: tags in a sim::Scenario stream random payload
/// frames, epoch after epoch, and the resulting air capture is chunked out.
/// Every payload put on the air is recorded so a consumer can score
/// end-to-end recovery. Generation happens lazily inside next_chunk (on
/// the producer thread), so capture synthesis overlaps decode.
class ScenarioSource : public SampleSource {
 public:
  struct Config {
    std::size_t epochs = 4;
    std::size_t frames_per_tag = 1;
    /// §3.6 rate command applied to listening tags; 0 = no cap.
    BitRate max_rate = 0.0;
    std::size_t chunk_samples = 1 << 16;
  };

  /// The scenario and rng are borrowed and touched only from next_chunk.
  ScenarioSource(sim::Scenario& scenario, Rng& rng, Config config);
  ~ScenarioSource() override;

  SampleRate sample_rate() const override;
  std::optional<SampleChunk> next_chunk() override;

  /// All payloads transmitted so far, across tags and epochs.
  const std::vector<std::vector<bool>>& sent_payloads() const {
    return sent_payloads_;
  }

 private:
  sim::Scenario& scenario_;
  Rng& rng_;
  Config config_;
  std::size_t epochs_generated_ = 0;
  signal::SampleBuffer current_;
  std::size_t position_in_current_ = 0;
  std::uint64_t absolute_position_ = 0;
  std::vector<std::vector<bool>> sent_payloads_;
};

}  // namespace lfbs::runtime

#include "runtime/fault_injector.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/kv_spec.h"

namespace lfbs::runtime {

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  for (const KvField& field : parse_kv_spec(spec)) {
    if (field.key == "seed") {
      plan.seed = kv_u64(field);
    } else if (field.key == "drop") {
      plan.drop_chunk = kv_probability(field);
    } else if (field.key == "truncate") {
      plan.truncate_chunk = kv_probability(field);
    } else if (field.key == "corrupt") {
      plan.corrupt_sample = kv_probability(field);
    } else if (field.key == "stall") {
      plan.stall = kv_probability(field);
    } else if (field.key == "stall-ms") {
      plan.stall_duration = kv_millis(field);
    } else if (field.key == "error") {
      plan.transient_error = kv_probability(field);
    } else if (field.key == "eof") {
      plan.premature_eof = kv_probability(field);
    } else {
      bad_key(field, "fault");
    }
  }
  return plan;
}

FaultInjectingSource::FaultInjectingSource(SampleSource& inner, FaultPlan plan)
    : inner_(inner), plan_(plan), rng_(plan.seed) {}

SampleRate FaultInjectingSource::sample_rate() const {
  return inner_.sample_rate();
}

void FaultInjectingSource::corrupt(SampleChunk& chunk) {
  for (auto& sample : chunk.samples) {
    if (!rng_.bernoulli(plan_.corrupt_sample)) continue;
    ++stats_.samples_corrupted;
    const bool imag_half = rng_.bernoulli(0.5);
    double value = imag_half ? sample.imag() : sample.real();
    switch (rng_.uniform_u64(4)) {
      case 0: {
        // A single bit flip in the float32 wire image — what a corrupted
        // transfer of an LFBSIQ1 payload would actually deliver.
        auto wire = static_cast<float>(value);
        std::uint32_t bits = 0;
        std::memcpy(&bits, &wire, sizeof bits);
        bits ^= std::uint32_t{1} << rng_.uniform_u64(32);
        std::memcpy(&wire, &bits, sizeof wire);
        value = static_cast<double>(wire);
        break;
      }
      case 1:
        value = std::numeric_limits<double>::quiet_NaN();
        break;
      case 2:
        value = rng_.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                    : -std::numeric_limits<double>::infinity();
        break;
      default:
        // Rail saturation: the ADC pinned at full scale.
        value = rng_.bernoulli(0.5) ? 10.0 : -10.0;
        break;
    }
    if (!std::isfinite(value)) ++stats_.samples_non_finite;
    if (imag_half) {
      sample = {sample.real(), value};
    } else {
      sample = {value, sample.imag()};
    }
  }
}

std::optional<SampleChunk> FaultInjectingSource::next_chunk() {
  if (eof_) return std::nullopt;
  // Pre-read faults first, so a supervised retry after a transient error
  // re-reads the very same data from the inner source.
  if (plan_.transient_error > 0.0 && rng_.bernoulli(plan_.transient_error)) {
    ++stats_.errors_thrown;
    throw SourceError("injected transient read error", /*transient=*/true);
  }
  if (plan_.stall > 0.0 && rng_.bernoulli(plan_.stall)) {
    ++stats_.stalls;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(plan_.stall_duration));
  }
  if (plan_.premature_eof > 0.0 && rng_.bernoulli(plan_.premature_eof)) {
    ++stats_.premature_eofs;
    eof_ = true;
    return std::nullopt;
  }
  for (;;) {
    auto chunk = inner_.next_chunk();
    if (!chunk) return std::nullopt;
    if (plan_.drop_chunk > 0.0 && rng_.bernoulli(plan_.drop_chunk)) {
      ++stats_.chunks_dropped;
      continue;  // the next chunk's first_sample exposes the gap
    }
    if (plan_.truncate_chunk > 0.0 && chunk->size() > 1 &&
        rng_.bernoulli(plan_.truncate_chunk)) {
      const auto keep = static_cast<std::size_t>(
          1 + rng_.uniform_u64(chunk->size() - 1));
      ++stats_.chunks_truncated;
      stats_.samples_truncated += chunk->size() - keep;
      chunk->samples.resize(keep);
    }
    if (plan_.corrupt_sample > 0.0) corrupt(*chunk);
    return chunk;
  }
}

}  // namespace lfbs::runtime

#include "runtime/supervisor.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/events.h"
#include "obs/metrics.h"
#include "signal/sample_buffer.h"

namespace lfbs::runtime {

Supervisor::Supervisor(const std::atomic<bool>* stop_flag)
    : stop_flag_(stop_flag) {}

bool Supervisor::stop_requested() const {
  return stop_flag_ != nullptr &&
         stop_flag_->load(std::memory_order_relaxed);
}

std::optional<SampleChunk> Supervisor::next_chunk(SampleSource& source) {
  Seconds backoff = kRetryBackoffInitial;
  for (std::size_t attempt = 0;; ++attempt) {
    if (stop_requested()) {
      stopped_.store(true);
      return std::nullopt;
    }
    if (attempt > 0) {
      source_retries_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& retries =
          obs::metrics().counter("supervisor.source_retries");
      retries.add();
    }
    try {
      std::optional<SampleChunk> chunk = source.next_chunk();
      // A source that watches the stop flag itself (net::RemoteIqSource)
      // ends its stream on it.
      if (!chunk && stop_requested()) stopped_.store(true);
      return chunk;
    } catch (const SourceError& e) {
      source_transient_errors_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& transient_errors =
          obs::metrics().counter("supervisor.source_transient_errors");
      transient_errors.add();
      if (!e.transient() || attempt >= kMaxSourceRetries) {
        source_failures_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("supervisor.source_failures").add();
        fail();
        return std::nullopt;
      }
      degrade();
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, kRetryBackoffMax);
    } catch (const std::exception&) {
      // Anything else out of a source is unrecoverable by construction.
      source_failures_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("supervisor.source_failures").add();
      fail();
      return std::nullopt;
    }
  }
}

void Supervisor::scrub(SampleChunk& chunk) {
  const std::uint64_t scrubbed = signal::scrub_non_finite(chunk.samples);
  if (scrubbed > 0) {
    samples_scrubbed_.fetch_add(scrubbed, std::memory_order_relaxed);
    static obs::Counter& scrub_counter =
        obs::metrics().counter("supervisor.samples_scrubbed");
    scrub_counter.add(scrubbed);
    degrade();
  }
}

void Supervisor::record_worker_exception() {
  worker_exceptions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("supervisor.worker_exceptions").add();
  degrade();
}

void Supervisor::record_subscriber_exceptions(std::size_t count) {
  if (count == 0) return;
  subscriber_exceptions_.fetch_add(count, std::memory_order_relaxed);
  obs::metrics().counter("supervisor.subscriber_exceptions").add(count);
  degrade();
}

void Supervisor::record_data_loss() {
  obs::metrics().counter("supervisor.data_loss").add();
  degrade();
}

void Supervisor::record_low_confidence(std::size_t count) {
  if (count == 0) return;
  low_confidence_streams_.fetch_add(count, std::memory_order_relaxed);
  obs::metrics().counter("supervisor.low_confidence_streams").add(count);
  degrade();
}

void Supervisor::record_worker_lost(std::size_t outstanding) {
  workers_lost_.fetch_add(1, std::memory_order_relaxed);
  windows_reassigned_.fetch_add(outstanding, std::memory_order_relaxed);
  degrade();
}

void Supervisor::degrade() {
  int expected = static_cast<int>(HealthState::kHealthy);
  // Emit the transition event only when this call actually moved the
  // state — degrade() fires on every fault, transitions are rare.
  if (health_.compare_exchange_strong(
          expected, static_cast<int>(HealthState::kDegraded))) {
    obs::metrics().counter("supervisor.degraded_transitions").add();
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("health", {obs::Field::str("from", "healthy"),
                           obs::Field::str("to", "degraded")});
    }
  }
}

void Supervisor::fail() {
  const int prev = health_.exchange(static_cast<int>(HealthState::kFailed));
  if (prev != static_cast<int>(HealthState::kFailed)) {
    obs::metrics().counter("supervisor.failed_transitions").add();
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("health",
                {obs::Field::str("from",
                                 to_string(static_cast<HealthState>(prev))),
                 obs::Field::str("to", "failed")});
    }
  }
}

FaultCounters Supervisor::counters() const {
  FaultCounters out;
  out.source_transient_errors = source_transient_errors_.load();
  out.source_retries = source_retries_.load();
  out.source_failures = source_failures_.load();
  out.worker_exceptions = worker_exceptions_.load();
  out.subscriber_exceptions = subscriber_exceptions_.load();
  out.samples_scrubbed = samples_scrubbed_.load();
  out.low_confidence_streams = low_confidence_streams_.load();
  out.workers_lost = workers_lost_.load();
  out.windows_reassigned = windows_reassigned_.load();
  return out;
}

}  // namespace lfbs::runtime

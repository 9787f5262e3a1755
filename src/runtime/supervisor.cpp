#include "runtime/supervisor.h"

#include <algorithm>
#include <chrono>

#include "obs/events.h"
#include "obs/metrics.h"
#include "signal/sample_buffer.h"

namespace lfbs::runtime {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config, std::size_t workers)
    : config_(std::move(config)), slots_(1 + workers) {}

Supervisor::~Supervisor() { stop(); }

Supervisor::ScopedActivity::ScopedActivity(Supervisor& supervisor,
                                           std::size_t slot)
    : supervisor_(supervisor), slot_(slot) {
  supervisor_.slots_[slot_].busy_since_ns.store(now_ns(),
                                               std::memory_order_release);
}

Supervisor::ScopedActivity::~ScopedActivity() {
  auto& slot = supervisor_.slots_[slot_];
  slot.busy_since_ns.store(-1, std::memory_order_release);
  slot.flagged.store(false, std::memory_order_release);
}

void Supervisor::start() {
  watchdog_ = std::thread([this] { watch(); });
}

void Supervisor::stop() {
  {
    std::lock_guard lock(watchdog_mutex_);
    stop_requested_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void Supervisor::watch() {
  // Poll at a quarter of the tightest timeout so a stall is flagged soon
  // after it crosses the line, clamped to keep the thread near-idle.
  const Seconds tightest =
      std::min(config_.source_stall_timeout, config_.worker_stall_timeout);
  const auto interval = std::chrono::duration<double>(
      std::clamp(tightest / 4.0, 0.5e-3, 250e-3));
  std::unique_lock lock(watchdog_mutex_);
  while (!stop_requested_) {
    watchdog_cv_.wait_for(lock, interval, [&] { return stop_requested_; });
    if (stop_requested_) break;
    const std::int64_t now = now_ns();
    check_slot(slots_[0], config_.source_stall_timeout, source_stalls_, now);
    for (std::size_t w = 1; w < slots_.size(); ++w) {
      check_slot(slots_[w], config_.worker_stall_timeout, worker_stalls_,
                 now);
    }
  }
}

void Supervisor::check_slot(Slot& slot, Seconds timeout,
                            std::atomic<std::size_t>& counter,
                            std::int64_t now) {
  const std::int64_t busy_since =
      slot.busy_since_ns.load(std::memory_order_acquire);
  if (busy_since < 0) return;
  if (static_cast<double>(now - busy_since) < timeout * 1e9) return;
  // Count each stall episode once; the flag clears when the slot idles.
  if (!slot.flagged.exchange(true, std::memory_order_acq_rel)) {
    counter.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("supervisor.stalls").add();
    degrade();
  }
}

std::optional<SampleChunk> Supervisor::next_chunk(SampleSource& source) {
  Seconds backoff = config_.retry_backoff_initial;
  std::size_t attempts = 0;
  for (;;) {
    try {
      auto activity = track_source();
      return source.next_chunk();
    } catch (const SourceError& e) {
      source_transient_errors_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& transient_errors =
          obs::metrics().counter("supervisor.source_transient_errors");
      transient_errors.add();
      if (!e.transient() || attempts >= config_.max_source_retries) {
        source_failures_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("supervisor.source_failures").add();
        fail();
        return std::nullopt;
      }
      ++attempts;
      source_retries_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& retries =
          obs::metrics().counter("supervisor.source_retries");
      retries.add();
      degrade();
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, config_.retry_backoff_max);
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
  out.source_stalls = source_stalls_.load();
  out.worker_stalls = worker_stalls_.load();
  out.worker_exceptions = worker_exceptions_.load();
  out.subscriber_exceptions = subscriber_exceptions_.load();
  out.samples_scrubbed = samples_scrubbed_.load();
  out.low_confidence_streams = low_confidence_streams_.load();
  out.workers_lost = workers_lost_.load();
  out.windows_reassigned = windows_reassigned_.load();
  return out;
}

}  // namespace lfbs::runtime

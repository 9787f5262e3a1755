#include "net/chaos/chaos.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/kv_spec.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net {

namespace {

std::atomic<ChaosEngine*> g_engine{nullptr};

Seconds mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void emit_fault(const char* what, int fd) {
  obs::metrics().counter(std::string("chaos.") + what).add(1);
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("chaos", {obs::Field::str("fault", what),
                        obs::Field::integer("fd", fd)});
  }
}

}  // namespace

ChaosConfig parse_chaos_config(const std::string& spec) {
  ChaosConfig config;
  for (const KvField& field : parse_kv_spec(spec)) {
    if (field.key == "seed") {
      config.seed = kv_u64(field);
    } else if (field.key == "refuse") {
      config.refuse = kv_probability(field);
    } else if (field.key == "refuse-first") {
      config.refuse_first = kv_u64(field);
    } else if (field.key == "reset") {
      config.reset = kv_probability(field);
    } else if (field.key == "reset-limit") {
      config.reset_limit = kv_u64(field);
    } else if (field.key == "reset-skip") {
      config.reset_skip = kv_u64(field);
    } else if (field.key == "stall") {
      config.stall = kv_probability(field);
    } else if (field.key == "stall-ms") {
      config.stall_duration = kv_millis(field);
    } else if (field.key == "partition-in") {
      config.partition_in = kv_probability(field);
    } else if (field.key == "partition-out") {
      config.partition_out = kv_probability(field);
    } else if (field.key == "partition-ms") {
      config.partition_duration = kv_millis(field);
    } else if (field.key == "truncate") {
      config.truncate = kv_probability(field);
    } else if (field.key == "corrupt") {
      config.corrupt = kv_probability(field);
    } else if (field.key == "delay") {
      config.delay = kv_probability(field);
    } else if (field.key == "delay-ms") {
      config.delay_base = kv_millis(field);
    } else if (field.key == "jitter-ms") {
      config.delay_jitter = kv_millis(field);
    } else if (field.key == "scope") {
      if (field.value == "connect") {
        config.on_connect = true;
        config.on_accept = false;
      } else if (field.value == "accept") {
        config.on_connect = false;
        config.on_accept = true;
      } else if (field.value == "both") {
        config.on_connect = true;
        config.on_accept = true;
      } else {
        bad_value(field, "connect, accept or both");
      }
    } else {
      bad_key(field, "chaos");
    }
  }
  return config;
}

ChaosEngine::ChaosEngine(ChaosConfig config)
    : config_(config), rng_(config.seed) {}

ChaosStats ChaosEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ChaosEngine::connect_refused(const std::string& where) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool refuse = false;
  if (connect_attempts_ < config_.refuse_first) {
    refuse = true;
  } else if (config_.refuse > 0.0 && rng_.bernoulli(config_.refuse)) {
    refuse = true;
  }
  ++connect_attempts_;
  if (refuse) {
    ++stats_.connects_refused;
    emit_fault("connects_refused", -1);
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("chaos", {obs::Field::str("fault", "refuse"),
                          obs::Field::str("peer", where)});
    }
  }
  return refuse;
}

void ChaosEngine::track(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  fds_[fd] = ChaosSocket{};
  ++stats_.fds_tracked;
}

void ChaosEngine::untrack(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  fds_.erase(fd);
}

Seconds ChaosEngine::delay_draw_locked() {
  Seconds d = config_.delay_base;
  if (config_.delay_jitter > 0.0) d += rng_.uniform(0.0, config_.delay_jitter);
  return d;
}

ChaosEngine::Verdict ChaosEngine::before_read(int fd, std::size_t& n) {
  Seconds sleep_for = 0.0;
  Verdict verdict = Verdict::kPass;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) return Verdict::kPass;
    ChaosSocket& s = it->second;
    if (s.dead) return Verdict::kDead;
    const Seconds now = mono_now();
    if (now < s.stall_until || now < s.in_until) return Verdict::kBlocked;
    // Fixed draw order (delay, reset, stall, partition, truncate) so a
    // seed replays the same schedule over the same op sequence.
    if (config_.delay > 0.0 && rng_.bernoulli(config_.delay)) {
      ++stats_.delays;
      emit_fault("delays", fd);
      sleep_for = delay_draw_locked();
    }
    if (config_.reset > 0.0 && stats_.resets < config_.reset_limit &&
        rng_.bernoulli(config_.reset) &&
        resets_skipped_++ >= config_.reset_skip) {
      s.dead = true;
      ++stats_.resets;
      emit_fault("resets", fd);
      verdict = Verdict::kDead;
    } else if (config_.stall > 0.0 && rng_.bernoulli(config_.stall)) {
      s.stall_until = now + config_.stall_duration;
      ++stats_.stalls;
      emit_fault("stalls", fd);
      verdict = Verdict::kBlocked;
    } else if (config_.partition_in > 0.0 &&
               rng_.bernoulli(config_.partition_in)) {
      s.in_until = now + config_.partition_duration;
      ++stats_.partitions;
      emit_fault("partitions", fd);
      verdict = Verdict::kBlocked;
    } else if (config_.truncate > 0.0 && n > 1 &&
               rng_.bernoulli(config_.truncate)) {
      n = static_cast<std::size_t>(1 + rng_.uniform_u64(n - 1));
      ++stats_.truncations;
      emit_fault("truncations", fd);
    }
  }
  if (sleep_for > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_for));
  }
  return verdict;
}

ChaosEngine::Verdict ChaosEngine::before_write(int fd, std::size_t& n) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Verdict::kPass;
  ChaosSocket& s = it->second;
  if (s.dead) return Verdict::kDead;
  const Seconds now = mono_now();
  if (now < s.stall_until || now < s.out_until) return Verdict::kBlocked;
  if (config_.reset > 0.0 && stats_.resets < config_.reset_limit &&
      rng_.bernoulli(config_.reset) &&
      resets_skipped_++ >= config_.reset_skip) {
    s.dead = true;
    ++stats_.resets;
    emit_fault("resets", fd);
    return Verdict::kDead;
  }
  if (config_.stall > 0.0 && rng_.bernoulli(config_.stall)) {
    s.stall_until = now + config_.stall_duration;
    ++stats_.stalls;
    emit_fault("stalls", fd);
    return Verdict::kBlocked;
  }
  if (config_.partition_out > 0.0 && rng_.bernoulli(config_.partition_out)) {
    s.out_until = now + config_.partition_duration;
    ++stats_.partitions;
    emit_fault("partitions", fd);
    return Verdict::kBlocked;
  }
  if (config_.truncate > 0.0 && n > 1 && rng_.bernoulli(config_.truncate)) {
    n = static_cast<std::size_t>(1 + rng_.uniform_u64(n - 1));
    ++stats_.truncations;
    emit_fault("truncations", fd);
  }
  return Verdict::kPass;
}

void ChaosEngine::after_read(int fd, std::uint8_t* buf, std::size_t n) {
  if (config_.corrupt <= 0.0 || n == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (fds_.find(fd) == fds_.end()) return;
  if (!rng_.bernoulli(config_.corrupt)) return;
  const std::uint64_t bit = rng_.uniform_u64(std::uint64_t{n} * 8);
  buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  ++stats_.corruptions;
  emit_fault("corruptions", fd);
}

bool ChaosEngine::mask_poll(int fd, bool& readable, bool& writable) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  const ChaosSocket& s = it->second;
  if (s.dead) return false;  // let the owner read the EOF and clean up
  const Seconds now = mono_now();
  bool masked = false;
  if (readable && (now < s.stall_until || now < s.in_until)) {
    readable = false;
    masked = true;
  }
  if (writable && (now < s.stall_until || now < s.out_until)) {
    writable = false;
    masked = true;
  }
  return masked;
}

void set_chaos_engine(ChaosEngine* engine) {
  g_engine.store(engine, std::memory_order_release);
}

ChaosEngine* chaos_engine() {
  return g_engine.load(std::memory_order_acquire);
}

}  // namespace lfbs::net

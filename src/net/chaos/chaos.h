#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/units.h"

namespace lfbs::net {

/// Declarative fault schedule for the socket layer — the wire-level sibling
/// of runtime::FaultPlan. Every probability is a per-event draw from one
/// seeded Rng, so a given (config, workload) pair replays the exact same
/// fault sequence: chaos drills are as reproducible as fault-free runs. A
/// default config (all probabilities zero) injects nothing, and when no
/// ChaosEngine is installed the socket layer pays one relaxed atomic load.
///
/// Faults are drawn per I/O operation on *tracked* connections only (see
/// `scope`): listeners, wake pipes, and untracked peers are never touched.
struct ChaosConfig {
  std::uint64_t seed = 1;

  // --- connection-level --------------------------------------------------
  /// P(a connect() attempt is refused outright) — the dial never reaches
  /// the network. The caller sees SocketError, like ECONNREFUSED.
  double refuse = 0.0;
  /// Refuse the first N connect attempts deterministically (then fall back
  /// to `refuse`). Exact-count replay for backoff tests.
  std::uint64_t refuse_first = 0;

  // --- per-I/O-operation -------------------------------------------------
  /// P(an op kills the connection) — both directions read as EOF from then
  /// on, like a peer reset. The owner notices death exactly as it would a
  /// real one.
  double reset = 0.0;
  /// Engine-wide cap on injected resets; ~0 = unlimited. reset=1,
  /// reset-limit=1 kills exactly the first connection that performs I/O —
  /// the deterministic "kill one worker mid-run" switch.
  std::uint64_t reset_limit = ~std::uint64_t{0};
  /// Swallow the first N resets that would have fired before injecting
  /// any. With reset=1 this pins the kill to I/O op N+1 exactly — e.g.
  /// reset=1,reset-skip=2,reset-limit=1 lets a 2-link pool finish its
  /// (deliberately strict) handshake writes and then kills the next op's
  /// connection, mid-run, deterministically.
  std::uint64_t reset_skip = 0;
  /// P(an op opens a silence window: reads and writes both report
  /// would-block, poll readiness is masked, until the window expires).
  double stall = 0.0;
  Seconds stall_duration = 20e-3;
  /// One-way partitions: same silence mechanism but only the inbound half
  /// (reads, drawn on read ops) or outbound half (writes, on write ops).
  double partition_in = 0.0;
  double partition_out = 0.0;
  Seconds partition_duration = 50e-3;
  /// P(a read/write is capped to a random prefix) — short transfers. The
  /// byte stream itself stays intact, so this alone is end-to-end
  /// transparent to any caller that handles partial I/O correctly.
  double truncate = 0.0;
  /// P(one random bit of a completed read is flipped) — wire corruption.
  /// Surfaces downstream as WireFormatError / garbage payload.
  double corrupt = 0.0;
  /// P(a real sleep of delay_base + U[0, delay_jitter) before a read) —
  /// added latency.
  double delay = 0.0;
  Seconds delay_base = 1e-3;
  Seconds delay_jitter = 0.0;

  // --- scope -------------------------------------------------------------
  /// Which side of the socket layer gets tracked. Default connect-side
  /// only: in-process tests and the soak harness chaos the *client* fds
  /// (tailer, relay upstream links, shard coordinator links) while the
  /// servers they talk to stay clean, so every fault is attributable.
  bool on_connect = true;
  bool on_accept = false;

  bool enabled() const {
    return refuse > 0.0 || refuse_first > 0 || reset > 0.0 || stall > 0.0 ||
           partition_in > 0.0 || partition_out > 0.0 || truncate > 0.0 ||
           corrupt > 0.0 || delay > 0.0;
  }
};

/// Parses a comma-separated "key=value" chaos spec — the same grammar as
/// `--inject-faults` (common/kv_spec.h), e.g.
///   "seed=7,refuse=0.05,reset=0.002,stall=0.01,stall-ms=30,truncate=0.02,
///    corrupt=0.001,delay=0.05,delay-ms=2,jitter-ms=3,partition-in=0.005,
///    partition-ms=50,scope=connect"
/// Keys: seed, refuse, refuse-first, reset, reset-limit, reset-skip,
/// stall, stall-ms, partition-in, partition-out, partition-ms, truncate,
/// corrupt, delay, delay-ms, jitter-ms, scope=connect|accept|both.
/// Probabilities lie in [0, 1] and durations (-ms) are ≥ 0; anything else
/// throws SpecParseError (CLIs report it as a usage error).
ChaosConfig parse_chaos_config(const std::string& spec);

/// Ground truth of what the engine injected — tests replay a seed and
/// assert this matches, and the soak harness folds it into its summary.
struct ChaosStats {
  std::uint64_t connects_refused = 0;
  std::uint64_t resets = 0;
  std::uint64_t stalls = 0;
  std::uint64_t partitions = 0;
  std::uint64_t truncations = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t delays = 0;
  std::uint64_t fds_tracked = 0;
  std::uint64_t faults() const {
    return connects_refused + resets + stalls + partitions + truncations +
           corruptions + delays;
  }
};

/// Per-socket chaos state: one tracked fd's open fault windows.
struct ChaosSocket {
  bool dead = false;           ///< reset injected: all I/O reads as EOF
  Seconds stall_until = 0.0;   ///< both directions silent until then
  Seconds in_until = 0.0;      ///< inbound partition window
  Seconds out_until = 0.0;     ///< outbound partition window
};

/// The seeded fault injector the socket layer consults. One engine serves
/// the whole process (install with ChaosScope); a single mutex-protected
/// Rng makes the decision schedule a pure function of the op sequence —
/// single-threaded workloads replay bit-exactly, multi-threaded ones are
/// deterministic per interleaving. Faults are counted in ChaosStats,
/// mirrored to chaos.* metrics, and emitted as "chaos" events.
class ChaosEngine {
 public:
  explicit ChaosEngine(ChaosConfig config);

  const ChaosConfig& config() const { return config_; }
  ChaosStats stats() const;

  // --- hooks (called by net/socket.cpp; not part of the public API) -----
  /// Draw for one connect() attempt; true = refuse (caller throws).
  bool connect_refused(const std::string& where);
  /// Begin tracking an established fd (connect- or accept-side).
  void track(int fd);
  /// Stop tracking (fd closed). Safe on untracked fds.
  void untrack(int fd);
  enum class Verdict { kPass, kBlocked, kDead };
  /// Pre-read gate: may sleep (delay), open fault windows, kill the
  /// connection, or cap n (truncate). kPass falls through to the real read.
  Verdict before_read(int fd, std::size_t& n);
  /// Pre-write gate: same contract, outbound windows.
  Verdict before_write(int fd, std::size_t& n);
  /// Post-read corruption: may flip one bit of buf[0..n).
  void after_read(int fd, std::uint8_t* buf, std::size_t n);
  /// Poll masking: clears readable/writable for fds inside a stall or
  /// partition window so event loops don't see readiness the I/O gates
  /// would refuse. Returns true when anything was masked (poll_fds then
  /// naps ~1 ms to avoid a hot spin while the window runs down).
  bool mask_poll(int fd, bool& readable, bool& writable);

 private:
  Seconds delay_draw_locked();

  ChaosConfig config_;
  mutable std::mutex mutex_;
  Rng rng_;
  ChaosStats stats_;
  std::uint64_t connect_attempts_ = 0;
  std::uint64_t resets_skipped_ = 0;
  std::unordered_map<int, ChaosSocket> fds_;
};

/// Process-global engine the socket layer consults (nullptr = chaos off,
/// the default). Like obs::set_tracer: the caller owns the engine and must
/// keep it alive while installed.
void set_chaos_engine(ChaosEngine* engine);
ChaosEngine* chaos_engine();

/// RAII install/uninstall of the global engine.
class ChaosScope {
 public:
  explicit ChaosScope(ChaosEngine& engine) { set_chaos_engine(&engine); }
  ~ChaosScope() { set_chaos_engine(nullptr); }
  ChaosScope(const ChaosScope&) = delete;
  ChaosScope& operator=(const ChaosScope&) = delete;
};

}  // namespace lfbs::net

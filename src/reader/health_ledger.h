#pragma once

#include <cstddef>
#include <vector>

#include "core/lf_decoder.h"

namespace lfbs::reader {

/// Per-stream decode-health bookkeeping across epochs.
///
/// The decoder reports per-stream confidence (edge SNR, Viterbi margin,
/// cluster separation) but has no memory between epochs; the session needs
/// memory to tell a one-epoch fade from a chronically failing tag. The
/// ledger identifies streams across epochs by core::TagIdentity (the
/// polarity-tolerant edge vector the window stitcher also matches on —
/// tags move slowly relative to an epoch, so the vector is the stable
/// fingerprint) and tracks consecutive all-failed epochs per entry.
///
/// State machine per entry:
///   healthy --(quarantine_after consecutive failed epochs)--> quarantined
///   quarantined --(one clean epoch)--> probation
///   probation --(probation_epochs consecutive clean epochs)--> healthy
///   probation --(any failed epoch)--> quarantined
///
/// A "failed epoch" is one where the entry's stream decoded with zero
/// CRC-valid frames, or with a confidence score below min_confidence.
/// Quarantine itself is advisory: the ledger never drops data, it feeds
/// the session's rate controller (a newly quarantined tag triggers an
/// immediate step_down) and the operator-facing stats.
struct HealthLedgerConfig {
  /// Consecutive failed epochs before an entry is quarantined.
  std::size_t quarantine_after = 3;
  /// Consecutive clean epochs a quarantined entry must string together
  /// (after the first one that moves it to probation) to be healthy again.
  std::size_t probation_epochs = 2;
  /// Confidence score below which even a CRC-clean epoch counts as failed.
  double min_confidence = 0.15;
  /// Entries unseen for this many epochs are forgotten (tag left range).
  std::size_t forget_after = 8;
};

/// Tag-identity tolerance of the ledger (core::TagIdentity distance).
inline constexpr double kLedgerVectorTolerance = 0.35;

enum class HealthState { kHealthy, kQuarantined, kProbation };

const char* to_string(HealthState state);

struct HealthEntry {
  Complex edge_vector;  ///< freshest fingerprint
  HealthState state = HealthState::kHealthy;
  std::size_t consecutive_failures = 0;
  std::size_t probation_progress = 0;  ///< clean epochs while in probation
  std::size_t missing_epochs = 0;
  std::size_t epochs_seen = 0;
  std::size_t epochs_failed = 0;
  std::size_t quarantines = 0;  ///< times this entry entered quarantine
  double last_confidence = 0.0;
};

/// One epoch's digest, returned by observe().
struct EpochHealth {
  std::size_t tracked = 0;      ///< live ledger entries after the epoch
  std::size_t quarantined = 0;  ///< entries currently quarantined
  std::size_t probation = 0;
  std::size_t newly_quarantined = 0;  ///< transitions this epoch
  std::size_t recovered = 0;          ///< probation → healthy this epoch
  double mean_confidence = 0.0;       ///< over streams seen this epoch
};

class HealthLedger {
 public:
  explicit HealthLedger(HealthLedgerConfig config = {});

  const HealthLedgerConfig& config() const { return config_; }
  const std::vector<HealthEntry>& entries() const { return entries_; }

  /// Folds one epoch's decode result into the ledger.
  EpochHealth observe(const core::DecodeResult& result);

  std::size_t total_quarantines() const { return total_quarantines_; }

 private:
  HealthEntry* match(Complex edge_vector);

  HealthLedgerConfig config_;
  std::vector<HealthEntry> entries_;
  std::size_t total_quarantines_ = 0;
};

}  // namespace lfbs::reader

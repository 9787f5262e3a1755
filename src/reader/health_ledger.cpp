#include "reader/health_ledger.h"

#include "core/tag_identity.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::reader {

namespace {

/// Ledger transitions are rare and diagnostic gold: mirror each one into
/// the JSONL event log (when attached) and the global counters.
void note_transition(const HealthEntry& e, const char* transition) {
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("ledger",
              {obs::Field::str("transition", transition),
               obs::Field::str("state", to_string(e.state)),
               obs::Field::num("edge_re", e.edge_vector.real()),
               obs::Field::num("edge_im", e.edge_vector.imag()),
               obs::Field::integer(
                   "consecutive_failures",
                   static_cast<std::int64_t>(e.consecutive_failures)),
               obs::Field::num("last_confidence", e.last_confidence)});
  }
}

}  // namespace

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kQuarantined:
      return "quarantined";
    case HealthState::kProbation:
      return "probation";
  }
  return "?";
}

HealthLedger::HealthLedger(HealthLedgerConfig config) : config_(config) {}

HealthEntry* HealthLedger::match(Complex edge_vector) {
  HealthEntry* best = nullptr;
  double best_dist = kLedgerVectorTolerance;
  for (HealthEntry& e : entries_) {
    const double dist =
        core::TagIdentity::compare(edge_vector, e.edge_vector).distance;
    if (dist < best_dist) {
      best_dist = dist;
      best = &e;
    }
  }
  return best;
}

EpochHealth HealthLedger::observe(const core::DecodeResult& result) {
  static obs::Counter& epochs =
      obs::metrics().counter("reader.ledger_epochs");
  static obs::Counter& quarantines =
      obs::metrics().counter("reader.ledger_quarantines");
  static obs::Counter& recoveries =
      obs::metrics().counter("reader.ledger_recoveries");
  epochs.add();
  EpochHealth out;
  std::vector<bool> seen(entries_.size(), false);
  double conf_sum = 0.0;
  std::size_t conf_n = 0;

  for (const core::DecodedStream& s : result.streams) {
    const double conf = s.confidence.score();
    conf_sum += conf;
    ++conf_n;
    const bool failed =
        s.valid_frames() == 0 || conf < config_.min_confidence;

    HealthEntry* e = match(s.edge_vector);
    if (e == nullptr) {
      entries_.push_back({});
      e = &entries_.back();
      seen.push_back(false);
    }
    seen[static_cast<std::size_t>(e - entries_.data())] = true;
    e->edge_vector = s.edge_vector;
    e->missing_epochs = 0;
    ++e->epochs_seen;
    e->last_confidence = conf;

    if (failed) {
      ++e->epochs_failed;
      ++e->consecutive_failures;
      e->probation_progress = 0;
      if (e->state != HealthState::kQuarantined &&
          e->consecutive_failures >= config_.quarantine_after) {
        e->state = HealthState::kQuarantined;
        ++e->quarantines;
        ++total_quarantines_;
        ++out.newly_quarantined;
        quarantines.add();
        note_transition(*e, "quarantined");
      } else if (e->state == HealthState::kProbation) {
        // One bad epoch on probation and it is back in quarantine.
        e->state = HealthState::kQuarantined;
        ++e->quarantines;
        ++total_quarantines_;
        ++out.newly_quarantined;
        quarantines.add();
        note_transition(*e, "requarantined");
      }
    } else {
      e->consecutive_failures = 0;
      if (e->state == HealthState::kQuarantined) {
        e->state = HealthState::kProbation;
        e->probation_progress = 1;
      } else if (e->state == HealthState::kProbation) {
        ++e->probation_progress;
      }
      if (e->state == HealthState::kProbation &&
          e->probation_progress > config_.probation_epochs) {
        e->state = HealthState::kHealthy;
        e->probation_progress = 0;
        ++out.recovered;
        recoveries.add();
        note_transition(*e, "recovered");
      }
    }
  }

  // Age entries the epoch did not see; forget long-gone tags. Absence is
  // not a failure (an idle tag simply has nothing to say) but it does not
  // advance probation either.
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (seen[i]) continue;
    if (++entries_[i].missing_epochs > config_.forget_after) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  out.tracked = entries_.size();
  for (const HealthEntry& e : entries_) {
    if (e.state == HealthState::kQuarantined) ++out.quarantined;
    if (e.state == HealthState::kProbation) ++out.probation;
  }
  out.mean_confidence =
      conf_n > 0 ? conf_sum / static_cast<double>(conf_n) : 0.0;
  return out;
}

}  // namespace lfbs::reader

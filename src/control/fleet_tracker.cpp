#include "control/fleet_tracker.h"

#include <algorithm>

namespace lfbs::control {

void FleetTracker::observe_frame(const runtime::FrameEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Stream indices are stable within one decode run; +1 keeps key 0 free
  // as the "no tag" sentinel.
  Accum& acc = pending_[static_cast<std::uint64_t>(event.stream_index) + 1];
  acc.rate = event.rate;
  acc.frames += 1;
  acc.valid += event.frame.valid() ? 1 : 0;
  acc.collided += event.collided ? 1 : 0;
  acc.confidence_sum += event.confidence;
  acc.confidence_n += 1;
  if (event.frame.valid()) acc.payload_bits += event.frame.payload.size();
}

void FleetTracker::end_epoch(std::uint64_t epoch, Seconds duration) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double seconds = std::max(duration, 1e-12);
  std::uint64_t fleet_frames = 0;
  std::uint64_t fleet_collided = 0;
  std::uint64_t fleet_payload_bits = 0;

  for (const auto& [key, acc] : pending_) {
    TagState& tag = tags_[key];
    const bool fresh = tag.epochs_seen == 0;
    tag.key = key;
    tag.rate = acc.rate;
    tag.last_epoch = epoch;
    tag.epochs_seen += 1;
    tag.frames_total += acc.frames;
    tag.frames_valid += acc.valid;
    tag.frames_collided += acc.collided;

    const double frames = static_cast<double>(std::max<std::uint64_t>(
        acc.frames, 1));
    const double success = static_cast<double>(acc.valid) / frames;
    const double collided = static_cast<double>(acc.collided) / frames;
    const double confidence =
        acc.confidence_n > 0
            ? acc.confidence_sum / static_cast<double>(acc.confidence_n)
            : 0.0;
    const double goodput = static_cast<double>(acc.payload_bits) / seconds;
    const double a = fresh ? 1.0 : kAlpha;
    tag.success += a * (success - tag.success);
    tag.collision_pressure += a * (collided - tag.collision_pressure);
    tag.confidence += a * (confidence - tag.confidence);
    tag.goodput_bps += a * (goodput - tag.goodput_bps);

    fleet_frames += acc.frames;
    fleet_collided += acc.collided;
    fleet_payload_bits += acc.payload_bits;
  }

  // Tags tracked but absent this epoch: decay their signals — in a fleet
  // where every tag transmits every epoch, absence is decode failure —
  // and forget tags that have been gone long enough.
  for (auto it = tags_.begin(); it != tags_.end();) {
    if (!pending_.count(it->first)) {
      if (epoch >= it->second.last_epoch &&
          epoch - it->second.last_epoch >= kForgetAfter) {
        it = tags_.erase(it);
        continue;
      }
      TagState& tag = it->second;
      tag.success *= 1.0 - kAlpha;
      tag.goodput_bps *= 1.0 - kAlpha;
      tag.confidence *= 1.0 - kAlpha;
    }
    ++it;
  }

  fleet_pressure_ =
      fleet_frames > 0 ? static_cast<double>(fleet_collided) /
                             static_cast<double>(fleet_frames)
                       : 0.0;
  fleet_goodput_ = static_cast<double>(fleet_payload_bits) / seconds;
  epoch_ = epoch;
  pending_.clear();
}

FleetSnapshot FleetTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FleetSnapshot snap;
  snap.epoch = epoch_;
  snap.collision_pressure = fleet_pressure_;
  snap.aggregate_goodput_bps = fleet_goodput_;
  snap.tags.reserve(tags_.size());
  for (const auto& [key, tag] : tags_) snap.tags.push_back(tag);
  return snap;  // std::map iteration is already key-sorted
}

std::size_t FleetTracker::tags_tracked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tags_.size();
}

}  // namespace lfbs::control

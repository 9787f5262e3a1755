// Tests for the fleet control plane (src/control): FleetTracker state
// folding, the scheduling policies' determinism and knobs, the LFBW1 v5
// control messages (codec and live round-trip over a FrameServer), the
// loop's step racing remote control-sets, and the two acceptance
// properties — the greedy scheduler strictly beats the static baseline
// on a collision-heavy fleet, and a run with the control loop merely
// observing stays bit-identical to the serial WindowedDecoder reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "control/control_loop.h"
#include "control/fleet_tracker.h"
#include "control/scheduler.h"
#include "control/spec.h"
#include "core/windowed_decoder.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/json.h"
#include "runtime/runtime.h"
#include "sim/scenario.h"

namespace lfbs::control {
namespace {

runtime::FrameEvent make_frame(std::size_t stream, BitRate rate, bool valid,
                               bool collided, double confidence,
                               std::size_t payload_bits = 96) {
  runtime::FrameEvent event;
  event.stream_index = stream;
  event.rate = rate;
  event.collided = collided;
  event.confidence = confidence;
  event.frame.payload.assign(payload_bits, true);
  event.frame.anchor_ok = valid;
  event.frame.crc_ok = valid;
  return event;
}

TagState make_tag(std::uint64_t key, BitRate rate, double success,
                  double confidence, double pressure) {
  TagState tag;
  tag.key = key;
  tag.rate = rate;
  tag.epochs_seen = 4;
  tag.success = success;
  tag.confidence = confidence;
  tag.collision_pressure = pressure;
  tag.goodput_bps = success * rate;
  return tag;
}

// --- FleetTracker -----------------------------------------------------------

TEST(FleetTracker, FoldsFrameEventsIntoPerTagState) {
  FleetTracker tracker;
  const Seconds epoch = 10e-3;
  // Stream 0: two clean frames. Stream 1: one clean, one failed, collided.
  tracker.observe_frame(make_frame(0, 100e3, true, false, 0.9));
  tracker.observe_frame(make_frame(0, 100e3, true, false, 0.8));
  tracker.observe_frame(make_frame(1, 50e3, true, true, 0.5));
  tracker.observe_frame(make_frame(1, 50e3, false, true, 0.3));
  tracker.end_epoch(0, epoch);

  const FleetSnapshot snap = tracker.snapshot();
  ASSERT_EQ(snap.tags.size(), 2u);
  EXPECT_EQ(snap.epoch, 0u);
  // Keys are stream_index + 1 (0 is the no-tag sentinel), sorted.
  EXPECT_EQ(snap.tags[0].key, 1u);
  EXPECT_EQ(snap.tags[1].key, 2u);

  const TagState& a = snap.tags[0];
  EXPECT_EQ(a.rate, 100e3);
  EXPECT_EQ(a.frames_total, 2u);
  EXPECT_EQ(a.frames_valid, 2u);
  EXPECT_DOUBLE_EQ(a.success, 1.0);  // first epoch seeds the EWMA directly
  EXPECT_NEAR(a.confidence, 0.85, 1e-12);
  EXPECT_NEAR(a.goodput_bps, 2.0 * 96.0 / epoch, 1e-6);
  EXPECT_DOUBLE_EQ(a.collision_pressure, 0.0);

  const TagState& b = snap.tags[1];
  EXPECT_DOUBLE_EQ(b.success, 0.5);
  EXPECT_DOUBLE_EQ(b.collision_pressure, 1.0);
  EXPECT_EQ(b.frames_collided, 2u);

  // Fleet aggregates: 2 of 4 frames collided, 3 valid payloads.
  EXPECT_DOUBLE_EQ(snap.collision_pressure, 0.5);
  EXPECT_NEAR(snap.aggregate_goodput_bps, 3.0 * 96.0 / epoch, 1e-6);
}

TEST(FleetTracker, AbsentTagsDecayAndAreEventuallyForgotten) {
  FleetTracker tracker;
  tracker.observe_frame(make_frame(0, 100e3, true, false, 1.0));
  tracker.end_epoch(0, 1e-3);
  const double s0 = tracker.snapshot().tags[0].success;
  EXPECT_DOUBLE_EQ(s0, 1.0);

  // Absence is decode failure: success decays by (1 - alpha) per epoch.
  const double keep = 1.0 - FleetTracker::kAlpha;
  tracker.end_epoch(1, 1e-3);
  EXPECT_DOUBLE_EQ(tracker.snapshot().tags[0].success, keep);
  tracker.end_epoch(2, 1e-3);
  EXPECT_DOUBLE_EQ(tracker.snapshot().tags[0].success, keep * keep);
  for (std::uint64_t e = 3; e < FleetTracker::kForgetAfter; ++e) {
    tracker.end_epoch(e, 1e-3);
  }
  ASSERT_EQ(tracker.tags_tracked(), 1u);

  // Unseen for kForgetAfter epochs: the tag left range, drop it.
  tracker.end_epoch(FleetTracker::kForgetAfter, 1e-3);
  EXPECT_EQ(tracker.tags_tracked(), 0u);
}

// --- scheduling policies --------------------------------------------------

FleetSnapshot mixed_fleet() {
  FleetSnapshot fleet;
  fleet.epoch = 7;
  fleet.collision_pressure = 0.4;
  fleet.tags.push_back(make_tag(1, 100e3, 0.9, 0.9, 0.5));
  fleet.tags.push_back(make_tag(2, 100e3, 0.8, 0.8, 0.6));
  fleet.tags.push_back(make_tag(3, 100e3, 0.4, 0.5, 0.3));
  fleet.tags.push_back(make_tag(4, 50e3, 0.6, 0.7, 0.2));
  fleet.tags.push_back(make_tag(5, 10e3, 0.1, 0.05, 0.0));
  return fleet;
}

TEST(EpochScheduler, GreedyIsDeterministicUnderAFixedSeed) {
  const FleetSnapshot fleet = mixed_fleet();
  const protocol::RatePlan rates = protocol::RatePlan::paper_rates();
  const ControlObjective objective;
  const GreedyMarginalPolicy a(12345);
  const GreedyMarginalPolicy b(12345);
  const EpochPlan pa = a.plan(fleet, rates, objective, 8);
  const EpochPlan pb = b.plan(fleet, rates, objective, 8);
  ASSERT_EQ(pa.assignments.size(), pb.assignments.size());
  for (std::size_t i = 0; i < pa.assignments.size(); ++i) {
    EXPECT_EQ(pa.assignments[i].tag, pb.assignments[i].tag);
    EXPECT_EQ(pa.assignments[i].rate, pb.assignments[i].rate);
    EXPECT_EQ(pa.assignments[i].predicted_goodput,
              pb.assignments[i].predicted_goodput);
  }
  EXPECT_EQ(pa.predicted_goodput_bps, pb.predicted_goodput_bps);

  // Assignments come out sorted by tag key and only use plan rates.
  for (std::size_t i = 1; i < pa.assignments.size(); ++i) {
    EXPECT_LT(pa.assignments[i - 1].tag, pa.assignments[i].tag);
  }
  for (const TagAssignment& assign : pa.assignments) {
    EXPECT_TRUE(rates.is_valid(assign.rate)) << assign.rate;
  }
}

TEST(EpochScheduler, ObjectiveKnobsConstrainThePlan) {
  const FleetSnapshot fleet = mixed_fleet();
  const protocol::RatePlan rates = protocol::RatePlan::paper_rates();
  const GreedyMarginalPolicy policy;

  // max_rate caps every assignment.
  ControlObjective capped;
  capped.max_rate = 10e3;
  for (const TagAssignment& a : policy.plan(fleet, rates, capped, 8)
           .assignments) {
    EXPECT_LE(a.rate, 10e3);
  }

  // min_confidence pins weak tags (tag 5 at 0.05) to the base rate even
  // though an unconstrained plan might speed them up.
  ControlObjective confident;
  confident.min_confidence = 0.5;
  const EpochPlan plan = policy.plan(fleet, rates, confident, 8);
  for (const TagAssignment& a : plan.assignments) {
    if (a.tag == 5) {
      EXPECT_EQ(a.rate, rates.min());
    }
  }

  // The epoch budget bounds the aggregate rate in base-rate units.
  ControlObjective budgeted;
  budgeted.epoch_budget = 10.0;  // 10 × 0.5 kbps = 5 kbps aggregate
  double total = 0.0;
  for (const TagAssignment& a :
       policy.plan(fleet, rates, budgeted, 8).assignments) {
    total += a.rate;
  }
  EXPECT_LE(total, 10.0 * rates.min() + 1e-6);
}

TEST(EpochScheduler, StaticPolicyKeepsObservedRates) {
  const FleetSnapshot fleet = mixed_fleet();
  const protocol::RatePlan rates = protocol::RatePlan::paper_rates();
  const StaticAssignmentPolicy policy;
  const EpochPlan plan = policy.plan(fleet, rates, {}, 8);
  ASSERT_EQ(plan.assignments.size(), fleet.tags.size());
  for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
    EXPECT_EQ(plan.assignments[i].rate, fleet.tags[i].rate);
  }
}

TEST(EpochScheduler, PolicyFactoryKnowsItsNames) {
  EXPECT_NE(make_policy("greedy", 1), nullptr);
  EXPECT_NE(make_policy("static", 1), nullptr);
  EXPECT_EQ(make_policy("sorcery", 1), nullptr);
}

// --- control spec parsing (the gateway's typed CLI surface) -----------------

TEST(ControlSpec, ParsesTheFullGrammar) {
  const ControlLoopConfig spec = parse_control_spec(
      "policy=static,seed=9,target-goodput=5e5,min-confidence=0.4,"
      "max-rate=50e3,budget=12,penalty=2.5,freeze=1");
  EXPECT_EQ(spec.policy, "static");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.objective.target_goodput, 5e5);
  EXPECT_EQ(spec.objective.min_confidence, 0.4);
  EXPECT_EQ(spec.objective.max_rate, 50e3);
  EXPECT_EQ(spec.objective.epoch_budget, 12.0);
  EXPECT_EQ(spec.objective.collision_penalty, 2.5);
  EXPECT_TRUE(spec.frozen);

  const ControlLoopConfig defaults = parse_control_spec("on");
  EXPECT_EQ(defaults.policy, "greedy");
  EXPECT_FALSE(defaults.frozen);
}

TEST(ControlSpec, RejectionsAreTyped) {
  const auto code_of = [](const std::string& spec) {
    try {
      parse_control_spec(spec);
    } catch (const SpecParseError& e) {
      return e.code();
    }
    ADD_FAILURE() << "spec '" << spec << "' parsed";
    return SpecError::kEmpty;
  };
  EXPECT_EQ(code_of(""), SpecError::kEmpty);
  EXPECT_EQ(code_of(",,"), SpecError::kEmpty);  // clauses all empty
  EXPECT_EQ(code_of("warp=9"), SpecError::kBadKey);
  // The loop steps once per run: there is no timer to pace, and the
  // tracker's smoothing cannot change a one-epoch plan.
  EXPECT_EQ(code_of("period-ms=8"), SpecError::kBadKey);
  EXPECT_EQ(code_of("alpha=0.5"), SpecError::kBadKey);
  EXPECT_EQ(code_of("forget=4"), SpecError::kBadKey);
  EXPECT_EQ(code_of("policy=chaotic"), SpecError::kBadValue);
  EXPECT_EQ(code_of("freeze=0.5"), SpecError::kBadValue);
  EXPECT_EQ(code_of("min-confidence=2"), SpecError::kBadValue);
  EXPECT_EQ(code_of("budget=-1"), SpecError::kBadValue);
  EXPECT_EQ(code_of("seed=-1"), SpecError::kBadValue);  // no sign
  EXPECT_EQ(code_of("penalty=0.5oops"), SpecError::kBadValue);
  EXPECT_EQ(code_of("budget=nan"), SpecError::kBadValue);
  EXPECT_EQ(code_of("budget=12x"), SpecError::kBadValue);
  EXPECT_EQ(code_of("budget=inf"), SpecError::kBadValue);

  EXPECT_THROW(parse_policy_name("sorcery"), SpecParseError);
  EXPECT_EQ(parse_policy_name("static"), "static");
}

// --- LFBW1 v5 control messages ---------------------------------------------

TEST(ControlWire, SetAndPlanRoundTripBitExactly) {
  net::ControlSet set;
  set.set_frozen = true;
  set.frozen = true;
  set.set_target_goodput = true;
  set.target_goodput = 123456.75;
  set.set_max_rate = true;
  set.max_rate = 50e3;

  net::ControlPlanMsg plan;
  plan.enabled = true;
  plan.frozen = true;
  plan.target_goodput = 123456.75;
  plan.min_confidence = 0.25;
  plan.max_rate = 50e3;
  plan.epoch = 42;
  plan.policy = "greedy";
  plan.predicted_goodput = 98765.5;
  plan.collision_pressure = 0.375;
  plan.assignments = {{1, 100e3, 90e3}, {7, 500.0, 250.0}};

  std::vector<std::uint8_t> bytes;
  net::encode_control_get(bytes);
  net::encode_control_set(set, bytes);
  net::encode_control_plan(plan, bytes);

  net::MessageReader reader;
  reader.feed(bytes.data(), bytes.size());
  const auto get = reader.next();
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->type, net::MsgType::kControlGet);

  const auto set_msg = reader.next();
  ASSERT_TRUE(set_msg.has_value());
  ASSERT_EQ(set_msg->type, net::MsgType::kControlSet);
  const net::ControlSet rset = net::decode_control_set(set_msg->body);
  EXPECT_TRUE(rset.set_frozen);
  EXPECT_TRUE(rset.frozen);
  EXPECT_TRUE(rset.set_target_goodput);
  EXPECT_EQ(rset.target_goodput, 123456.75);
  EXPECT_FALSE(rset.set_min_confidence);
  EXPECT_TRUE(rset.set_max_rate);
  EXPECT_EQ(rset.max_rate, 50e3);

  const auto plan_msg = reader.next();
  ASSERT_TRUE(plan_msg.has_value());
  ASSERT_EQ(plan_msg->type, net::MsgType::kControlPlan);
  const net::ControlPlanMsg rplan = net::decode_control_plan(plan_msg->body);
  EXPECT_TRUE(rplan.enabled);
  EXPECT_TRUE(rplan.frozen);
  EXPECT_EQ(rplan.target_goodput, 123456.75);
  EXPECT_EQ(rplan.min_confidence, 0.25);
  EXPECT_EQ(rplan.max_rate, 50e3);
  EXPECT_EQ(rplan.epoch, 42u);
  EXPECT_EQ(rplan.policy, "greedy");
  EXPECT_EQ(rplan.predicted_goodput, 98765.5);
  EXPECT_EQ(rplan.collision_pressure, 0.375);
  ASSERT_EQ(rplan.assignments.size(), 2u);
  EXPECT_EQ(rplan.assignments[0].tag, 1u);
  EXPECT_EQ(rplan.assignments[0].rate, 100e3);
  EXPECT_EQ(rplan.assignments[0].goodput, 90e3);
  EXPECT_EQ(rplan.assignments[1].tag, 7u);
  EXPECT_EQ(rplan.assignments[1].rate, 500.0);
}

TEST(ControlWire, GarbledAssignmentCountIsRejectedBeforeAllocation) {
  net::ControlPlanMsg plan;
  plan.enabled = true;
  plan.assignments = {{1, 100e3, 90e3}};
  std::vector<std::uint8_t> bytes;
  net::encode_control_plan(plan, bytes);
  // Inflate the assignment count beyond the remaining body bytes: a
  // validate-before-allocate decoder rejects instead of reserving GBs.
  // Body layout: flags + 3 knobs + epoch + policy(len 0) + 2 doubles,
  // then the u32 count — find it by patching the last 28 bytes' prefix.
  const std::size_t count_offset = bytes.size() - 24 - 4;
  bytes[count_offset] = 0xFF;
  bytes[count_offset + 1] = 0xFF;
  bytes[count_offset + 2] = 0xFF;
  bytes[count_offset + 3] = 0x7F;
  net::MessageReader reader;
  reader.feed(bytes.data(), bytes.size());
  const auto message = reader.next();
  ASSERT_TRUE(message.has_value());
  EXPECT_THROW(net::decode_control_plan(message->body),
               net::WireFormatError);
}

// --- ControlLoop ------------------------------------------------------------

TEST(ControlLoop, StepPublishesTypedEventsAndAppliesUnlessFrozen) {
  std::ostringstream jsonl;
  obs::JsonlWriter writer(jsonl);
  obs::EventLog log(writer);
  obs::set_event_log(&log);

  ControlLoopConfig config;
  ControlLoop loop(config, protocol::RatePlan::paper_rates());

  loop.tracker().observe_frame(make_frame(0, 100e3, true, false, 0.9));
  const EpochPlan plan = loop.step(0, 1e-3);
  EXPECT_EQ(plan.epoch, 1u);  // the plan applies to the epoch after the close

  // Frozen: the loop still plans and publishes; the flag is reported.
  loop.set_frozen(true);
  const EpochPlan frozen_plan = loop.step(1, 1e-3);
  EXPECT_EQ(frozen_plan.epoch, 2u);
  EXPECT_EQ(loop.last_plan().epoch, 2u);

  obs::set_event_log(nullptr);
  writer.flush();

  std::size_t plan_events = 0;
  std::size_t assign_events = 0;
  std::vector<bool> plan_frozen;
  std::string line;
  std::istringstream in(jsonl.str());
  while (std::getline(in, line)) {
    const auto parsed = obs::parse_json(line, nullptr);
    ASSERT_TRUE(parsed.has_value() && parsed->is_object()) << line;
    if (parsed->member_str("type", "") != "control") continue;
    const std::string action{parsed->member_str("action", "")};
    if (action == "plan") {
      ++plan_events;
      EXPECT_EQ(parsed->member_str("policy", ""), "greedy");
      plan_frozen.push_back(parsed->member_bool("frozen", false));
    } else if (action == "assign") {
      ++assign_events;
      EXPECT_EQ(parsed->member_num("tag", 0.0), 1.0);
    }
  }
  EXPECT_EQ(plan_events, 2u);
  EXPECT_EQ(assign_events, 2u);
  EXPECT_EQ(plan_frozen, (std::vector<bool>{false, true}));
}

TEST(ControlLoop, ControlSetAdjustsKnobsAndWireStateReflectsThem) {
  ControlLoopConfig config;
  ControlLoop loop(config, protocol::RatePlan::paper_rates());

  net::ControlSet set;
  set.set_frozen = true;
  set.frozen = true;
  set.set_target_goodput = true;
  set.target_goodput = 4e5;
  set.set_min_confidence = true;
  set.min_confidence = 0.3;
  const net::ControlPlanMsg state = loop.apply_control_set(set);
  EXPECT_TRUE(state.enabled);
  EXPECT_TRUE(state.frozen);
  EXPECT_EQ(state.target_goodput, 4e5);
  EXPECT_EQ(state.min_confidence, 0.3);
  EXPECT_TRUE(loop.frozen());
  EXPECT_EQ(loop.objective().target_goodput, 4e5);

  // Partial set: untouched knobs survive.
  net::ControlSet thaw;
  thaw.set_frozen = true;
  thaw.frozen = false;
  const net::ControlPlanMsg after = loop.apply_control_set(thaw);
  EXPECT_FALSE(after.frozen);
  EXPECT_EQ(after.target_goodput, 4e5);
}

TEST(ControlLoop, LiveRoundTripOverAFrameServer) {
  ControlLoopConfig config;
  ControlLoop loop(config, protocol::RatePlan::paper_rates());
  loop.tracker().observe_frame(make_frame(0, 100e3, true, false, 0.9));
  loop.tracker().observe_frame(make_frame(1, 50e3, true, true, 0.6));
  loop.step(0, 1e-3);

  net::FrameServerConfig sc;
  sc.control_get = [&] { return loop.wire_state(); };
  sc.control_set = [&](const net::ControlSet& set) {
    return loop.apply_control_set(set);
  };
  net::FrameServer server(sc);

  const net::ControlPlanMsg fetched =
      net::fetch_control("127.0.0.1", server.port());
  EXPECT_TRUE(fetched.enabled);
  EXPECT_EQ(fetched.policy, "greedy");
  EXPECT_EQ(fetched.epoch, 1u);
  ASSERT_EQ(fetched.assignments.size(), 2u);
  const EpochPlan local = loop.last_plan();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(fetched.assignments[i].tag, local.assignments[i].tag);
    EXPECT_EQ(fetched.assignments[i].rate, local.assignments[i].rate);
  }

  net::ControlSet set;
  set.set_frozen = true;
  set.frozen = true;
  set.set_max_rate = true;
  set.max_rate = 10e3;
  const net::ControlPlanMsg applied =
      net::send_control("127.0.0.1", server.port(), set);
  EXPECT_TRUE(applied.frozen);
  EXPECT_EQ(applied.max_rate, 10e3);
  EXPECT_TRUE(loop.frozen());
  EXPECT_EQ(loop.objective().max_rate, 10e3);

  EXPECT_EQ(server.counters().control_gets, 1u);
  EXPECT_EQ(server.counters().control_sets, 1u);
  server.shutdown(/*drain=*/false);
}

TEST(ControlLoop, ControlSetsWhileAStepPlansDoNotRace) {
  // The gateway steps on its main thread while a remote control-set
  // rewrites the objective on the FrameServer's event-loop thread. step()
  // must plan from a copy of the objective taken under the loop's lock;
  // ThreadSanitizer reports the policy's read of the shared objective
  // otherwise.
  ControlLoop loop(ControlLoopConfig{}, protocol::RatePlan::paper_rates());
  constexpr std::size_t kSets = 2000;
  std::atomic<bool> stepping{false};
  std::atomic<bool> setting{true};
  std::thread setter([&] {
    while (!stepping.load()) std::this_thread::yield();
    for (std::size_t i = 0; i < kSets; ++i) {
      net::ControlSet set;
      set.set_target_goodput = true;
      set.target_goodput = 1e6 + static_cast<double>(i);
      set.set_min_confidence = true;
      set.min_confidence = i % 2 == 0 ? 0.0 : 0.5;
      set.set_max_rate = true;
      set.max_rate = i % 2 == 0 ? 50e3 : 100e3;
      loop.apply_control_set(set);
    }
    setting.store(false);
  });

  std::uint64_t epoch = 0;
  do {
    for (std::size_t s = 0; s < 16; ++s) {
      loop.tracker().observe_frame(
          make_frame(s, 100e3, s % 3 != 0, s % 2 == 0, 0.3 + 0.04 * s));
    }
    const EpochPlan plan = loop.step(epoch++, 1e-3);
    stepping.store(true);
    for (const TagAssignment& a : plan.assignments) {
      EXPECT_LE(a.rate, 100e3);
    }
  } while (setting.load());
  setter.join();

  EXPECT_GT(epoch, 1u);
  // The last set (odd index) wins.
  EXPECT_EQ(loop.objective().target_goodput, 1e6 + (kSets - 1));
  EXPECT_EQ(loop.objective().max_rate, 100e3);
  EXPECT_EQ(loop.objective().min_confidence, 0.5);
}

TEST(ControlLoop, ServerWithoutAControlPlaneAnswersDisabled) {
  net::FrameServer server(net::FrameServerConfig{});
  const net::ControlPlanMsg probe =
      net::fetch_control("127.0.0.1", server.port());
  EXPECT_FALSE(probe.enabled);
  EXPECT_TRUE(probe.assignments.empty());
  server.shutdown(/*drain=*/false);
}

// --- acceptance: scheduled vs static on a collision-heavy fleet -------------

/// True when `payload` came back CRC-clean in any decoded stream. Each
/// tag sends one fresh random 96-bit payload per epoch, so payload
/// equality is exact ground truth for "did tag i get through".
bool payload_recovered(const core::DecodeResult& decode,
                       const std::vector<bool>& payload) {
  for (const core::DecodedStream& s : decode.streams) {
    for (const protocol::ParsedFrame& f : s.frames) {
      if (f.valid() && f.payload == payload) return true;
    }
  }
  return false;
}

/// One A/B arm: a fleet of colliding same-rate tags run for a few epochs
/// under the named scheduling policy, returning payload bits recovered in
/// the scheduled (post-warm-up) epochs. Sensing uses ground truth (which
/// sent payloads came back) so the comparison isolates the *scheduler's*
/// value; the FleetTracker's folding has its own tests above. Both arms
/// build identical worlds from the same seed; only the policy differs.
std::size_t run_policy_arm(const std::string& policy) {
  Rng rng(20250808);
  sim::ScenarioConfig cfg;
  cfg.num_tags = 8;
  cfg.rates = {100.0 * kKbps};  // everyone on one lattice: collision-heavy
  cfg.sample_rate = 5.0 * kMsps;
  cfg.epoch_duration = 20e-3;
  sim::Scenario scenario(cfg, rng);
  const core::DecoderConfig decoder = scenario.default_decoder();

  // Candidate lattice restricted to rates whose 113-bit frame fits the
  // 20 ms epoch (11.3 ms at 10 kbps).
  protocol::RatePlan candidates;
  candidates.rates = {10.0 * kKbps, 50.0 * kKbps, 100.0 * kKbps};
  const std::unique_ptr<SchedulingPolicy> scheduler =
      make_policy(policy, 0x1f53c0de);
  ControlObjective objective;
  objective.collision_penalty = 4.0;

  constexpr double kAlpha = 0.5;
  std::vector<double> success(cfg.num_tags, 0.0);
  double pressure = 0.0;

  constexpr std::size_t kWarmup = 2;
  constexpr std::size_t kScheduled = 4;
  std::size_t scheduled_bits = 0;
  for (std::size_t e = 0; e < kWarmup + kScheduled; ++e) {
    std::vector<std::vector<std::vector<bool>>> payloads(cfg.num_tags);
    for (auto& per_tag : payloads) per_tag.push_back(rng.bits(96));
    const sim::EpochOutcome outcome =
        scenario.run_epoch_with_payloads(decoder, payloads, rng);

    std::size_t collided = 0;
    for (const core::DecodedStream& s : outcome.decode.streams) {
      if (s.collided) ++collided;
    }
    const double epoch_pressure =
        outcome.decode.streams.empty()
            ? 1.0
            : static_cast<double>(collided) / outcome.decode.streams.size();
    pressure = e == 0 ? epoch_pressure
                      : pressure + kAlpha * (epoch_pressure - pressure);
    for (std::size_t i = 0; i < cfg.num_tags; ++i) {
      const double got =
          payload_recovered(outcome.decode, payloads[i][0]) ? 1.0 : 0.0;
      if (e >= kWarmup && got > 0.0) scheduled_bits += 96;
      success[i] = e == 0 ? got : success[i] + kAlpha * (got - success[i]);
    }

    FleetSnapshot fleet;
    fleet.epoch = e;
    fleet.collision_pressure = pressure;
    for (std::size_t i = 0; i < cfg.num_tags; ++i) {
      TagState tag;
      tag.key = i + 1;
      tag.rate = scenario.rate_of(i);
      tag.epochs_seen = e + 1;
      tag.success = success[i];
      tag.confidence = 1.0;  // identity is ground truth here
      fleet.tags.push_back(tag);
    }
    const EpochPlan plan =
        scheduler->plan(fleet, candidates, objective, e + 1);
    for (const TagAssignment& assign : plan.assignments) {
      scenario.set_tag_rate(static_cast<std::size_t>(assign.tag - 1),
                            assign.rate);
    }
  }
  return scheduled_bits;
}

TEST(ControlAcceptance, GreedySchedulingBeatsStaticOnACollisionHeavyFleet) {
  // Eight tags stacked on one 100 kbps lattice collide relentlessly; the
  // static baseline leaves them there, the greedy packer spreads them
  // across rate classes. Strictly more payload bits must come back under
  // scheduling — the PR's headline acceptance criterion. Deterministic:
  // both arms grow identical worlds from one seed.
  const std::size_t greedy_bits = run_policy_arm("greedy");
  const std::size_t static_bits = run_policy_arm("static");
  EXPECT_GT(greedy_bits, static_bits)
      << "greedy " << greedy_bits << " bits vs static " << static_bits;
}

// --- acceptance: observe-only control leaves the decode bit-identical -------

TEST(ControlAcceptance, ObserveOnlyTrackerKeepsDecodeBitIdentical) {
  // A control plane that senses but never actuates must not perturb one
  // decoded bit relative to the serial WindowedDecoder reference.
  Rng rng(99);
  sim::ScenarioConfig cfg;
  cfg.num_tags = 4;
  cfg.sample_rate = 5.0 * kMsps;
  cfg.epoch_duration = 10e-3;
  sim::Scenario scenario(cfg, rng);
  std::vector<std::vector<std::vector<bool>>> payloads(cfg.num_tags);
  for (auto& per_tag : payloads) per_tag.push_back(rng.bits(96));
  const signal::SampleBuffer capture = scenario.capture_epoch(payloads, rng);

  core::WindowedDecoderConfig wc;
  wc.decoder = scenario.default_decoder();
  const core::DecodeResult serial = core::WindowedDecoder(wc).decode(capture);

  FleetTracker tracker;
  runtime::RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 2;
  runtime::DecodeRuntime rt(rc);
  const auto tap = rt.bus().subscribe([&](const runtime::FrameEvent& event) {
    tracker.observe_frame(event);
  });
  const runtime::RuntimeResult run = rt.decode(capture, 8192);
  rt.bus().unsubscribe(tap);
  tracker.end_epoch(0, cfg.epoch_duration);

  ASSERT_EQ(serial.streams.size(), run.decode.streams.size());
  for (std::size_t i = 0; i < serial.streams.size(); ++i) {
    const core::DecodedStream& a = serial.streams[i];
    const core::DecodedStream& b = run.decode.streams[i];
    EXPECT_EQ(a.start_sample, b.start_sample) << "stream " << i;
    EXPECT_EQ(a.rate, b.rate) << "stream " << i;
    EXPECT_EQ(a.bits, b.bits) << "stream " << i;
    ASSERT_EQ(a.frames.size(), b.frames.size()) << "stream " << i;
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
      EXPECT_EQ(a.frames[f].payload, b.frames[f].payload);
      EXPECT_EQ(a.frames[f].valid(), b.frames[f].valid());
    }
  }
  // And the tracker really watched the run: one tracked tag per stream
  // that published at least one frame event.
  std::size_t streams_with_frames = 0;
  for (const core::DecodedStream& s : run.decode.streams) {
    if (!s.frames.empty()) ++streams_with_frames;
  }
  EXPECT_EQ(tracker.tags_tracked(), streams_with_frames);
}

}  // namespace
}  // namespace lfbs::control

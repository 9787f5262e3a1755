// lfbs_report: render a JSONL telemetry stream (lfbs_decode --trace-out,
// bench_robustness_sweep --trace-out) into per-stage and per-frame
// accounting, from the file alone — no access to the run that produced it.
//
// Usage:
//   lfbs_report <telemetry.jsonl>
//
// Reads every line as one JSON object and groups by "type":
//   span     → per-stage table: count, total/mean/p50/p90/p99 duration
//   frame    → frame accounting: per fallback stage, CRC results,
//              confidence distribution
//   health   → supervisor health transitions, in order
//   net      → gateway activity: connects, subscribes, per-client
//              disconnect accounting (frames sent / queue drops),
//              evictions, protocol errors; "overload" summary events
//              render an extra section with the typed ledger (admission
//              denies, slow-consumer drops, peak queue bytes) and check
//              that the frame ledger closes
//   chaos    → injected-fault breakdown per fault class, when the run
//              carried a --chaos spec
//   control  → fleet control plane: plan history (epoch, policy,
//              predicted goodput, collision pressure) and per-tag rate
//              trajectories reconstructed from the assign events alone
//   snapshot → count only (periodic metric snapshots)
//
// Exit status: 0 on a parseable stream (even an empty one); 2 when the
// file cannot be read or no line parses as JSON.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/table.h"

using namespace lfbs;

namespace {

struct StageStats {
  std::vector<double> durations_ms;
  double total_ms = 0.0;
};

std::string fmt_ms(double ms) { return sim::fmt(ms, 3); }

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "-h") {
    std::fprintf(stderr, "usage: lfbs_report <telemetry.jsonl>\n");
    return argc == 2 ? 0 : 2;
  }
  std::ifstream in(argv[1]);
  if (!in.is_open()) {
    std::fprintf(stderr, "error: cannot open %s\n", argv[1]);
    return 2;
  }

  std::map<std::string, StageStats> stages;
  std::map<std::int64_t, std::size_t> frames_by_stage;
  std::size_t frames_total = 0;
  std::size_t frames_crc_ok = 0;
  std::size_t frames_collided = 0;
  std::vector<double> confidences;
  std::vector<std::string> health_log;
  std::map<std::string, std::size_t> net_actions;
  std::vector<std::string> net_log;
  std::size_t net_frames_sent = 0;
  std::size_t net_drops = 0;
  // Overload-protection summary: one "overload" event per server at
  // shutdown carries its lifetime admission/frame ledger; aggregated here
  // across every server in the stream.
  struct OverloadTotals {
    bool seen = false;
    std::size_t denies = 0, queue_drops = 0, enqueued = 0, sent = 0,
                discarded = 0, peak_queue_bytes = 0;
  } overload;
  std::map<std::string, std::size_t> federation_actions;
  std::vector<std::string> federation_log;
  std::map<std::string, std::size_t> chaos_faults;
  // Fleet control plane: plan history plus, per tag, the deduplicated
  // sequence of assigned rates — the trajectory an operator asks about
  // first ("when did tag 3 get demoted, and did it come back?").
  std::map<std::string, std::size_t> control_actions;
  std::vector<std::string> control_log;
  std::map<std::int64_t, std::vector<double>> control_rate_traj;
  std::map<std::int64_t, std::size_t> control_assign_counts;
  std::int64_t relay_max_hops = 0;
  std::size_t snapshots = 0;
  std::size_t lines_total = 0;
  std::size_t lines_bad = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines_total;
    std::string error;
    const auto parsed = obs::parse_json(line, &error);
    if (!parsed.has_value() || !parsed->is_object()) {
      ++lines_bad;
      continue;
    }
    const obs::JsonValue& v = *parsed;
    const std::string type = v.member_str("type", "");
    if (type == "span") {
      const std::string name = v.member_str("name", "?");
      const double dur_ms = v.member_num("dur_us", 0.0) / 1e3;
      StageStats& s = stages[name];
      s.durations_ms.push_back(dur_ms);
      s.total_ms += dur_ms;
    } else if (type == "frame") {
      ++frames_total;
      if (v.member_bool("crc_ok", false)) ++frames_crc_ok;
      if (v.member_bool("collided", false)) ++frames_collided;
      ++frames_by_stage[static_cast<std::int64_t>(
          v.member_num("fallback_stage", 0.0))];
      confidences.push_back(v.member_num("confidence", 0.0));
    } else if (type == "health") {
      health_log.push_back(std::string(v.member_str("from", "?")) + " -> " +
                           std::string(v.member_str("to", "?")));
    } else if (type == "net") {
      const std::string action = v.member_str("action", "?");
      ++net_actions[action];
      // Close-of-connection events carry the client's lifetime totals.
      if (action == "disconnect" || action == "evict" ||
          action == "protocol-error" || action == "shutdown") {
        const auto frames =
            static_cast<std::size_t>(v.member_num("frames", 0.0));
        const auto drops =
            static_cast<std::size_t>(v.member_num("drops", 0.0));
        net_frames_sent += frames;
        net_drops += drops;
        net_log.push_back(
            "client " +
            std::to_string(
                static_cast<std::int64_t>(v.member_num("client", 0.0))) +
            " " + action + ": " + std::to_string(frames) +
            " frames sent, " + std::to_string(drops) + " dropped");
      } else if (action == "overload") {
        const auto u = [&](const char* key) {
          return static_cast<std::size_t>(v.member_num(key, 0.0));
        };
        overload.seen = true;
        overload.denies += u("denies");
        overload.queue_drops += u("queue_drops");
        overload.enqueued += u("enqueued");
        overload.sent += u("sent");
        overload.discarded += u("discarded");
        overload.peak_queue_bytes =
            std::max(overload.peak_queue_bytes, u("peak_queue_bytes"));
      }
    } else if (type == "federation") {
      const std::string action = v.member_str("action", "?");
      ++federation_actions[action];
      if (action == "relay") {
        relay_max_hops =
            std::max(relay_max_hops,
                     static_cast<std::int64_t>(v.member_num("hops", 0.0)));
      }
    } else if (type == "chaos") {
      ++chaos_faults[std::string(v.member_str("fault", "?"))];
    } else if (type == "control") {
      const std::string action = v.member_str("action", "?");
      ++control_actions[action];
      if (action == "plan") {
        control_log.push_back(
            "epoch " +
            std::to_string(
                static_cast<std::int64_t>(v.member_num("epoch", 0.0))) +
            ": " + std::string(v.member_str("policy", "?")) + ", " +
            std::to_string(
                static_cast<std::int64_t>(v.member_num("tags", 0.0))) +
            " tags, predicted " +
            sim::fmt(v.member_num("predicted_goodput", 0.0), 0) +
            " b/s, pressure " +
            sim::fmt(v.member_num("collision_pressure", 0.0), 2) +
            (v.member_bool("frozen", false) ? " (frozen)" : ""));
      } else if (action == "assign") {
        const auto tag =
            static_cast<std::int64_t>(v.member_num("tag", 0.0));
        const double rate = v.member_num("rate", 0.0);
        auto& traj = control_rate_traj[tag];
        if (traj.empty() || traj.back() != rate) traj.push_back(rate);
        ++control_assign_counts[tag];
      } else if (action == "set") {
        control_log.push_back(
            "set: frozen=" +
            std::string(v.member_bool("frozen", false) ? "yes" : "no") +
            ", target " + sim::fmt(v.member_num("target_goodput", 0.0), 0) +
            " b/s, min confidence " +
            sim::fmt(v.member_num("min_confidence", 0.0), 2) + ", max rate " +
            sim::fmt(v.member_num("max_rate", 0.0) / 1e3, 1) + " kbps");
      }
    } else if (type == "snapshot") {
      ++snapshots;
    }
  }
  if (lines_total == 0 || lines_bad == lines_total) {
    std::fprintf(stderr, "error: %s holds no parseable JSONL (%zu lines)\n",
                 argv[1], lines_total);
    return 2;
  }

  std::printf("%s: %zu telemetry lines (%zu unparsed), %zu snapshots\n",
              argv[1], lines_total, lines_bad, snapshots);

  if (!stages.empty()) {
    std::printf("\n== per-stage time ==\n");
    sim::Table table({"stage", "count", "total (ms)", "mean (ms)",
                      "p50 (ms)", "p90 (ms)", "p99 (ms)"});
    // Heaviest stages first: that is what a reader scans for.
    std::vector<std::pair<std::string, const StageStats*>> order;
    for (const auto& [name, s] : stages) order.emplace_back(name, &s);
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a.second->total_ms > b.second->total_ms;
    });
    for (const auto& [name, s] : order) {
      const auto n = static_cast<double>(s->durations_ms.size());
      table.add_row({name, std::to_string(s->durations_ms.size()),
                     fmt_ms(s->total_ms), fmt_ms(s->total_ms / n),
                     fmt_ms(obs::Histogram::percentile(s->durations_ms, 0.50)),
                     fmt_ms(obs::Histogram::percentile(s->durations_ms, 0.90)),
                     fmt_ms(obs::Histogram::percentile(s->durations_ms,
                                                       0.99))});
    }
    table.print();
  }

  if (frames_total > 0) {
    std::printf("\n== frames ==\n");
    std::printf("%zu frames, %zu CRC-valid, %zu from collided streams\n",
                frames_total, frames_crc_ok, frames_collided);
    sim::Table table({"fallback stage", "frames"});
    for (const auto& [stage, count] : frames_by_stage) {
      table.add_row({std::to_string(stage), std::to_string(count)});
    }
    table.print();
    std::printf("confidence p50/p90 %.2f/%.2f, min %.2f\n",
                obs::Histogram::percentile(confidences, 0.50),
                obs::Histogram::percentile(confidences, 0.90),
                *std::min_element(confidences.begin(), confidences.end()));
  }

  if (!health_log.empty()) {
    std::printf("\n== health transitions ==\n");
    for (const auto& h : health_log) std::printf("  %s\n", h.c_str());
  }
  if (!control_actions.empty()) {
    std::printf("\n== control ==\n");
    const auto action_count = [&](const char* key) {
      const auto it = control_actions.find(key);
      return it == control_actions.end() ? std::size_t{0} : it->second;
    };
    std::printf("%zu plans, %zu assignments, %zu knob sets\n",
                action_count("plan"), action_count("assign"),
                action_count("set"));
    for (const auto& c : control_log) std::printf("  %s\n", c.c_str());
    if (!control_rate_traj.empty()) {
      std::printf("per-tag rate trajectories:\n");
      sim::Table table({"tag", "assignments", "rate trajectory (kbps)"});
      for (const auto& [tag, traj] : control_rate_traj) {
        std::string path;
        for (const double rate : traj) {
          if (!path.empty()) path += " -> ";
          path += sim::fmt(rate / 1e3, 1);
        }
        table.add_row({std::to_string(tag),
                       std::to_string(control_assign_counts[tag]), path});
      }
      table.print();
    }
  }
  if (!net_actions.empty()) {
    std::printf("\n== gateway ==\n");
    sim::Table table({"event", "count"});
    for (const auto& [action, count] : net_actions) {
      table.add_row({action, std::to_string(count)});
    }
    table.print();
    std::printf("%zu frames delivered, %zu dropped to slow consumers\n",
                net_frames_sent, net_drops);
    for (const auto& n : net_log) std::printf("  %s\n", n.c_str());
  }
  if (overload.seen) {
    std::printf("\n== overload ==\n");
    sim::Table table({"metric", "count"});
    table.add_row({"admission denies", std::to_string(overload.denies)});
    table.add_row({"slow-consumer drops",
                   std::to_string(overload.queue_drops)});
    table.add_row({"peak queue+ring bytes",
                   std::to_string(overload.peak_queue_bytes)});
    table.print();
    // The frame ledger from the overload summary events: every enqueued
    // frame is either sent or accounted to a typed loss.
    const std::size_t accounted =
        overload.sent + overload.queue_drops + overload.discarded;
    if (overload.enqueued == accounted) {
      std::printf(
          "frame ledger closes: %zu enqueued == %zu sent + %zu dropped + "
          "%zu discarded\n",
          overload.enqueued, overload.sent, overload.queue_drops,
          overload.discarded);
    } else {
      std::printf(
          "frame ledger MISMATCH: %zu enqueued vs %zu accounted "
          "(%zu sent + %zu dropped + %zu discarded)\n",
          overload.enqueued, accounted, overload.sent, overload.queue_drops,
          overload.discarded);
    }
  }
  if (!federation_actions.empty()) {
    std::printf("\n== federation ==\n");
    sim::Table table({"event", "count"});
    for (const auto& [action, count] : federation_actions) {
      table.add_row({action, std::to_string(count)});
    }
    table.print();
    if (federation_actions.count("relay") > 0) {
      std::printf("%zu frames relayed, deepest hop count %lld\n",
                  federation_actions.at("relay"),
                  static_cast<long long>(relay_max_hops));
    }
    for (const auto& f : federation_log) std::printf("  %s\n", f.c_str());
  }
  if (!chaos_faults.empty()) {
    std::printf("\n== chaos ==\n");
    sim::Table table({"fault", "count"});
    std::size_t total = 0;
    for (const auto& [fault, count] : chaos_faults) {
      table.add_row({fault, std::to_string(count)});
      total += count;
    }
    table.print();
    std::printf("%zu faults injected\n", total);
  }
  return 0;
}

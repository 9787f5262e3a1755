// Ablation study (not a paper figure): how much each decoder design choice
// contributes at the paper's 16-node / 100 kbps operating point, measured
// as per-epoch frame recovery over 20 random deployments.
//
// Ablated knobs (see DESIGN.md §4):
//   - interference cancellation (cancel_interference, transient-crossing
//     repair)
//   - three-way collision separation (27-cluster grid extension)
//   - joint Viterbi (error_correction; hard decisions otherwise)
//   - IQ collision recovery entirely (paper's Fig 9 "Edge" mode)
//   - group merge radius (splinter folding vs pile-up chaining)
#include <cstdio>

#include "sim/scenario.h"
#include "sim/table.h"

using namespace lfbs;

namespace {

double recovery(const core::DecoderConfig& dc, std::size_t seeds,
                Seconds epoch = 1.5e-3, std::size_t frames_per_tag = 1) {
  std::size_t sent = 0, rec = 0;
  for (std::size_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 1000 + 7);
    sim::ScenarioConfig sc;
    sc.num_tags = 16;
    sc.epoch_duration = epoch;
    sim::Scenario scenario(sc, rng);
    core::DecoderConfig cfg = dc;
    cfg.frame = sc.frame;
    const auto outcome = scenario.run_epoch(cfg, rng, frames_per_tag);
    sent += outcome.sent_payloads.size();
    rec += outcome.payloads_recovered;
  }
  return static_cast<double>(rec) / static_cast<double>(sent);
}

}  // namespace

int main() {
  sim::print_banner(
      "Ablation", "decoder design choices at 16 nodes / 100 kbps",
      "per-epoch frame recovery over 20 deployments; higher is better");

  const std::size_t seeds = 20;
  core::DecoderConfig base;

  sim::Table table({"configuration", "frame recovery"});
  table.add_row({"full decoder", sim::fmt_percent(recovery(base, seeds))});

  {
    core::DecoderConfig cfg = base;
    cfg.interference_cancellation = false;
    table.add_row({"- interference cancellation",
                   sim::fmt_percent(recovery(cfg, seeds))});
  }
  {
    core::DecoderConfig cfg = base;
    cfg.collision.consider_three_way = false;
    table.add_row({"- three-way separation",
                   sim::fmt_percent(recovery(cfg, seeds))});
  }
  {
    core::DecoderConfig cfg = base;
    cfg.error_correction = false;
    table.add_row({"- joint Viterbi (hard decisions)",
                   sim::fmt_percent(recovery(cfg, seeds))});
  }
  {
    core::DecoderConfig cfg = base;
    cfg.collision_recovery = false;
    table.add_row({"- IQ collision recovery (edge-only)",
                   sim::fmt_percent(recovery(cfg, seeds))});
  }
  for (double merge : {2.0, 5.0, 8.0}) {
    core::DecoderConfig cfg = base;
    cfg.merge_radius = merge;
    table.add_row({"merge radius " + sim::fmt(merge, 0) + " samples",
                   sim::fmt_percent(recovery(cfg, seeds))});
  }
  table.print();

  // Second operating point: longer epochs make *transient* effects matter —
  // colliding pairs drift apart mid-epoch and streams cross each other.
  std::printf("\nlong-epoch operating point (4.8 ms, 4 frames/tag):\n");
  sim::Table long_table({"configuration", "frame recovery"});
  long_table.add_row(
      {"full decoder",
       sim::fmt_percent(recovery(base, seeds, 4.8e-3, 4))});
  {
    core::DecoderConfig cfg = base;
    cfg.interference_cancellation = false;
    long_table.add_row({"- interference cancellation",
                        sim::fmt_percent(recovery(cfg, seeds, 4.8e-3, 4))});
  }
  {
    core::DecoderConfig cfg = base;
    cfg.collision.consider_three_way = false;
    long_table.add_row({"- three-way separation",
                        sim::fmt_percent(recovery(cfg, seeds, 4.8e-3, 4))});
  }
  long_table.print();

  std::printf(
      "\nthe default merge radius balances splinter folding (too small "
      "fragments drifting collision pairs) against pile-up chaining (too "
      "large fuses distinct tags into unseparable 3+ groups)\n");
  return 0;
}

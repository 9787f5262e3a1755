// The full system loop, end to end: a ReaderSession drives carrier epochs
// over a simulated deployment while a ReliableTransfer link retransmits
// anything the decoder missed, and broadcast rate control (§3.6) reacts to
// decode quality. This is the shape of a production deployment: swap the
// air-interface lambda for an SDR capture and everything else stays.
//
// Decoding runs through the concurrent runtime (src/runtime): each epoch
// capture streams chunk-wise through the worker pipeline, and every decoded
// frame also fans out live on the runtime's FrameBus.
#include <cstdio>

#include "protocol/reliability.h"
#include "reader/session.h"
#include "runtime/runtime.h"
#include "sim/scenario.h"

using namespace lfbs;

int main() {
  Rng rng(7117);

  // The deployment: twelve 100 kbps tags two metres out.
  sim::ScenarioConfig sc;
  sc.num_tags = 12;
  sim::Scenario scenario(sc, rng);

  // Work to deliver: 5 frames per tag.
  protocol::ReliableTransfer link(sc.num_tags);
  for (std::size_t t = 0; t < sc.num_tags; ++t) {
    for (int f = 0; f < 5; ++f) link.enqueue(t, rng.bits(96));
  }

  // The reader session; its air interface asks the link what each tag
  // should send this epoch, then captures the epoch. Decode goes through
  // the streaming runtime with two window workers.
  reader::SessionConfig session_config;
  session_config.epoch.duration = sc.epoch_duration;
  session_config.decoder = scenario.default_decoder();
  runtime::RuntimeConfig rc;
  rc.windowed.decoder = session_config.decoder;
  rc.workers = 2;
  runtime::DecodeRuntime rt(rc);
  std::size_t bus_frames = 0;
  rt.bus().subscribe([&](const runtime::FrameEvent& event) {
    if (event.frame.valid()) ++bus_frames;
  });
  reader::ReaderSession session(
      session_config,
      [&](BitRate max_rate, Seconds) {
        return scenario.capture_epoch(link.epoch_payloads(1), rng, max_rate);
      },
      [&rt](const signal::SampleBuffer& b) { return rt.decode(b).decode; });

  while (link.pending() > 0 && session.stats().epochs < 30) {
    const auto result = session.run_epoch();
    const std::size_t newly = link.on_epoch_decoded(result.valid_payloads());
    std::printf(
        "epoch %2zu @ max %-8s: %zu streams, +%zu delivered, %zu pending\n",
        session.stats().epochs,
        format_rate(session.current_max_rate()).c_str(),
        result.streams.size(), newly, link.pending());
  }

  const auto& stats = session.stats();
  std::printf(
      "\n(the scenario's tags are harvesting-class and ignore rate "
      "commands, as section 3.6 permits — the broadcasts above cost the "
      "reader nothing at the tags)\n");
  std::printf(
      "delivered %zu/%zu frames in %zu epochs (%.2f ms air time, "
      "%.0f kbps goodput, %zu rate commands)\n",
      link.delivered(), link.delivered() + link.pending() + link.abandoned(),
      stats.epochs, stats.air_time * 1e3, stats.goodput(96) / 1e3,
      stats.rate_commands);
  std::printf("frame bus delivered %zu CRC-valid frames live\n", bus_frames);
  const auto& lat = link.latency_histogram();
  for (std::size_t attempts = 1; attempts < lat.size(); ++attempts) {
    if (lat[attempts] > 0) {
      std::printf("  %zu frame(s) needed %zu attempt(s)\n", lat[attempts],
                  attempts);
    }
  }
  return link.pending() == 0 ? 0 : 1;
}

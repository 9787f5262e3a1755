// Fault drill: the same live deployment as runtime_stream, but the link
// misbehaves — chunks drop, samples corrupt to NaN/Inf/saturation, reads
// stall and throw transient errors. The paper's premise is that tags can
// fail-soft because the reader absorbs all complexity; this drill shows
// the software pipeline holding up its end: the run completes, health
// reports kDegraded with per-fault counters, and frames still decode from
// whatever survived.
//
//   sim::Scenario → ScenarioSource → FaultInjectingSource → runtime
//
// Exit status 0 iff the drill behaves: the run finishes degraded (not
// failed), every injected fault class is accounted for, and at least one
// CRC-valid frame made it through the damage.
#include <cstdio>

#include "runtime/fault_injector.h"
#include "runtime/runtime.h"
#include "sim/scenario.h"

using namespace lfbs;

int main() {
  Rng rng(77);

  sim::ScenarioConfig sc;
  sc.num_tags = 6;
  sim::Scenario scenario(sc, rng);

  runtime::ScenarioSource::Config source_config;
  source_config.epochs = 3;
  source_config.chunk_samples = 1 << 14;
  runtime::ScenarioSource source(scenario, rng, source_config);

  // The drill: 5% chunk loss, 1% sample corruption, occasional stalls and
  // transient read errors — deterministic from the seed.
  runtime::FaultPlan plan;
  plan.seed = 7;
  plan.drop_chunk = 0.05;
  plan.corrupt_sample = 0.01;
  plan.truncate_chunk = 0.02;
  plan.stall = 0.05;
  plan.stall_duration = 1e-3;
  plan.transient_error = 0.2;
  runtime::FaultInjectingSource faulty(source, plan);

  runtime::RuntimeConfig rc;
  rc.windowed.decoder = scenario.default_decoder();
  rc.workers = 2;
  runtime::DecodeRuntime rt(rc);

  std::printf("drill: %zu epochs from %zu tags through a faulty link...\n",
              source_config.epochs, scenario.num_tags());
  const auto run = rt.run(faulty);

  std::size_t valid = 0;
  for (const auto& s : run.decode.streams) {
    for (const auto& f : s.frames) {
      if (f.valid()) ++valid;
    }
  }

  const auto& in = faulty.injected();
  const auto& st = run.stats;
  std::printf(
      "injected: %zu chunk drops, %zu truncations, %llu corrupted samples "
      "(%llu non-finite), %zu stalls, %zu transient errors\n",
      in.chunks_dropped, in.chunks_truncated,
      static_cast<unsigned long long>(in.samples_corrupted),
      static_cast<unsigned long long>(in.samples_non_finite), in.stalls,
      in.errors_thrown);
  std::printf(
      "observed: health=%s, retries=%zu, scrubbed=%llu, gap=%llu samples, "
      "windows=%zu, streams=%zu, %zu CRC-valid frames\n",
      runtime::to_string(st.health), st.faults.source_retries,
      static_cast<unsigned long long>(st.faults.samples_scrubbed),
      static_cast<unsigned long long>(st.samples_gap), st.windows_decoded,
      st.streams, valid);

  const bool contained =
      st.health == runtime::HealthState::kDegraded &&
      st.faults.source_retries > 0 && st.faults.samples_scrubbed > 0 &&
      st.samples_gap > 0 && valid > 0;
  std::printf(contained ? "drill passed: degraded, never down\n"
                        : "drill FAILED\n");
  return contained ? 0 : 1;
}

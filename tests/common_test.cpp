// Tests for src/common: deterministic RNG, units, check macros, the
// key=value spec grammar every spec flag shares, and the process's worker
// pool behind parallel_for.
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/kv_spec.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "control/spec.h"
#include "net/admission.h"
#include "net/chaos/chaos.h"
#include "runtime/fault_injector.h"

namespace lfbs {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0, min = 1.0, max = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    min = std::min(min, u);
    max = std::max(max, u);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.contains(-2));
  EXPECT_TRUE(seen.contains(2));
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BitsLengthAndBalance) {
  Rng rng(29);
  const auto bits = rng.bits(10000);
  EXPECT_EQ(bits.size(), 10000u);
  int ones = 0;
  for (bool b : bits) ones += b ? 1 : 0;
  EXPECT_NEAR(ones, 5000, 300);
}

TEST(Rng, SplitIndependence) {
  Rng parent(31);
  Rng child = parent.split();
  // Child stream should not reproduce the parent's next outputs.
  Rng parent2(31);
  (void)parent2.split();
  EXPECT_EQ(parent.next_u64(), parent2.next_u64());  // parent deterministic
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, DerivedSeedsAreSplitmixOfSeedAndIndex) {
  // splitmix64 of seed + golden·(index + 1): the first output of an Rng
  // state word seeded at seed + golden·index.
  const std::uint64_t golden = 0x9e3779b97f4a7c15ull;
  for (const std::uint64_t seed : {0ull, 7ull, 0x1f5eedull}) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t index = 0; index < 64; ++index) {
      std::uint64_t z = seed + golden * (index + 1);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      EXPECT_EQ(derive_seed(seed, index), z ^ (z >> 31));
      seen.insert(derive_seed(seed, index));
    }
    EXPECT_EQ(seen.size(), 64u);
  }
}

TEST(Units, DbConversionsRoundTrip) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-9);
  EXPECT_NEAR(db_to_linear(3.0), 1.9953, 1e-3);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-9);
  for (double db : {-7.0, 0.0, 4.5, 30.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
}

TEST(Units, SamplesPerBit) {
  EXPECT_NEAR(samples_per_bit(25.0 * kMsps, 100.0 * kKbps), 250.0, 1e-9);
  EXPECT_NEAR(samples_per_bit(5.0 * kMsps, 10.0 * kKbps), 500.0, 1e-9);
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(500.0), "500 bps");
  EXPECT_EQ(format_rate(100.0 * kKbps), "100 kbps");
  EXPECT_EQ(format_rate(2.5e6), "2.5 Mbps");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(2.0), "2 s");
  EXPECT_EQ(format_duration(1.5e-3), "1.5 ms");
  EXPECT_EQ(format_duration(10e-6), "10 us");
}

TEST(Units, MagnitudeWithinOneUlpOfStdAbs) {
  // Magnitudes log-uniform over [1e-6, 10], phases uniform. Positive
  // doubles order like their bit patterns, so one ulp is a bit distance
  // of one.
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) {
    const double r = std::exp(rng.uniform(std::log(1e-6), std::log(10.0)));
    const Complex z = std::polar(r, rng.uniform(0.0, 6.283185307179586));
    const auto exact = std::bit_cast<std::int64_t>(std::abs(z));
    const auto fast = std::bit_cast<std::int64_t>(magnitude(z));
    ASSERT_LE(std::abs(exact - fast), 1) << "z = " << z;
  }
  EXPECT_EQ(magnitude(Complex{0.0, 0.0}), 0.0);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(LFBS_CHECK(1 == 2), CheckError);
  EXPECT_NO_THROW(LFBS_CHECK(1 == 1));
  try {
    LFBS_CHECK_MSG(false, "context message");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(SpecGrammar, EveryGrammarRejectsTheSameBadInputsTyped) {
  // The four spec grammars, each fed the same malformed inputs (written
  // with one of its own integer keys), must answer with the same typed
  // code; then each gets out-of-range values for its own keys.
  struct Grammar {
    const char* flag;
    std::function<void(const std::string&)> parse;
    std::string int_key;
    std::vector<std::string> out_of_range;
  };
  const Grammar grammars[] = {
      {"--quota", [](const std::string& s) { net::parse_quota_spec(s); },
       "conns", {"conns=0", "retry-after=-1"}},
      {"--control",
       [](const std::string& s) { control::parse_control_spec(s); }, "seed",
       {"min-confidence=1.5", "penalty=-1"}},
      {"--chaos", [](const std::string& s) { net::parse_chaos_config(s); },
       "seed", {"refuse=1.5", "reset=-0.2", "stall-ms=-5", "jitter-ms=-1"}},
      {"--inject-faults",
       [](const std::string& s) { runtime::parse_fault_plan(s); }, "seed",
       {"drop=1.5", "error=-0.1", "stall-ms=-5"}},
  };
  const auto code_of = [](const Grammar& g,
                          const std::string& spec) -> std::optional<SpecError> {
    try {
      g.parse(spec);
    } catch (const SpecParseError& e) {
      return e.code();
    }
    return std::nullopt;
  };
  for (const Grammar& g : grammars) {
    SCOPED_TRACE(g.flag);
    const std::string& k = g.int_key;
    const std::pair<std::string, SpecError> shared[] = {
        {k + "=1,," + k + "=2", SpecError::kEmpty},
        {"," + k + "=1", SpecError::kEmpty},
        {k + "=1,", SpecError::kEmpty},
        {",", SpecError::kEmpty},
        {k, SpecError::kBadValue},  // no '='
        {k + "=", SpecError::kBadValue},
        {k + "=-1", SpecError::kBadValue},  // integers take no sign
        {k + "=1x", SpecError::kBadValue},
        {k + "=nan", SpecError::kBadValue},
        {"no-such-key=1", SpecError::kBadKey},
    };
    for (const auto& [spec, want] : shared) {
      EXPECT_EQ(code_of(g, spec), want) << spec;
    }
    for (const std::string& spec : g.out_of_range) {
      EXPECT_EQ(code_of(g, spec), SpecError::kBadValue) << spec;
    }
  }
}

// --- parallel_for ------------------------------------------------------------

TEST(ParallelFor, NoTasksRunsNothing) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, OneTaskRunsOnTheCaller) {
  std::thread::id ran;
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran = std::this_thread::get_id();
  });
  EXPECT_EQ(ran, std::this_thread::get_id());
}

TEST(ParallelFor, ManyTasksRunEveryIndexOnce) {
  std::vector<std::atomic<int>> runs(1000);
  parallel_for(runs.size(), [&](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ThrowingTasksRethrowTheLowestIndexAfterEveryTaskEnds) {
  // Tasks throw on whichever thread runs them; none may terminate the
  // process, every other task still runs, and the caller sees index 5's.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    try {
      parallel_for(64, [&](std::size_t i) {
        if (i == 40 || i == 5 || i == 17) {
          throw std::runtime_error(std::to_string(i));
        }
        ran.fetch_add(1);
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "5");
    }
    EXPECT_EQ(ran.load(), 61);
  }
}

TEST(ParallelFor, NestedAndConcurrentCallsFinish) {
  // Three callers at once, each of whose tasks calls parallel_for again:
  // the shape of the runtime's window workers decoding on one pool.
  std::atomic<int> leaves{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      for (int r = 0; r < 20; ++r) {
        parallel_for(8, [&](std::size_t) {
          parallel_for(8, [&](std::size_t) { leaves.fetch_add(1); });
        });
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(leaves.load(), 3 * 20 * 8 * 8);
}

/// Runs two tasks that each wait, up to `wait`, for the other to start.
/// Returns how many threads ran them: 2 when a helper took one, 1 when the
/// caller ran both.
int threads_running_two_waiting_tasks(std::chrono::milliseconds wait) {
  std::atomic<int> started{0};
  std::thread::id ran[2];
  parallel_for(2, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  return ran[0] == ran[1] ? 1 : 2;
}

/// Forks a child that runs `body` and exits with its result; returns that
/// exit code, or -1 when the child dies or runs past 60 s.
int exit_code_of_forked(const std::function<int()>& body) {
  const pid_t pid = fork();
  if (pid == 0) _exit(body());  // no gtest in the child
  if (pid < 0) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ParallelFor, AForkedChildRunsOnAPoolOfItsOwn) {
  // The parent's helpers do not exist in a forked child. The child makes
  // its own pool, sized from its own CPU affinity, and the parent's pool
  // takes its helpers back after the fork.
  cpu_set_t cpus;
  ASSERT_EQ(sched_getaffinity(0, sizeof(cpus), &cpus), 0);
  const int expected = CPU_COUNT(&cpus) > 1 ? 2 : 1;
  const auto patient = std::chrono::milliseconds(10000);
  EXPECT_EQ(threads_running_two_waiting_tasks(patient), expected);

  EXPECT_EQ(exit_code_of_forked([&] {
              return threads_running_two_waiting_tasks(patient);
            }),
            expected);
  EXPECT_EQ(exit_code_of_forked([&] {
              // Pinned to one CPU before its pool exists: no helpers.
              cpu_set_t one;
              CPU_ZERO(&one);
              for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &cpus)) {
                  CPU_SET(c, &one);
                  break;
                }
              }
              if (sched_setaffinity(0, sizeof(one), &one) != 0) return 0;
              return threads_running_two_waiting_tasks(
                  std::chrono::milliseconds(200));
            }),
            1);
  EXPECT_EQ(threads_running_two_waiting_tasks(patient), expected);
}

}  // namespace
}  // namespace lfbs

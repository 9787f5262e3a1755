#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <string>

namespace lfbs {

/// Complex baseband sample / vector type used throughout decode paths.
/// Double precision: decode math (cluster geometry, Viterbi emissions)
/// is numerically gentler in double, and the pipelines are nowhere near
/// memory-bandwidth bound at the simulated sample counts.
using Complex = std::complex<double>;

/// |z| as sqrt(norm(z)), for loops that run per sample or per point:
/// std::abs calls libm's hypot, about ten times slower. Within one ulp of
/// std::abs; unlike hypot it gives up the guard against overflow, which
/// decode values (IQ samples and their differences) never approach.
inline double magnitude(Complex z) { return std::sqrt(std::norm(z)); }

/// Bits per second. Tag bitrates in the paper range 0.5 kbps – 250 kbps.
using BitRate = double;

/// Samples per second at the reader ADC (paper: 25 Msps USRP N210).
using SampleRate = double;

/// Seconds.
using Seconds = double;

/// Index into a sample buffer.
using SampleIndex = std::int64_t;

constexpr double kKbps = 1e3;
constexpr double kMbps = 1e6;
constexpr double kMsps = 1e6;
constexpr double kMicro = 1e-6;
constexpr double kMilli = 1e-3;

/// Decibels <-> linear power ratio.
double db_to_linear(double db);
double linear_to_db(double linear);

/// Pretty printers used by the bench tables ("100 kbps", "25 Msps", ...).
std::string format_rate(BitRate bps);
std::string format_duration(Seconds s);

/// Number of reader samples in one bit period; e.g. 250 at 25 Msps / 100 kbps.
inline double samples_per_bit(SampleRate fs, BitRate rate) {
  return fs / rate;
}

}  // namespace lfbs

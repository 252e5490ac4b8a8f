#pragma once
// Virtual-time types for the discrete-event simulation.
//
// All simulated clocks are 64-bit signed picosecond counts. Picoseconds give
// sub-nanosecond resolution (the Data Vortex switch cycle is a few ns) while
// still covering ~106 days of simulated time, far beyond any run here.

#include <cstdint>

namespace dvx::sim {

/// Absolute virtual time in picoseconds since the start of the simulation.
using Time = std::int64_t;
/// A span of virtual time in picoseconds.
using Duration = std::int64_t;

inline constexpr Duration kPicosecond = 1;
inline constexpr Duration kNanosecond = 1'000;
inline constexpr Duration kMicrosecond = 1'000'000;
inline constexpr Duration kMillisecond = 1'000'000'000;
inline constexpr Duration kSecond = 1'000'000'000'000;

/// Builds a Duration from a (possibly fractional) count of nanoseconds.
constexpr Duration ns(double v) { return static_cast<Duration>(v * kNanosecond); }
/// Builds a Duration from a (possibly fractional) count of microseconds.
constexpr Duration us(double v) { return static_cast<Duration>(v * kMicrosecond); }
/// Builds a Duration from a (possibly fractional) count of milliseconds.
constexpr Duration ms(double v) { return static_cast<Duration>(v * kMillisecond); }
/// Builds a Duration from a (possibly fractional) count of seconds.
constexpr Duration seconds(double v) { return static_cast<Duration>(v * kSecond); }

/// Converts a virtual time span to floating-point seconds (for reporting).
constexpr double to_seconds(Duration d) { return static_cast<double>(d) / kSecond; }
/// Converts a virtual time span to floating-point microseconds (for reporting).
constexpr double to_us(Duration d) { return static_cast<double>(d) / kMicrosecond; }

/// Time to move `bytes` at `bytes_per_sec`, rounded up to a whole picosecond.
/// A small relative tolerance absorbs floating-point noise so that exact
/// multiples (1 byte at 1 GB/s = 1000 ps) do not round up spuriously.
constexpr Duration transfer_time(std::int64_t bytes, double bytes_per_sec) {
  if (bytes <= 0) return 0;
  const double secs = static_cast<double>(bytes) / bytes_per_sec;
  const double psd = secs * static_cast<double>(kSecond);
  const double adjusted = psd * (1.0 - 1e-9);
  const auto whole = static_cast<Duration>(adjusted);
  return whole + (static_cast<double>(whole) < adjusted ? 1 : 0);
}

/// Sustained rate implied by moving `bytes` in `d` (bytes/second).
constexpr double rate_bytes_per_sec(std::int64_t bytes, Duration d) {
  if (d <= 0) return 0.0;
  return static_cast<double>(bytes) / to_seconds(d);
}

}  // namespace dvx::sim

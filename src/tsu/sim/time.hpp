// Simulated time: 64-bit nanoseconds since simulation start.
#pragma once

#include <cstdint>

namespace tsu::sim {

using SimTime = std::uint64_t;   // absolute, ns
using Duration = std::uint64_t;  // relative, ns

inline constexpr Duration nanoseconds(std::uint64_t n) { return n; }
inline constexpr Duration microseconds(std::uint64_t n) { return n * 1'000ULL; }
inline constexpr Duration milliseconds(std::uint64_t n) {
  return n * 1'000'000ULL;
}
inline constexpr Duration seconds(std::uint64_t n) {
  return n * 1'000'000'000ULL;
}

inline constexpr double to_ms(Duration d) {
  return static_cast<double>(d) / 1e6;
}
inline constexpr double to_us(Duration d) {
  return static_cast<double>(d) / 1e3;
}

// The largest millisecond amount a Duration holds (ms * 1e6 stays below
// 2^64 ns). Parsers of untrusted input reject anything outside
// [0, kMaxMs] - NaN and infinities included - with kOutOfRange.
inline constexpr double kMaxMs = 1.8e13;
inline constexpr bool valid_ms(double ms) { return ms >= 0 && ms <= kMaxMs; }

// Converts a double amount of milliseconds to a Duration: NaN and
// negative amounts give 0, amounts past kMaxMs saturate.
Duration from_ms(double ms) noexcept;

}  // namespace tsu::sim

// time.hpp — simulated time as signed nanoseconds.
//
// SimTime is an aggregate so benches can reconstruct stamps with
// `SimTime{ns}`. It does double duty as instant and duration; the
// scheduler owns "now" and everything else is arithmetic.
#pragma once

#include <cstdint>

namespace rina {

struct SimTime {
  std::int64_t ns = 0;

  static constexpr SimTime from_us(double v) {
    return SimTime{static_cast<std::int64_t>(v * 1e3)};
  }
  static constexpr SimTime from_ms(double v) {
    return SimTime{static_cast<std::int64_t>(v * 1e6)};
  }
  static constexpr SimTime from_sec(double v) {
    return SimTime{static_cast<std::int64_t>(v * 1e9)};
  }

  [[nodiscard]] constexpr double to_us() const { return static_cast<double>(ns) / 1e3; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns) / 1e6; }
  [[nodiscard]] constexpr double to_sec() const { return static_cast<double>(ns) / 1e9; }

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns + o.ns}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns - o.ns}; }
  constexpr SimTime& operator+=(SimTime o) {
    ns += o.ns;
    return *this;
  }
  constexpr bool operator<(SimTime o) const { return ns < o.ns; }
  constexpr bool operator<=(SimTime o) const { return ns <= o.ns; }
  constexpr bool operator>(SimTime o) const { return ns > o.ns; }
  constexpr bool operator>=(SimTime o) const { return ns >= o.ns; }
  constexpr bool operator==(SimTime o) const { return ns == o.ns; }
  constexpr bool operator!=(SimTime o) const { return ns != o.ns; }
};

namespace sim {
using rina::SimTime;
}  // namespace sim

}  // namespace rina

// Numeric flag values, parsed alike by netqosmon and netqosctl.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "common/sim_time.h"

namespace netqos::cli {

/// Largest time, in seconds, a flag may give: half of SimTime's range,
/// so the time plus another one still fits the clock.
inline constexpr double kMaxFlagSeconds =
    to_seconds(std::numeric_limits<SimTime>::max() / 2);

/// The number the whole of `text` spells, when it is finite and lies in
/// [min, max]. Otherwise (an empty token, trailing characters, inf, nan
/// or a value out of range) says so on stderr, naming `flag`, and
/// returns nullopt.
inline std::optional<double> parse_number(const char* flag,
                                          const std::string& text,
                                          double min, double max) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value) ||
      value < min || value > max) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text.c_str(), flag);
    return std::nullopt;
  }
  return value;
}

}  // namespace netqos::cli

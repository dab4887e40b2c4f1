// Strict readers for numbers from outside the program (command lines,
// fault plans): the whole text must be the number, so "1x", "" and " 1"
// are errors, never the 1 or 0 that std::atoi reads.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace dkfac {

/// `text` as a T: decimal digits only (no sign, blank or other character)
/// and no larger than T holds. Throws Error naming `what` otherwise.
template <typename T>
T parse_number(std::string_view text, std::string_view what) {
  constexpr auto kMax = static_cast<uint64_t>(std::numeric_limits<T>::max());
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, err] = std::from_chars(text.data(), end, v);
  if (err != std::errc() || stop != end || v > kMax) {
    throw Error(std::string(what) + " '" + std::string(text) +
                "' is not a whole number in [0, " + std::to_string(kMax) +
                "]");
  }
  return static_cast<T>(v);
}

/// `text` as a finite T (float or double) in [lo, hi), in std::from_chars'
/// general format with nothing around it. Throws Error naming `what`
/// otherwise.
template <typename T>
T parse_real(std::string_view text, std::string_view what,
             T lo = std::numeric_limits<T>::lowest(),
             T hi = std::numeric_limits<T>::infinity()) {
  T v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, err] = std::from_chars(text.data(), end, v);
  // NaN fails both comparisons; ±inf lies outside every range.
  if (err != std::errc() || stop != end || !(v >= lo && v < hi)) {
    std::ostringstream msg;
    msg << what << " '" << text << "' is not a finite number in [" << lo
        << ", " << hi << ")";
    throw Error(msg.str());
  }
  return v;
}

}  // namespace dkfac

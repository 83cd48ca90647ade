#include "util/fixed.hpp"

#include <cmath>
#include <stdexcept>

namespace metacore::util {

void QFormat::validate() const {
  if (word_bits < 2 || word_bits > 62) {
    throw std::invalid_argument("QFormat: word bits out of [2, 62]");
  }
  if (frac_bits < 0 || frac_bits >= word_bits) {
    throw std::invalid_argument("QFormat: fractional bits out of range");
  }
}

double QFormat::resolution() const { return std::ldexp(1.0, -frac_bits); }

double QFormat::max_value() const {
  return std::ldexp(static_cast<double>((std::int64_t{1} << (word_bits - 1)) - 1),
                    -frac_bits);
}

double QFormat::min_value() const {
  return std::ldexp(-static_cast<double>(std::int64_t{1} << (word_bits - 1)),
                    -frac_bits);
}

std::string QFormat::label() const {
  std::string label = "Q";
  label += std::to_string(integer_bits());
  label += '.';
  label += std::to_string(frac_bits);
  return label;
}

namespace {

std::int64_t saturate_raw(std::int64_t raw, const QFormat& format,
                          bool& clipped) {
  const std::int64_t hi = (std::int64_t{1} << (format.word_bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (format.word_bits - 1));
  if (raw > hi) {
    clipped = true;
    return hi;
  }
  if (raw < lo) {
    clipped = true;
    return lo;
  }
  return raw;
}

}  // namespace

Fixed::Fixed(double value, QFormat format) : format_(format) {
  format_.validate();
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Fixed: non-finite value");
  }
  const double scaled = std::ldexp(value, format_.frac_bits);
  // Round to nearest; representable range enforced by saturation.
  const double rounded = std::nearbyint(scaled);
  bool clipped = false;
  if (rounded >= std::ldexp(1.0, 62) || rounded <= -std::ldexp(1.0, 62)) {
    raw_ = saturate_raw(rounded > 0 ? INT64_MAX : INT64_MIN, format_, clipped);
  } else {
    raw_ = saturate_raw(static_cast<std::int64_t>(rounded), format_, clipped);
  }
  saturated_ = clipped;
}

Fixed::Fixed(std::int64_t raw, QFormat format, bool saturated)
    : raw_(raw), format_(format), saturated_(saturated) {}

double Fixed::to_double() const {
  return std::ldexp(static_cast<double>(raw_), -format_.frac_bits);
}

Fixed Fixed::add(const Fixed& other) const {
  if (other.format_.word_bits != format_.word_bits ||
      other.format_.frac_bits != format_.frac_bits) {
    throw std::invalid_argument("Fixed::add: format mismatch");
  }
  bool clipped = false;
  const std::int64_t raw = saturate_raw(raw_ + other.raw_, format_, clipped);
  return Fixed(raw, format_, clipped);
}

Fixed Fixed::sub(const Fixed& other) const {
  if (other.format_.word_bits != format_.word_bits ||
      other.format_.frac_bits != format_.frac_bits) {
    throw std::invalid_argument("Fixed::sub: format mismatch");
  }
  bool clipped = false;
  const std::int64_t raw = saturate_raw(raw_ - other.raw_, format_, clipped);
  return Fixed(raw, format_, clipped);
}

Fixed Fixed::mul(const Fixed& other) const {
  // Exact product carries frac_bits + other.frac_bits fractional bits;
  // round back to this operand's format (hardware: multiplier followed by
  // a rounding shifter).
  const __int128 product =
      static_cast<__int128>(raw_) * static_cast<__int128>(other.raw_);
  const int shift = other.format_.frac_bits;
  const __int128 half = shift > 0 ? (__int128{1} << (shift - 1)) : 0;
  // Round half away from zero, then arithmetic shift.
  const __int128 adjusted = product >= 0 ? product + half : product - half;
  const __int128 shifted = adjusted / (__int128{1} << shift);
  bool clipped = false;
  std::int64_t raw;
  const std::int64_t hi = (std::int64_t{1} << (format_.word_bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (format_.word_bits - 1));
  if (shifted > hi) {
    raw = hi;
    clipped = true;
  } else if (shifted < lo) {
    raw = lo;
    clipped = true;
  } else {
    raw = static_cast<std::int64_t>(shifted);
  }
  return Fixed(raw, format_, clipped);
}

}  // namespace metacore::util

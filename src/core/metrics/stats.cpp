#include "core/metrics/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ara::metrics {

namespace {

// ---- Exact sums ------------------------------------------------------------
//
// A chunk array holds Σ chunk[i]·2^(32i) in units of its chunk 0's
// weight. add_nonzero drops each 32-bit piece of a value into one chunk
// without carrying; carry_chunks moves everything above bit 32 of a
// chunk into the next, leaving chunks in [0, 2^32) and the top signed.

constexpr int kSumLsb = -1074;     // weight exponent of Σx's chunk 0
constexpr int kSquareLsb = -2148;  // weight exponent of Σx²'s chunk 0
constexpr std::uint64_t kLow32 = 0xFFFFFFFFu;
// A piece is < 2^52, so 512 adds plus one merge keep every chunk far
// below 2^63 between carries.
constexpr unsigned kCarryInterval = 512;

using u128 = unsigned __int128;

template <std::size_t N>
void carry_chunks(std::array<std::int64_t, N>& c) {
  for (std::size_t i = 0; i + 1 < N; ++i) {
    c[i + 1] += c[i] >> 32;  // arithmetic shift: floor division
    c[i] &= static_cast<std::int64_t>(kLow32);
  }
}

// The finishes' arbitrary-precision scratch: digits · 2^lsb, digits
// little-endian base 2^32 with no zero limb on top (zero is empty).
// The helpers below work on magnitudes.
struct Big {
  std::vector<std::uint32_t> digits;
  int lsb = 0;
};

void trim(Big& x) {
  while (!x.digits.empty() && x.digits.back() == 0) x.digits.pop_back();
}

std::size_t bit_length(const Big& x) {
  return x.digits.empty() ? 0
                          : 32 * (x.digits.size() - 1) +
                                std::bit_width(x.digits.back());
}

// The 64 bits of x's digits starting at bit `pos` (zeros past the top).
std::uint64_t bits64(const Big& x, std::size_t pos) {
  const std::size_t first = pos / 32;
  u128 window = 0;
  for (std::size_t k = 0; k < 3 && first + k < x.digits.size(); ++k) {
    window |= static_cast<u128>(x.digits[first + k]) << (32 * k);
  }
  return static_cast<std::uint64_t>(window >> (pos % 32));
}

// Whether any digit bit below bit `pos` is set.
bool any_below(const Big& x, std::size_t pos) {
  const std::size_t whole = std::min(pos / 32, x.digits.size());
  for (std::size_t i = 0; i < whole; ++i) {
    if (x.digits[i] != 0) return true;
  }
  return whole < x.digits.size() &&
         (x.digits[whole] & ((std::uint32_t{1} << (pos % 32)) - 1)) != 0;
}

// The exact value of a chunk array whose chunk 0 weighs 2^lsb, without
// the zero limbs below its lowest set bit.
template <std::size_t N>
Big exact_value(std::array<std::int64_t, N> c, int lsb, bool& negative) {
  carry_chunks(c);
  negative = c[N - 1] < 0;
  if (negative) {
    for (std::int64_t& v : c) v = -v;
    carry_chunks(c);
  }
  std::size_t first = 0;
  while (first < N && c[first] == 0) ++first;
  Big out;
  if (first == N) return out;
  out.lsb = lsb + static_cast<int>(32 * first);
  for (std::size_t i = first; i + 1 < N; ++i) {
    out.digits.push_back(static_cast<std::uint32_t>(c[i]));
  }
  const auto top = static_cast<std::uint64_t>(c[N - 1]);
  out.digits.push_back(static_cast<std::uint32_t>(top));
  out.digits.push_back(static_cast<std::uint32_t>(top >> 32));
  trim(out);
  return out;
}

Big from_count(std::uint64_t n) {
  Big out;
  out.digits = {static_cast<std::uint32_t>(n),
                static_cast<std::uint32_t>(n >> 32)};
  trim(out);
  return out;
}

// x re-expressed with `lsb` (a whole number of limbs below x.lsb).
void widen(Big& x, int lsb) {
  const auto limbs = static_cast<std::size_t>((x.lsb - lsb) / 32);
  x.digits.insert(x.digits.begin(), limbs, 0);
  x.lsb = lsb;
}

Big product(const Big& a, const Big& b) {
  Big out;
  if (a.digits.empty() || b.digits.empty()) return out;
  out.lsb = a.lsb + b.lsb;
  out.digits.assign(a.digits.size() + b.digits.size(), 0);
  for (std::size_t i = 0; i < a.digits.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.digits.size(); ++j) {
      const std::uint64_t t =
          std::uint64_t{a.digits[i]} * b.digits[j] + out.digits[i + j] + carry;
      out.digits[i + j] = static_cast<std::uint32_t>(t);
      carry = t >> 32;
    }
    out.digits[i + b.digits.size()] = static_cast<std::uint32_t>(carry);
  }
  trim(out);
  return out;
}

// a − b for a >= b.
Big difference(Big a, Big b) {
  if (b.digits.empty()) return a;
  const int lsb = std::min(a.lsb, b.lsb);
  widen(a, lsb);
  widen(b, lsb);
  if (b.digits.size() > a.digits.size()) {
    throw std::logic_error("ExactMoments: negative spread");
  }
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.digits.size(); ++i) {
    std::int64_t t = std::int64_t{a.digits[i]} - borrow -
                     (i < b.digits.size() ? std::int64_t{b.digits[i]} : 0);
    borrow = t < 0;
    if (borrow) t += std::int64_t{1} << 32;
    a.digits[i] = static_cast<std::uint32_t>(t);
  }
  if (borrow) throw std::logic_error("ExactMoments: negative spread");
  trim(a);
  return a;
}

// x = floor(x / d); returns whether the division left a remainder.
bool divide(Big& x, std::uint64_t d) {
  u128 rem = 0;
  for (std::size_t i = x.digits.size(); i-- > 0;) {
    rem = (rem << 32) | x.digits[i];
    x.digits[i] = static_cast<std::uint32_t>(rem / d);
    rem %= d;
  }
  trim(x);
  return rem != 0;
}

// floor(sqrt(v)), digit by digit; `exact` receives whether v is its
// square.
std::uint64_t isqrt(u128 v, bool& exact) {
  u128 root = 0;
  u128 bit = u128{1} << 126;
  while (bit > v) bit >>= 2;
  for (; bit != 0; bit >>= 2) {
    if (v >= root + bit) {
      v -= root + bit;
      root = (root >> 1) + bit;
    } else {
      root >>= 1;
    }
  }
  exact = v == 0;
  return static_cast<std::uint64_t>(root);
}

// The double nearest (ties to even) to x plus a fraction of x's lsb that
// is non-zero exactly when `sticky`. The callers leave at least one
// digit bit below the result's last bit, so the guard bit is x's own.
double round_to_double(const Big& x, bool sticky, bool negative) {
  const std::size_t len = bit_length(x);
  if (len == 0) return 0.0;
  const int top = x.lsb + static_cast<int>(len) - 1;
  const int ulp = std::max(top - 52, -1074);
  const auto drop = static_cast<std::size_t>(ulp - x.lsb);
  std::uint64_t kept = bits64(x, drop);
  const bool guard = (bits64(x, drop - 1) & 1) != 0;
  if (guard && (sticky || any_below(x, drop - 1) || (kept & 1) != 0)) ++kept;
  const double v = std::ldexp(static_cast<double>(kept), ulp);
  return negative ? -v : v;
}

}  // namespace

// ---- ExactMoments ----------------------------------------------------------

void ExactMoments::add(std::span<const double> xs) {
  count_ += xs.size();
  // Each stretch's non-zero values are packed without a branch, then
  // added: a sample that mixes zero and non-zero years pays no
  // mispredicted branch per value, and a zero costs one compare.
  std::array<std::uint64_t, 256> packed{};
  for (std::size_t begin = 0; begin < xs.size(); begin += packed.size()) {
    const std::size_t end = std::min(xs.size(), begin + packed.size());
    std::size_t k = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(xs[i]);
      packed[k] = bits;
      k += (bits << 1) != 0;
    }
    for (std::size_t i = 0; i < k; ++i) add_nonzero(packed[i]);
  }
}

void ExactMoments::add_nonzero(std::uint64_t bits) {
  const auto biased = static_cast<unsigned>(bits >> 52 & 0x7FF);
  if (biased == 0x7FF) {
    nonfinite_ += std::bit_cast<double>(bits);
    return;
  }
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  if (biased != 0) m |= std::uint64_t{1} << 52;
  // |x| = m·2^q in units of 2^-1074 (subnormals have q = 0).
  const unsigned q = biased == 0 ? 0 : biased - 1;

  const unsigned i = q / 32;
  const unsigned s = q % 32;
  const auto lo = static_cast<std::int64_t>((m << s) & kLow32);
  const auto hi = static_cast<std::int64_t>(m >> (32 - s));
  if (bits >> 63) {
    sum_[i] -= lo;
    sum_[i + 1] -= hi;
  } else {
    sum_[i] += lo;
    sum_[i + 1] += hi;
  }

  // x² = m²·2^(2q) in units of 2^-2148; m² has at most 106 bits.
  const unsigned j = 2 * q / 32;
  const unsigned t = 2 * q % 32;
  const u128 sq = static_cast<u128>(m) * m;
  const u128 shifted = sq << t;  // only its low 96 bits are read
  square_[j] += static_cast<std::int64_t>(
      static_cast<std::uint64_t>(shifted) & kLow32);
  square_[j + 1] += static_cast<std::int64_t>(
      static_cast<std::uint64_t>(shifted >> 32) & kLow32);
  square_[j + 2] += static_cast<std::int64_t>(
      static_cast<std::uint64_t>(shifted >> 64) & kLow32);
  square_[j + 3] += static_cast<std::int64_t>(sq >> (96 - t));

  if (++pending_ == kCarryInterval) carry();
}

void ExactMoments::carry() {
  carry_chunks(sum_);
  carry_chunks(square_);
  pending_ = 0;
}

void ExactMoments::merge(const ExactMoments& other) {
  for (std::size_t i = 0; i < kSumChunks; ++i) sum_[i] += other.sum_[i];
  for (std::size_t i = 0; i < kSquareChunks; ++i) {
    square_[i] += other.square_[i];
  }
  count_ += other.count_;
  nonfinite_ += other.nonfinite_;
  carry();
}

double ExactMoments::mean() const {
  if (nonfinite_ != 0.0) return nonfinite_;  // a non-finite sum is never 0
  if (count_ == 0) return 0.0;
  bool negative = false;
  Big sum = exact_value(sum_, kSumLsb, negative);
  if (sum.digits.empty()) return 0.0;
  // 128 bits below the sum's lowest set bit leave the quotient over 64
  // significant bits for any count.
  widen(sum, sum.lsb - 128);
  const bool sticky = divide(sum, count_);
  return round_to_double(sum, sticky, negative);
}

double ExactMoments::stddev() const {
  if (nonfinite_ != 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (count_ < 2) return 0.0;
  bool negative = false;
  const Big sum = exact_value(sum_, kSumLsb, negative);
  const Big squares = exact_value(square_, kSquareLsb, negative);
  // n·Σx² − (Σx)², exactly (Σx's lsb squared is Σx²'s): never negative,
  // and 0 for a constant sample.
  Big spread = difference(product(squares, from_count(count_)),
                          product(sum, sum));
  if (spread.digits.empty()) return 0.0;
  // 256 bits below the spread's lowest set bit leave the quotient over
  // 128 bits for any count; the two floor divisions are one by
  // n·(n − 1), and its remainder is zero only if both of theirs are.
  widen(spread, spread.lsb - 256);
  bool sticky = divide(spread, count_);
  sticky |= divide(spread, count_ - 1);

  // The root of the variance's leading 125 or 126 bits, cut at an even
  // bit so the root's weight is a whole power of two, is the floor of
  // the exact root's leading bits; any bit or remainder cut off makes
  // that root inexact.
  const std::size_t len = bit_length(spread);
  std::size_t cut = len - 126;
  cut += cut & 1;
  const u128 window = static_cast<u128>(bits64(spread, cut + 64)) << 64 |
                      bits64(spread, cut);
  sticky |= any_below(spread, cut);
  bool exact = false;
  const std::uint64_t root = isqrt(window, exact);
  Big r = from_count(root);
  r.lsb = (spread.lsb + static_cast<int>(cut)) / 2;
  return round_to_double(r, sticky || !exact, false);
}

// ---- Sample statistics -----------------------------------------------------

double mean(std::span<const double> xs) {
  ExactMoments moments;
  moments.add(xs);
  return moments.mean();
}

double stddev(std::span<const double> xs) {
  ExactMoments moments;
  moments.add(xs);
  return moments.stddev();
}

double min_value(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("min_value: empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("max_value: empty sample");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("quantile: empty sample");
  }
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("quantile: p must be in [0, 1]");
  }
  const double h = p * (static_cast<double>(sorted.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> xs, double p) {
  const std::vector<double> v = sorted_copy(xs);
  return quantile_sorted(v, p);
}

}  // namespace ara::metrics

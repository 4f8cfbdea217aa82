// Basic sample statistics used by the risk measures.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ara::metrics {

/// Exact Σx and Σx² of a sample of doubles: the one mean family every
/// AAL and standard deviation in the library is finished from.
///
/// Each sum is a small superaccumulator (Neal, "Fast exact summation
/// using small and large superaccumulators", arXiv:1505.05571): signed
/// 64-bit chunks of 32 bits each, wide enough for every finite double
/// (Σx) or every finite double's square taken from its integer
/// significand (Σx²), with carries propagated before a chunk can
/// overflow. No value is ever rounded on the way in, so the sums — and
/// the mean and standard deviation, each rounded once when finished —
/// depend only on the multiset of values: not on their order, nor on
/// how the sample was split into accumulators and merged back.
///
/// A NaN or infinite value makes both finishes non-finite.
class ExactMoments {
 public:
  /// Adds every value of `xs` (a zero costs one compare).
  void add(std::span<const double> xs);
  /// Adds every value `other` holds, exactly.
  void merge(const ExactMoments& other);

  /// Σx / n, correctly rounded; 0 for an empty sample.
  double mean() const;
  /// sqrt((n·Σx² − (Σx)²) / (n·(n − 1))), the unbiased sample standard
  /// deviation, correctly rounded; 0 for n < 2, so exactly 0 for a
  /// constant sample.
  double stddev() const;

 private:
  // Σx's lowest chunk weighs 2^-1074 (the smallest subnormal), Σx²'s
  // 2^-2148; both reach past 2^64 copies of the largest finite value.
  static constexpr std::size_t kSumChunks = 67;
  static constexpr std::size_t kSquareChunks = 133;

  void add_nonzero(std::uint64_t bits);
  void carry();

  std::array<std::int64_t, kSumChunks> sum_{};
  std::array<std::int64_t, kSquareChunks> square_{};
  std::size_t count_ = 0;
  unsigned pending_ = 0;    ///< values added since the last carry()
  double nonfinite_ = 0.0;  ///< IEEE sum of the NaN/inf inputs, else 0
};

/// Arithmetic mean (0 for an empty sample): ExactMoments::mean.
double mean(std::span<const double> xs);

/// Unbiased sample standard deviation (0 for n < 2):
/// ExactMoments::stddev.
double stddev(std::span<const double> xs);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// p-quantile (0 <= p <= 1) with linear interpolation between order
/// statistics (type-7, the R/NumPy default). Throws
/// std::invalid_argument on empty input or p outside [0, 1].
double quantile(std::span<const double> xs, double p);

/// Quantile on data the caller has already sorted ascending (avoids
/// the copy/sort when many quantiles are taken from one sample).
double quantile_sorted(std::span<const double> sorted, double p);

/// Ascending sorted copy.
std::vector<double> sorted_copy(std::span<const double> xs);

}  // namespace ara::metrics

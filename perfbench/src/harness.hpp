// Measurement harness of the perfbench benchmark: span recording,
// nearest-rank statistics, the seeded open-loop arrival schedule,
// answer checks against the reference engine, input fingerprints and
// host attribution. Everything here is independent of which workload
// runs, so the self-test binary exercises it directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/layer.hpp"
#include "core/metrics/metrics_spec.hpp"
#include "core/yet.hpp"
#include "core/ylt.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- Statistics -----------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p of the
/// samples at or below it (rank ceil(p * n), 1-based). p in (0, 1].
/// Throws std::invalid_argument on an empty sample.
double nearest_rank(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5);
}

// ---- Spans ----------------------------------------------------------------

/// One traced call: which layer function, when, under which parent
/// span and for which request (analysis or serve request id).
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     ///< index of the parent span, -1 for a root
  std::uint64_t request = 0;
  double duration() const { return end - start; }
};

/// In-memory span recorder. Thread-safe; a disabled tracer records
/// nothing and hands out id -1, so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  int begin(std::string name, int parent, std::uint64_t request);
  void end(int id);
  double now() const { return seconds_between(epoch_, Clock::now()); }

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;
  /// Writes the spans as one JSON array, one span per line.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = -1,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Length of span `id` covered by the union of its direct children's
/// intervals (overlapping children count once). A layer's self time is
/// its duration minus this.
double child_covered_seconds(const std::vector<Span>& spans, int id);

// ---- Seeds ----------------------------------------------------------------

/// One SplitMix64 step: advances `state` and returns its next output. A
/// small, fully specified generator, so generated inputs and schedules
/// do not depend on a standard-library implementation.
std::uint64_t splitmix64(std::uint64_t& state);

/// Seed of input stream `tag` (YET, portfolio, schedule, ...) of the
/// workload seed `seed`: distinct tags give unrelated streams.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + tag;
  return splitmix64(state);
}

// ---- Open-loop arrivals ---------------------------------------------------

/// One scheduled request: when it is due (seconds after the phase
/// starts) and which tenant sends it.
struct Arrival {
  double due = 0.0;
  std::size_t tenant = 0;
};

/// Poisson arrivals at `rate_hz` from a seeded generator. Arrival i is
/// sent by tenant `pattern[i % pattern.size()]`, so the tenant mix is
/// exact in every schedule and only the arrival times vary with the
/// seed. The same arguments always give the same schedule.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_hz,
                                      std::size_t count,
                                      const std::vector<std::size_t>& pattern);

/// Per-request timing of an open-loop phase, in seconds after the
/// phase epoch. `replied` stays negative for a request with no reply.
struct OpenLoopTiming {
  Clock::time_point epoch{};
  std::vector<double> due;
  std::vector<double> sent;
  std::vector<double> replied;
  /// Latency charged to request i: reply time minus *due* time, so a
  /// stall that delays the generator or the queue is charged to every
  /// request behind it, not only to the one that stalled.
  double latency(std::size_t i) const { return replied[i] - due[i]; }
  double lateness(std::size_t i) const { return sent[i] - due[i]; }
};

/// Drives an open-loop phase: sends request i at epoch + due[i] by
/// calling `submit(i, on_reply)`, where the callee invokes `on_reply()`
/// (from any thread) when the reply arrives. Returns after every reply
/// arrived or `timeout` passed since the last send.
OpenLoopTiming run_open_loop(
    const std::vector<Arrival>& schedule,
    const std::function<void(std::size_t, std::function<void()>)>& submit,
    std::chrono::milliseconds timeout);

// ---- Answer checks --------------------------------------------------------

/// Order-statistic family bitwise, mean family (AAL, standard
/// deviation) within `mean_rel_tol` relative — by default 1e-12, the
/// streaming reducers' documented contract; 0 compares bitwise. On
/// mismatch returns false and names the first differing field in `why`.
bool same_report(const ara::metrics::MetricsReport& got,
                 const ara::metrics::MetricsReport& want, std::string& why,
                 double mean_rel_tol = 1e-12);

/// Mean and sample standard deviation (divisor n - 1; 0 below two
/// values) of `n` values, summed in long double with Neumaier
/// compensation, so both are within a few units in the last place of
/// a double at any sample size. A double sum drifts by up to about n
/// units: over 48,000 trials the left-to-right standard deviation is
/// up to ~2e-12 off, twice the gate's tolerance, so the gate
/// takes its mean family from here rather than from another double sum.
struct MeanStd {
  double mean = 0.0;
  double std_dev = 0.0;
};
MeanStd accurate_mean_std(const double* values, std::size_t n);

/// The gate's reference report of a YLT: the order-statistic family
/// as compute_metrics evaluates it on the whole sample, which every
/// path must reproduce bitwise, with the mean family (per layer and of
/// the portfolio's per-trial layer sums) from accurate_mean_std.
ara::metrics::MetricsReport reference_report(const ara::Ylt& ylt,
                                             std::vector<std::string> labels,
                                             const ara::metrics::MetricsSpec& spec);

/// Largest relative difference of the mean family (AAL and standard
/// deviation of every layer and of the portfolio totals) between two
/// reports of the same shape.
double mean_family_rel_diff(const ara::metrics::MetricsReport& a,
                            const ara::metrics::MetricsReport& b);

/// Bitwise equality of two YLTs.
bool same_ylt(const ara::Ylt& got, const ara::Ylt& want);

// ---- Fingerprints and attribution -----------------------------------------

/// CRC32C of the YET's offsets and occurrences.
std::uint32_t fingerprint(const ara::Yet& yet);
/// CRC32C of the portfolio: every ELT's records and terms, then every
/// layer's ELT indices and terms.
std::uint32_t fingerprint(const ara::Portfolio& portfolio);

/// Size in KiB of the cache at `level` of cpu0 (unified or data), read
/// from sysfs; 0 when unavailable.
std::size_t cache_kib(int level);

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mib();

/// Milliseconds a fixed single-threaded integer/floating-point loop
/// takes: a host-speed diagnostic, never used to normalise a metric.
double host_probe_ms();

}  // namespace perfbench

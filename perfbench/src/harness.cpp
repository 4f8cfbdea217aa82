#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/crc32c.hpp"
#include "core/metrics/streaming.hpp"

namespace perfbench {

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("nearest_rank: empty sample");
  }
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("nearest_rank: p must be in (0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

int Tracer::begin(std::string name, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start = now();
  span.end = span.start;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  out << "[\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %d, \"request\": %llu}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

namespace {

double covered_seconds(double start, double end,
                       std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = start;
  for (const auto& [a, b] : intervals) {
    const double lo = std::max(a, reach);
    const double hi = std::min(b, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

}  // namespace

double child_covered_seconds(const std::vector<Span>& spans, int id) {
  const Span& self = spans.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.parent == id) children.emplace_back(s.start, s.end);
  }
  return covered_seconds(self.start, self.end, std::move(children));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

double unit_open(std::uint64_t& state) {  // in (0, 1)
  return (static_cast<double>(splitmix64(state) >> 11) + 0.5) * 0x1.0p-53;
}

}  // namespace

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_hz,
                                      std::size_t count,
                                      const std::vector<std::size_t>& pattern) {
  if (!(rate_hz > 0.0) || pattern.empty()) {
    throw std::invalid_argument("poisson_schedule: bad rate or tenant pattern");
  }
  std::uint64_t state = seed;
  std::vector<Arrival> out;
  out.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(unit_open(state)) / rate_hz;
    out.push_back({t, pattern[i % pattern.size()]});
  }
  return out;
}

OpenLoopTiming run_open_loop(
    const std::vector<Arrival>& schedule,
    const std::function<void(std::size_t, std::function<void()>)>& submit,
    std::chrono::milliseconds timeout) {
  const std::size_t n = schedule.size();
  OpenLoopTiming timing;
  timing.due.resize(n);
  timing.sent.resize(n);
  // Shared with the reply callbacks, which may outlive this call when a
  // reply arrives after the timeout.
  struct Replies {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<double> at;
    std::size_t received = 0;
  };
  const auto replies = std::make_shared<Replies>();
  replies->at.assign(n, -1.0);

  const Clock::time_point epoch = Clock::now();
  timing.epoch = epoch;
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = epoch + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(schedule[i].due));
    std::this_thread::sleep_until(due);
    timing.due[i] = schedule[i].due;
    timing.sent[i] = seconds_between(epoch, Clock::now());
    submit(i, [replies, epoch, i] {
      const double t = seconds_between(epoch, Clock::now());
      std::lock_guard<std::mutex> lock(replies->mutex);
      if (replies->at[i] < 0.0) ++replies->received;
      replies->at[i] = t;
      replies->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(replies->mutex);
  replies->cv.wait_for(lock, timeout, [&] { return replies->received == n; });
  if (replies->received != n) {
    throw std::runtime_error("open loop: " +
                             std::to_string(n - replies->received) +
                             " replies never arrived");
  }
  timing.replied = replies->at;
  return timing;
}

namespace {

bool near_rel(double got, double want, double tol) {
  if (got == want) return true;
  return std::abs(got - want) <= tol * std::max(std::abs(got), std::abs(want));
}

bool same_layer(const ara::metrics::LayerMetrics& got,
                const ara::metrics::LayerMetrics& want, std::string& why,
                double tol) {
  const std::string where = "[" + want.label + "] ";
  auto fail = [&](const std::string& field) {
    why = where + field;
    return false;
  };
  auto fail_value = [&](const std::string& field, double g, double w) {
    char values[96];
    std::snprintf(values, sizeof values, " got %.17g want %.17g", g, w);
    return fail(field + values);
  };
  if (got.label != want.label) return fail("label");
  if (got.trials != want.trials) return fail("trials");
  if (!near_rel(got.aal, want.aal, tol)) return fail_value("aal", got.aal, want.aal);
  if (!near_rel(got.std_dev, want.std_dev, tol)) {
    return fail_value("std_dev", got.std_dev, want.std_dev);
  }
  if (got.max_annual != want.max_annual) {
    return fail_value("max_annual", got.max_annual, want.max_annual);
  }
  if (got.quantiles.size() != want.quantiles.size()) return fail("quantiles");
  for (std::size_t i = 0; i < want.quantiles.size(); ++i) {
    if (got.quantiles[i].p != want.quantiles[i].p ||
        got.quantiles[i].var != want.quantiles[i].var ||
        got.quantiles[i].tvar != want.quantiles[i].tvar) {
      return fail("quantile p=" + std::to_string(want.quantiles[i].p));
    }
  }
  if (got.pml.size() != want.pml.size()) return fail("pml");
  for (std::size_t i = 0; i < want.pml.size(); ++i) {
    if (got.pml[i].years != want.pml[i].years ||
        got.pml[i].loss != want.pml[i].loss) {
      return fail("pml T=" + std::to_string(want.pml[i].years));
    }
  }
  if (got.oep.size() != want.oep.size()) return fail("oep");
  for (std::size_t i = 0; i < want.oep.size(); ++i) {
    if (got.oep[i].years != want.oep[i].years ||
        got.oep[i].loss != want.oep[i].loss) {
      return fail("oep T=" + std::to_string(want.oep[i].years));
    }
  }
  if (got.aep_curve != want.aep_curve) return fail("aep_curve");
  if (got.oep_curve != want.oep_curve) return fail("oep_curve");
  return true;
}

}  // namespace

bool same_report(const ara::metrics::MetricsReport& got,
                 const ara::metrics::MetricsReport& want, std::string& why,
                 double mean_rel_tol) {
  if (got.layers.size() != want.layers.size()) {
    why = "layer count";
    return false;
  }
  for (std::size_t l = 0; l < want.layers.size(); ++l) {
    if (!same_layer(got.layers[l], want.layers[l], why, mean_rel_tol)) return false;
  }
  if (got.portfolio.has_value() != want.portfolio.has_value()) {
    why = "portfolio presence";
    return false;
  }
  if (want.portfolio) {
    if (!same_layer(got.portfolio->totals, want.portfolio->totals, why,
                    mean_rel_tol)) {
      return false;
    }
    // Capital allocation is order-statistic arithmetic: bitwise.
    if (got.portfolio->diversification_benefit_tvar !=
            want.portfolio->diversification_benefit_tvar ||
        got.portfolio->marginal_tvar != want.portfolio->marginal_tvar) {
      why = "capital allocation";
      return false;
    }
  }
  return true;
}

namespace {

// Neumaier's compensated sum: the rounding error of every addition is
// carried separately and added back at the end.
class CompensatedSum {
 public:
  void add(long double x) {
    const long double t = sum_ + x;
    if (std::fabs(sum_) >= std::fabs(x)) {
      carry_ += (sum_ - t) + x;
    } else {
      carry_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  long double value() const { return sum_ + carry_; }

 private:
  long double sum_ = 0.0L;
  long double carry_ = 0.0L;
};

double rel_diff(double a, double b) {
  if (a == b) return 0.0;
  return std::abs(a - b) / std::max(std::abs(a), std::abs(b));
}

double layer_rel_diff(const ara::metrics::LayerMetrics& a,
                      const ara::metrics::LayerMetrics& b) {
  return std::max(rel_diff(a.aal, b.aal), rel_diff(a.std_dev, b.std_dev));
}

}  // namespace

MeanStd accurate_mean_std(const double* values, std::size_t n) {
  MeanStd out;
  if (n == 0) return out;
  CompensatedSum sum;
  for (std::size_t i = 0; i < n; ++i) sum.add(values[i]);
  const long double mean = sum.value() / static_cast<long double>(n);
  out.mean = static_cast<double>(mean);
  if (n < 2) return out;
  CompensatedSum m2;
  for (std::size_t i = 0; i < n; ++i) {
    const long double d = static_cast<long double>(values[i]) - mean;
    m2.add(d * d);
  }
  out.std_dev = static_cast<double>(
      std::sqrt(m2.value() / static_cast<long double>(n - 1)));
  return out;
}

ara::metrics::MetricsReport reference_report(const ara::Ylt& ylt,
                                             std::vector<std::string> labels,
                                             const ara::metrics::MetricsSpec& spec) {
  ara::metrics::MetricsReport report =
      ara::metrics::compute_metrics(ylt, std::move(labels), spec);
  const std::size_t trials = ylt.trial_count();
  auto set_mean_family = [](ara::metrics::LayerMetrics& m, const MeanStd& s) {
    m.aal = s.mean;
    m.std_dev = s.std_dev;
  };
  for (std::size_t l = 0; l < report.layers.size(); ++l) {
    set_mean_family(report.layers[l], accurate_mean_std(ylt.layer_annual(l), trials));
  }
  if (report.portfolio) {
    // The portfolio sample: per trial, the layer sum in layer order.
    std::vector<double> totals(trials, 0.0);
    for (std::size_t l = 0; l < ylt.layer_count(); ++l) {
      const double* row = ylt.layer_annual(l);
      for (std::size_t t = 0; t < trials; ++t) totals[t] += row[t];
    }
    set_mean_family(report.portfolio->totals,
                    accurate_mean_std(totals.data(), trials));
  }
  return report;
}

double mean_family_rel_diff(const ara::metrics::MetricsReport& a,
                            const ara::metrics::MetricsReport& b) {
  double worst = 0.0;
  for (std::size_t l = 0; l < std::min(a.layers.size(), b.layers.size()); ++l) {
    worst = std::max(worst, layer_rel_diff(a.layers[l], b.layers[l]));
  }
  if (a.portfolio && b.portfolio) {
    worst = std::max(worst, layer_rel_diff(a.portfolio->totals, b.portfolio->totals));
  }
  return worst;
}

bool same_ylt(const ara::Ylt& got, const ara::Ylt& want) {
  return got.layer_count() == want.layer_count() &&
         got.trial_count() == want.trial_count() &&
         got.annual_raw() == want.annual_raw() &&
         got.max_occurrence_raw() == want.max_occurrence_raw();
}

namespace {

template <typename T>
std::uint32_t crc_value(std::uint32_t crc, const T& value) {
  return ara::crc32c(crc, &value, sizeof value);
}

}  // namespace

std::uint32_t fingerprint(const ara::Yet& yet) {
  std::uint32_t crc = 0;
  for (const std::size_t offset : yet.offsets()) {
    crc = crc_value(crc, static_cast<std::uint64_t>(offset));
  }
  for (const ara::EventOccurrence& o : yet.occurrences()) {
    crc = crc_value(crc, o.event);
    crc = crc_value(crc, o.time);
  }
  return crc;
}

std::uint32_t fingerprint(const ara::Portfolio& portfolio) {
  std::uint32_t crc = 0;
  for (const ara::Elt& elt : portfolio.elts()) {
    for (const ara::EventLoss& r : elt.records()) {
      crc = crc_value(crc, r.event);
      crc = crc_value(crc, r.loss);
    }
    const ara::FinancialTerms& t = elt.terms();
    for (const double v : {t.fx_rate, t.retention, t.limit, t.share}) {
      crc = crc_value(crc, v);
    }
  }
  for (const ara::Layer& layer : portfolio.layers()) {
    for (const std::size_t e : layer.elt_indices) {
      crc = crc_value(crc, static_cast<std::uint64_t>(e));
    }
    const ara::LayerTerms& t = layer.terms;
    for (const double v :
         {t.occ_retention, t.occ_limit, t.agg_retention, t.agg_limit}) {
      crc = crc_value(crc, v);
    }
  }
  return crc;
}

std::size_t cache_kib(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream type_file(dir + "type");
    std::ifstream size_file(dir + "size");
    int l = 0;
    std::string type;
    std::string size;
    if (!(level_file >> l) || !(type_file >> type) || !(size_file >> size)) {
      continue;
    }
    if (l != level || type == "Instruction") continue;
    std::size_t value = std::stoul(size);
    if (!size.empty() && size.back() == 'M') value *= 1024;
    return value;
  }
  return 0;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double host_probe_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t state = 12345;
  double acc = 0.0;
  for (int i = 0; i < (1 << 25); ++i) {
    acc += static_cast<double>(splitmix64(state) >> 40) * 1e-9;
  }
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  // Keep the loop observable so it cannot be folded away.
  if (acc < 0.0) std::fprintf(stderr, "%f\n", acc);
  return ms;
}

}  // namespace perfbench

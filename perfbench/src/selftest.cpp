// Self-tests of the perfbench harness: nearest-rank percentiles, span
// self time with nested and overlapping children, seeded-schedule
// determinism, due-time latency accounting, the answer comparison the
// correctness gate uses and its accurate mean family. Exits 0 when every
// check holds.
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,        \
                   __LINE__, #cond);                                     \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

using namespace perfbench;

void test_nearest_rank() {
  const std::vector<double> ten = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  CHECK(nearest_rank(ten, 0.5) == 5);
  CHECK(nearest_rank(ten, 0.9) == 9);
  CHECK(nearest_rank(ten, 0.91) == 10);
  CHECK(nearest_rank(ten, 1.0) == 10);
  CHECK(nearest_rank(ten, 0.01) == 1);
  CHECK(nearest_rank({42}, 0.5) == 42);
  CHECK(median({3, 1, 2, 4}) == 2);  // rank ceil(0.5 * 4) = 2
  bool threw = false;
  try {
    (void)nearest_rank({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_self_time() {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 1},
      {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},    // overlaps a: the overlap counts once
      {"a.child", 1.0, 2.0, 1, 1},  // grandchild: not root's direct child
      {"c", 9.0, 12.0, 0, 1},   // runs past its parent: clipped
      {"other", 0.0, 10.0, -1, 2},
  };
  auto self = [&](int id) {
    return spans[static_cast<std::size_t>(id)].duration() -
           child_covered_seconds(spans, id);
  };
  CHECK(child_covered_seconds(spans, 0) == 6.0);  // [1,6] + [9,10]
  CHECK(self(0) == 4.0);
  CHECK(self(1) == 2.0);  // a.child covers [1,2] of a
  CHECK(self(3) == 1.0);
  CHECK(self(5) == 10.0);

  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", -1, 7);
    ScopedSpan inner(tracer, "inner", outer.id(), 7);
  }
  const std::vector<Span> recorded = tracer.spans();
  CHECK(recorded.size() == 2);
  CHECK(recorded[1].parent == 0 && recorded[1].request == 7);
  CHECK(recorded[0].start <= recorded[1].start &&
        recorded[1].end <= recorded[0].end);
  CHECK(child_covered_seconds(recorded, 0) == recorded[1].duration());

  Tracer off(false);
  ScopedSpan ignored(off, "x");
  CHECK(ignored.id() == -1 && off.spans().empty());
}

void test_schedule() {
  const std::vector<std::size_t> pattern = {0, 0, 1};
  const auto a = poisson_schedule(99, 50.0, 20000, pattern);
  const auto b = poisson_schedule(99, 50.0, 20000, pattern);
  const auto c = poisson_schedule(100, 50.0, 20000, pattern);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due == b[i].due && a[i].tenant == b[i].tenant;
  }
  CHECK(same);
  CHECK(a[0].due != c[0].due);
  bool increasing = true;
  bool follows_pattern = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && !(a[i].due > a[i - 1].due)) increasing = false;
    if (a[i].tenant != pattern[i % 3]) follows_pattern = false;
  }
  CHECK(increasing);
  CHECK(follows_pattern);
  const double mean_gap = a.back().due / static_cast<double>(a.size());
  CHECK(mean_gap > 0.019 && mean_gap < 0.021);  // 1 / 50 Hz
}

// A single FIFO server thread: each request takes `service[i]` seconds.
class FakeServer {
 public:
  explicit FakeServer(std::vector<double> service)
      : service_(std::move(service)), thread_([this] { loop(); }) {}
  ~FakeServer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  void submit(std::size_t i, std::function<void()> reply) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back({i, std::move(reply)});
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::size_t, std::function<void()>> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(service_[job.first]));
      job.second();
    }
  }

  std::vector<double> service_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::function<void()>>> queue_;
  bool stop_ = false;
  std::thread thread_;
};

void test_due_time_accounting() {
  std::vector<Arrival> schedule;
  for (std::size_t i = 0; i < 8; ++i) schedule.push_back({0.02 * i, 0});

  // One stalled reply (request 3 takes 150 ms) delays everything queued
  // behind it; measured from due time, those requests are charged.
  {
    std::vector<double> service(schedule.size(), 0.002);
    service[3] = 0.150;
    FakeServer server(service);
    const OpenLoopTiming t = run_open_loop(
        schedule,
        [&](std::size_t i, std::function<void()> reply) { server.submit(i, reply); },
        std::chrono::milliseconds(5000));
    CHECK(t.latency(1) < 0.05);
    CHECK(t.latency(3) >= 0.150);
    // Request 4 was due 20 ms after 3, so it waited >= 130 ms for it.
    CHECK(t.latency(4) >= 0.125);
    CHECK(t.latency(7) >= 0.060);  // due 80 ms after 3; still queued
    CHECK(t.lateness(4) < 0.05);   // the generator itself stayed on time
  }

  // A generator that blocks while sending request 3 sends the rest late;
  // the latency still counts from when each request was due.
  {
    const OpenLoopTiming t = run_open_loop(
        schedule,
        [&](std::size_t i, std::function<void()> reply) {
          if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(120));
          reply();
        },
        std::chrono::milliseconds(5000));
    CHECK(t.lateness(4) >= 0.095);
    CHECK(t.latency(4) >= 0.095);
    CHECK(t.latency(2) < 0.05);
  }
}

void test_report_comparison() {
  ara::metrics::LayerMetrics layer;
  layer.label = "L0";
  layer.trials = 100;
  layer.aal = 123456.789;
  layer.std_dev = 42.0;
  layer.max_annual = 1e7;
  layer.quantiles = {{0.99, 5e6, 6e6}};
  layer.pml = {{100.0, 5.5e6}};
  layer.oep = {{100.0, 4e6}};
  ara::metrics::MetricsReport want;
  want.layers = {layer};
  std::string why;
  CHECK(same_report(want, want, why));

  ara::metrics::MetricsReport got = want;
  got.layers[0].aal *= 1.0 + 1e-13;  // mean family: within 1e-12
  CHECK(same_report(got, want, why));
  CHECK(!same_report(got, want, why, 0.0));  // bitwise mode
  got.layers[0].aal = want.layers[0].aal * (1.0 + 1e-9);
  CHECK(!same_report(got, want, why) && why.find("aal") != std::string::npos);

  got = want;
  got.layers[0].quantiles[0].var = std::nextafter(5e6, 1e300);  // bitwise
  CHECK(!same_report(got, want, why));
  got = want;
  got.layers[0].max_annual += 1.0;
  CHECK(!same_report(got, want, why));

  ara::Ylt a(1, 3);
  ara::Ylt b(1, 3);
  CHECK(same_ylt(a, b));
  CHECK(!same_ylt(a, ara::Ylt(1, 4)));
}

// The gate's mean-family reference is exact where a double sum drifts.
void test_accurate_mean_std() {
  // A million copies of 0.1: the sample's mean is the double 0.1 and its
  // spread 0, while a left-to-right double sum ends ~1e-11 off.
  const std::vector<double> same(1000000, 0.1);
  double naive = 0.0;
  for (const double v : same) naive += v;
  CHECK(naive / static_cast<double>(same.size()) != 0.1);
  const MeanStd s = accurate_mean_std(same.data(), same.size());
  CHECK(s.mean == 0.1);
  CHECK(s.std_dev == 0.0);

  // 1e9 + k for k < n: mean 1e9 + (n - 1) / 2, variance n (n + 1) / 12.
  const std::size_t n = 1001;
  std::vector<double> ramp(n);
  for (std::size_t k = 0; k < n; ++k) ramp[k] = 1e9 + static_cast<double>(k);
  const MeanStd r = accurate_mean_std(ramp.data(), n);
  CHECK(r.mean == 1e9 + 500.0);
  const double want_std = std::sqrt(static_cast<double>(n * (n + 1)) / 12.0);
  CHECK(std::abs(r.std_dev - want_std) <= 1e-15 * want_std);
  CHECK(accurate_mean_std(ramp.data(), 1).std_dev == 0.0);
  CHECK(accurate_mean_std(ramp.data(), 0).mean == 0.0);
}

}  // namespace

int main() {
  test_nearest_rank();
  test_self_time();
  test_schedule();
  test_due_time_accounting();
  test_report_comparison();
  test_accurate_mean_std();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

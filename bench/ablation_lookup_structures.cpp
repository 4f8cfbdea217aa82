// The paper's central data-structure argument (Sec. III): a direct
// access table costs one memory access per lookup, while compact
// structures (binary search, hashing) cost more accesses but less
// memory. google-benchmark micro-benchmarks of real lookup throughput
// on this host for every structure, plus the combined-table layout the
// paper evaluated and rejected.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/lookup_table.hpp"
#include "synth/catalogue.hpp"
#include "synth/elt_generator.hpp"
#include "synth/rng.hpp"

namespace {

using namespace ara;

constexpr EventId kCatalogue = 200'000;  // paper: 2M; scaled 10x for RAM
constexpr std::size_t kRecords = 20'000; // paper's ELT density (10%... 1%)

const Elt& shared_elt() {
  static const Elt elt = [] {
    synth::Catalogue cat = synth::Catalogue::make(kCatalogue, 3, 100.0);
    synth::EltGeneratorConfig cfg;
    cfg.record_count = kRecords;
    cfg.seed = 77;
    return synth::generate_elt(cat, cfg);
  }();
  return elt;
}

// Pre-generated random probe sequence (the YET's access pattern).
const std::vector<EventId>& probes() {
  static const std::vector<EventId> p = [] {
    synth::Xoshiro256StarStar rng(123);
    std::vector<EventId> out(1 << 16);
    for (EventId& e : out) {
      e = 1 + static_cast<EventId>(rng.next_below(kCatalogue));
    }
    return out;
  }();
  return p;
}

void lookup_benchmark(benchmark::State& state, LookupKind kind) {
  const std::unique_ptr<LossLookup> table = make_lookup(kind, shared_elt());
  const auto& ps = probes();
  std::size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sink += table->lookup(ps[i++ & (ps.size() - 1)]);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["bytes"] =
      static_cast<double>(table->memory_bytes());
  state.counters["accesses/lookup"] = table->accesses_per_lookup();
}

void BM_DirectAccess64(benchmark::State& s) {
  lookup_benchmark(s, LookupKind::kDirectAccess64);
}
void BM_DirectAccess32(benchmark::State& s) {
  lookup_benchmark(s, LookupKind::kDirectAccess32);
}
void BM_SortedBinarySearch(benchmark::State& s) {
  lookup_benchmark(s, LookupKind::kSorted);
}
void BM_HashLinearProbe(benchmark::State& s) {
  lookup_benchmark(s, LookupKind::kHash);
}
void BM_CuckooHash(benchmark::State& s) {
  lookup_benchmark(s, LookupKind::kCuckoo);
}
void BM_CompressedBitmapRank(benchmark::State& s) {
  lookup_benchmark(s, LookupKind::kCompressed);
}

BENCHMARK(BM_DirectAccess64);
BENCHMARK(BM_DirectAccess32);
BENCHMARK(BM_SortedBinarySearch);
BENCHMARK(BM_HashLinearProbe);
BENCHMARK(BM_CuckooHash);
BENCHMARK(BM_CompressedBitmapRank);

// The paper's "second implementation": 15 ELTs merged into one
// row-major combined table. On the GPU independent tables beat it
// because the combined layout forces cooperative row loads; here we
// measure the raw lookup path of each layout for one event across all
// 15 ELTs.
std::vector<Elt> fifteen_elts() {
  std::vector<Elt> elts;
  synth::Catalogue cat = synth::Catalogue::make(kCatalogue, 3, 100.0);
  for (int i = 0; i < 15; ++i) {
    synth::EltGeneratorConfig cfg;
    cfg.record_count = kRecords / 10;
    cfg.seed = 100 + i;
    elts.push_back(synth::generate_elt(cat, cfg));
  }
  return elts;
}

void BM_IndependentTables15(benchmark::State& state) {
  std::vector<std::unique_ptr<DirectAccessTable<double>>> tables;
  for (const Elt& elt : fifteen_elts()) {
    tables.push_back(std::make_unique<DirectAccessTable<double>>(elt));
  }
  const auto& ps = probes();
  std::size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const EventId e = ps[i++ & (ps.size() - 1)];
    for (const auto& t : tables) sink += t->at(e);
  }
  benchmark::DoNotOptimize(sink);
}

// Row e holds event e's loss under each of the 15 ELTs, side by side.
void BM_CombinedTable15(benchmark::State& state) {
  constexpr std::size_t kWidth = 15;
  const std::vector<Elt> elts = fifteen_elts();
  std::vector<double> combined((std::size_t{kCatalogue} + 1) * kWidth, 0.0);
  for (std::size_t j = 0; j < kWidth; ++j) {
    for (const EventLoss& r : elts[j].records()) {
      combined[std::size_t{r.event} * kWidth + j] = r.loss;
    }
  }
  const auto& ps = probes();
  std::size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const EventId e = ps[i++ & (ps.size() - 1)];
    const double* row = combined.data() + std::size_t{e} * kWidth;
    for (std::size_t j = 0; j < kWidth; ++j) sink += row[j];
  }
  benchmark::DoNotOptimize(sink);
}

BENCHMARK(BM_IndependentTables15);
BENCHMARK(BM_CombinedTable15);

}  // namespace

BENCHMARK_MAIN();

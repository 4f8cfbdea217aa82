// The paper's future-work items (Sec. VI), implemented and measured:
//  1. "compressed representations of data in memory" — the
//     bitmap+rank CompressedLossTable vs the direct access table:
//     memory saved, extra accesses per lookup, and the modelled impact
//     on the multi-GPU runtime.
//  2. "fine grain analysis, such as secondary uncertainty" — the
//     SecondaryUncertaintyEngine: effect of per-event damage-ratio
//     sampling on the portfolio risk metrics.
#include <iostream>

#include "common.hpp"
#include "core/cpu_engines.hpp"
#include "core/lookup_table.hpp"
#include "core/metrics/risk_measures.hpp"
#include "extensions/secondary_uncertainty.hpp"
#include "io/compressed_yet.hpp"
#include "synth/scenarios.hpp"

int main() {
  using namespace ara;
  bench::print_header("Extensions — the paper's future work",
                      "Sec. VI (compressed tables, secondary uncertainty)");

  // ---- 1. Compressed loss tables ---------------------------------------
  {
    const synth::Scenario s = synth::paper_scaled(100);  // 20k-event cat.
    const Elt& elt = s.portfolio.elts()[0];
    const DirectAccessTable<float> direct(elt);
    const CompressedLossTable compressed(elt);

    perf::Table table({"representation", "bytes/ELT (scaled)",
                       "paper-scale bytes/ELT", "accesses/lookup"});
    const double scale = 2'000'000.0 / (elt.catalogue_size() + 1.0);
    table.add_row({"direct access (f32)",
                   std::to_string(direct.memory_bytes()),
                   std::to_string(static_cast<std::uint64_t>(
                       direct.memory_bytes() * scale)),
                   perf::format_fixed(direct.accesses_per_lookup(), 1)});
    table.add_row({"compressed bitmap+rank",
                   std::to_string(compressed.memory_bytes()),
                   std::to_string(static_cast<std::uint64_t>(
                       compressed.memory_bytes() * scale)),
                   perf::format_fixed(compressed.accesses_per_lookup(), 1)});
    table.print(std::cout);

    // Modelled effect on the 4-GPU runtime: lookups cost ~3 transactions
    // instead of 1, but 15 ELTs drop from 120 MB to ~9 MB of device
    // memory each (paper scale), freeing room for more trials per GPU.
    const simgpu::GpuCostModel model(simgpu::tesla_m2090());
    KernelPlan plan = bench::paper_optimized_plan(4);
    const double t_direct = bench::price(model, plan).total_seconds;
    plan.ops.elt_lookups *= 3;  // bit test + rank + packed-array access
    const double t_compressed = bench::price(model, plan).total_seconds;
    const double mem_ratio = static_cast<double>(direct.memory_bytes()) /
                             static_cast<double>(compressed.memory_bytes());
    std::cout << "\nmodelled 4-GPU runtime: direct "
              << perf::format_seconds(t_direct) << " vs compressed "
              << perf::format_seconds(t_compressed)
              << " — compression trades " << perf::format_ratio(
                     t_compressed / t_direct)
              << " runtime for " << perf::format_ratio(mem_ratio)
              << " less table memory\n\n";
  }

  // ---- 1b. Compressed YET storage ---------------------------------------
  {
    const synth::Scenario s = synth::paper_scaled(2000);
    std::uint64_t raw = s.yet.occurrence_count() * 8 +
                        (s.yet.trial_count() + 1) * 8;
    const std::uint64_t compressed = io::compressed_yet_bytes(s.yet);
    perf::Table table({"YET storage", "bytes (scaled)", "bytes/occurrence"});
    table.add_row({"raw (8 B records + offsets)", std::to_string(raw),
                   perf::format_fixed(
                       static_cast<double>(raw) / s.yet.occurrence_count(),
                       2)});
    table.add_row({"varint delta-compressed", std::to_string(compressed),
                   perf::format_fixed(static_cast<double>(compressed) /
                                          s.yet.occurrence_count(),
                                      2)});
    table.print(std::cout);
    std::cout << "compression " << perf::format_ratio(
                     static_cast<double>(raw) /
                     static_cast<double>(compressed))
              << " — at paper scale the 8 GB YET ships in ~"
              << perf::format_fixed(8.0 * compressed / raw, 1)
              << " GB\n\n";
  }

  // ---- 2. Secondary uncertainty ----------------------------------------
  {
    const synth::Scenario s = synth::paper_scaled(2000);
    FusedSequentialEngine deterministic;
    ext::SecondaryUncertaintyConfig cfg;
    cfg.alpha = 1.2;
    cfg.beta = 2.4;
    ext::SecondaryUncertaintyEngine stochastic(cfg);

    const auto det = deterministic.run(s.portfolio, s.yet);
    const auto sto = stochastic.run(s.portfolio, s.yet);
    const auto det_sum = metrics::summarize_layer(det.ylt, 0);
    const auto sto_sum = metrics::summarize_layer(sto.ylt, 0);

    perf::Table table({"metric", "deterministic", "with secondary unc."});
    table.add_row({"AAL", perf::format_fixed(det_sum.aal, 0),
                   perf::format_fixed(sto_sum.aal, 0)});
    table.add_row({"std dev", perf::format_fixed(det_sum.std_dev, 0),
                   perf::format_fixed(sto_sum.std_dev, 0)});
    table.add_row({"VaR 99%", perf::format_fixed(det_sum.var_99, 0),
                   perf::format_fixed(sto_sum.var_99, 0)});
    table.add_row({"TVaR 99%", perf::format_fixed(det_sum.tvar_99, 0),
                   perf::format_fixed(sto_sum.tvar_99, 0)});
    table.add_row({"PML 100yr", perf::format_fixed(det_sum.pml_100yr, 0),
                   perf::format_fixed(sto_sum.pml_100yr, 0)});
    table.print(std::cout);
    std::cout << "\nsecondary uncertainty run: "
              << perf::format_seconds(sto.wall_seconds)
              << " wall for " << s.yet.trial_count() << " trials\n";
  }
  return 0;
}

// Figure 6: percentage of time per activity — fetching events,
// loss-set lookup in the direct access table, financial-term and
// layer-term computations — for each implementation.
// Paper anchors: sequential lookup 222.61 s (~66%), numeric 104.67 s
// (~31%), fetch ~10 s; optimised GPU lookup 20.1 s, F+L 0.11 s,
// fetch < 0.5 s; multi-GPU lookup 97.54% of 4.33 s, F+L 0.02 s.
#include <iostream>

#include "common.hpp"
#include "core/engine_factory.hpp"
#include "perf/cpu_cost_model.hpp"
#include "perf/machine_profile.hpp"

int main() {
  using namespace ara;
  using perf::Phase;
  bench::print_header("Figure 6 — time breakdown per activity",
                      "Fig. 6 (percentage of time per activity)");

  const perf::CpuCostModel cpu(perf::intel_i7_2600());
  const simgpu::GpuCostModel c2075(simgpu::tesla_c2075());
  const simgpu::GpuCostModel m2090(simgpu::tesla_m2090());
  const OpCounts ops = bench::paper_ops();

  struct Row {
    std::string name;
    perf::PhaseBreakdown ph;
  };
  std::vector<Row> rows;
  rows.push_back({"sequential CPU", cpu.estimate(ops, 1)});
  rows.push_back({"multi-core CPU", cpu.estimate(ops, 8, 256)});
  rows.push_back(
      {"basic GPU", bench::price(c2075, bench::paper_basic_plan()).phases});
  rows.push_back({"optimised GPU",
                  bench::price(c2075, bench::paper_optimized_plan()).phases});
  rows.push_back({"4x GPU (per device)",
                  bench::price(m2090, bench::paper_optimized_plan(4)).phases});

  perf::Table table({"implementation", "total", "fetch events",
                     "loss lookup", "financial terms", "layer terms"});
  for (const Row& r : rows) {
    const double layer_terms =
        r.ph[Phase::kOccurrenceTerms] + r.ph[Phase::kAggregateTerms];
    table.add_row({r.name, perf::format_seconds(r.ph.total()),
                   perf::format_percent(r.ph.fraction(Phase::kEventFetch)),
                   perf::format_percent(r.ph.fraction(Phase::kLossLookup)),
                   perf::format_percent(
                       r.ph.fraction(Phase::kFinancialTerms)),
                   perf::format_percent(layer_terms / r.ph.total())});
  }
  table.print(std::cout);

  std::cout << "\npaper anchors: sequential lookup 222.61 s (>65%), "
               "numeric 104.67 s (>31%), fetch >10 s;\n"
               "optimised GPU: lookup 20.1 s, fin+layer 0.11 s, fetch "
               "<0.5 s; 4x GPU: lookup 4.25 s (97.5%), fin+layer 0.02 s, "
               "fetch <0.1 s\n\n";

  // Measured per-phase profile of the literal Algorithm 1 on the
  // scaled workload (profile_phases instruments each pass).
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kSequentialReference);
  EngineConfig cfg;
  cfg.profile_phases = true;
  policy.config = cfg;
  AnalysisSession session(policy);
  const synth::Scenario s = synth::paper_scaled(bench::measured_scale());
  AnalysisRequest request;
  request.portfolio = &s.portfolio;
  request.yet = &s.yet;
  const SimulationResult r = session.run(request).simulation;
  std::cout << "measured (scaled, this host): lookup "
            << perf::format_percent(
                   r.measured_phases.fraction(Phase::kLossLookup))
            << ", financial "
            << perf::format_percent(
                   r.measured_phases.fraction(Phase::kFinancialTerms))
            << ", layer terms "
            << perf::format_percent(
                   (r.measured_phases[Phase::kOccurrenceTerms] +
                    r.measured_phases[Phase::kAggregateTerms]) /
                   r.measured_phases.total())
            << " of " << perf::format_seconds(r.measured_phases.total())
            << " profiled\n";
  return 0;
}

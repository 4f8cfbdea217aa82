#include "core/gpu_engines.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/simd/bound_portfolio.hpp"
#include "core/simd/kernels.hpp"
#include "core/simd/steps.hpp"
#include "core/trial_math.hpp"
#include "parallel/partition.hpp"
#include "perf/stopwatch.hpp"
#include "simgpu/sim_device.hpp"
#include "simgpu/sim_platform.hpp"

namespace ara {

// Device-resident footprint of the inputs. The kernel consumes event
// ids in trial order (timestamps only define the order, which the YET
// already encodes), so the YET ships as 4-byte ids — this is what lets
// the 1e9-event paper workload fit in 5.375 GB (see DESIGN.md).
std::uint64_t yet_device_bytes(const Yet& yet, std::size_t trial_begin,
                               std::size_t trial_end) {
  const std::uint64_t events =
      yet.offsets()[trial_end] - yet.offsets()[trial_begin];
  const std::uint64_t offsets = (trial_end - trial_begin + 1) * 8;
  return events * 4 + offsets;
}

std::uint64_t tables_device_bytes(const Portfolio& p, unsigned loss_bytes) {
  std::uint64_t total = 0;
  for (const Layer& layer : p.layers()) {
    total += static_cast<std::uint64_t>(layer.elt_indices.size()) *
             (static_cast<std::uint64_t>(p.catalogue_size()) + 1) * loss_bytes;
  }
  return total;
}

namespace {

// One thread per trial.
simgpu::LaunchConfig grid_for(unsigned block_threads, std::size_t trials) {
  simgpu::LaunchConfig launch;
  launch.block_threads = block_threads;
  launch.grid_blocks = static_cast<unsigned>(
      (trials + block_threads - 1) / block_threads);
  return launch;
}

// A device's simulated seconds: its timeline without the PCIe copies.
double kernel_seconds(const perf::PhaseBreakdown& phases) {
  return phases.total() - phases[perf::Phase::kTransfer];
}

// The functional half of a fused launch at precision Real: the
// dispatched SoA kernel (scalar in the bitwise-reference mode,
// vectorized under kAuto), the tables and the portfolio bound to them.
template <typename Real>
struct FusedSweep {
  simd::SweepKernel<Real> kernel;
  const TableStore<Real>* tables = nullptr;
  simd::BoundPortfolio<Real> bp;
};

template <typename Real>
const TableStore<Real>* context_tables(const EngineContext& context) {
  if constexpr (sizeof(Real) == 4) {
    return context.tables_f32;
  } else {
    return context.tables_f64;
  }
}

// Selects the kernel even for cost-only runs (the choice records the
// active ISA, and a kForceWidth the host cannot satisfy fails either
// way) and, for a real run, binds the context's tables (built into
// `local` when the context has none).
template <typename Real>
FusedSweep<Real> prepare_sweep(const EngineConfig& cfg,
                               const Portfolio& portfolio,
                               const EngineContext& context,
                               TableStore<Real>& local) {
  FusedSweep<Real> sweep{
      simd::select_kernel<Real>(cfg.simd, cfg.simd_width), nullptr, {}};
  if (!context.cost_only) {
    sweep.tables =
        select_tables(context_tables<Real>(context), local, portfolio);
    sweep.bp = simd::bind_portfolio(portfolio, *sweep.tables);
  }
  return sweep;
}

// Charges one launch on `dev` shaped by `launch` and `traits` for `ops`
// of work over global trials [begin, end). With a sweep (a real run)
// the launch also executes: one fused multi-layer pass per thread,
// each walking its trial's covered occurrences once and updating every
// layer, so the YET slice crosses the memory system once instead of
// once per layer.
// Thread rows land at (trial - out_base) of `out`. The launch shape
// and traits never change a result: the simulator charges them, and
// the functional pass is the dispatched sweep whatever the shape.
template <typename Real>
void launch_fused(simgpu::SimDevice& dev, const std::string& kernel_name,
                  const simgpu::LaunchConfig& launch,
                  const simgpu::KernelTraits& traits, const OpCounts& ops,
                  const FusedSweep<Real>* sweep, const Yet& yet,
                  std::size_t begin, std::size_t end, std::size_t out_base,
                  Ylt& out) {
  if (sweep == nullptr) {
    dev.launch_cost_only(kernel_name, launch, traits, ops);
    return;
  }
  const std::size_t trials = end - begin;
  const simd::SweepKernel<Real>& kernel = sweep->kernel;
  const simd::BoundPortfolio<Real>& bp = sweep->bp;
  // Running state and occurrence scratch; SimDevice executes the
  // functor thread by thread on this host thread, so one of each serves
  // the whole launch.
  simd::PortfolioTrialState<Real> state(bp);
  std::vector<EventOccurrence> scratch;
  dev.launch(
      kernel_name, launch, traits, ops,
      [&](const simgpu::SimDevice::ThreadCtx& ctx) {
        if (ctx.global_id() >= trials) return;  // guard threads past range
        const TrialId t = static_cast<TrialId>(begin + ctx.global_id());
        const auto row = static_cast<TrialId>(t - out_base);
        kernel.sweep(bp,
                     covered_occurrences(*sweep->tables, yet.trial(t),
                                         scratch),
                     state);
        for (std::size_t a = 0; a < bp.layers; ++a) {
          out.annual_loss(a, row) = static_cast<double>(state.annual[a]);
          out.max_occurrence_loss(a, row) =
              static_cast<double>(state.max_occurrence[a]);
        }
      });
}

// The optimised kernel on one device per entry of `devices`, device d
// covering global trials slices[d]. Tables are built once on the host
// (or borrowed from the session's cache) and shipped to every device;
// the YET is sliced. One host thread drives one GPU (the paper's
// dispatch scheme, SimPlatform::for_each_device); a lone device runs on
// the calling thread. With cost_only the same alloc/copy/launch
// sequence is charged without executing the kernel.
template <typename Real>
SimulationResult run_optimized_as(std::string name,
                                  std::vector<simgpu::DeviceSpec> devices,
                                  const std::vector<parallel::Range>& slices,
                                  const Portfolio& portfolio, const Yet& yet,
                                  const EngineContext& context,
                                  const EngineConfig& cfg) {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = std::move(name);
  result.devices = static_cast<unsigned>(devices.size());
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);

  perf::Stopwatch wall;
  simgpu::SimPlatform platform(std::move(devices));
  TableStore<Real> local;
  const FusedSweep<Real> sweep =
      prepare_sweep<Real>(cfg, portfolio, context, local);
  result.simd_isa = simd::isa_name(sweep.kernel.isa);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }

  const std::uint64_t tables = tables_device_bytes(portfolio, sizeof(Real));
  platform.for_each_device([&](std::size_t d) {
    const std::size_t begin = slices[d].begin;
    const std::size_t end = slices[d].end;
    if (begin == end) return;
    simgpu::SimDevice& dev = platform.device(d);
    const std::uint64_t yet_bytes = yet_device_bytes(yet, begin, end);
    const std::uint64_t ylt_bytes =
        static_cast<std::uint64_t>(portfolio.layer_count()) * (end - begin) *
        sizeof(Real);
    dev.alloc(tables);
    dev.alloc(yet_bytes);
    dev.alloc(ylt_bytes);
    // Host -> device: the direct access tables and this device's YET
    // slice (the preprocessing stage of the paper).
    dev.copy(tables);
    dev.copy(yet_bytes);
    const KernelPlan plan = optimized_kernel_plan(
        cfg, end - begin, range_fused_ops(portfolio, yet, begin, end));
    launch_fused(dev, "ara_optimized_multilayer", plan.launch, plan.traits,
                 plan.ops, context.cost_only ? nullptr : &sweep, yet, begin,
                 end, range.begin, result.ylt);
    dev.copy(ylt_bytes);  // device -> host: the YLT slice
  });

  result.wall_seconds = wall.seconds();
  // Devices run concurrently: the platform time is the slowest device;
  // phase attribution is the per-device mean.
  result.simulated_phases = platform.mean_phase_seconds();
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    result.simulated_seconds =
        std::max(result.simulated_seconds,
                 kernel_seconds(platform.device(d).phase_seconds()));
  }
  return result;
}

SimulationResult run_optimized(std::string name,
                               std::vector<simgpu::DeviceSpec> devices,
                               const std::vector<parallel::Range>& slices,
                               const Portfolio& portfolio, const Yet& yet,
                               const EngineContext& context,
                               const EngineConfig& cfg) {
  return cfg.use_float
             ? run_optimized_as<float>(std::move(name), std::move(devices),
                                       slices, portfolio, yet, context, cfg)
             : run_optimized_as<double>(std::move(name), std::move(devices),
                                        slices, portfolio, yet, context, cfg);
}

// Trials per streamed batch: the memory left after the tables, filled
// to 75% with YET slice (4 B/event + offsets) + YLT slice at the mean
// trial length. 0 when the tables alone do not fit.
std::size_t streamed_batch_trials(const simgpu::DeviceSpec& device,
                                  const EngineConfig& cfg,
                                  const Portfolio& portfolio,
                                  const Yet& yet) {
  const unsigned loss_bytes = cfg.use_float ? 4 : 8;
  const std::uint64_t tables = tables_device_bytes(portfolio, loss_bytes);
  if (tables >= device.global_mem_bytes) return 0;
  const double events_per_trial =
      std::max(1.0, yet.mean_events_per_trial());
  const double bytes_per_trial =
      events_per_trial * 4.0 + 8.0 +
      static_cast<double>(portfolio.layer_count()) * loss_bytes;
  const std::uint64_t budget = device.global_mem_bytes - tables;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(budget) * 0.75 /
                                  bytes_per_trial));
}

// The optimised kernel streamed through one device (StreamedGpuEngine):
// tables resident, the trial range shipped, run and freed in batches.
template <typename Real>
SimulationResult run_streamed_as(std::string name,
                                 const simgpu::DeviceSpec& device,
                                 const Portfolio& portfolio, const Yet& yet,
                                 const EngineContext& context,
                                 const EngineConfig& cfg) {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = std::move(name);
  result.devices = 1;
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);

  perf::Stopwatch wall;
  simgpu::SimDevice dev(device);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }

  const std::size_t batch_trials =
      streamed_batch_trials(device, cfg, portfolio, yet);
  if (batch_trials == 0) {
    throw std::runtime_error(
        "StreamedGpuEngine: loss tables alone exceed device memory");
  }
  const std::uint64_t tables = tables_device_bytes(portfolio, sizeof(Real));
  dev.alloc(tables);
  dev.copy(tables);

  TableStore<Real> local;
  const FusedSweep<Real> sweep =
      prepare_sweep<Real>(cfg, portfolio, context, local);
  result.simd_isa = simd::isa_name(sweep.kernel.isa);

  for (std::size_t begin = range.begin; begin < range.end;
       begin += batch_trials) {
    const std::size_t end = std::min(begin + batch_trials, range.end);
    const std::uint64_t yet_bytes = yet_device_bytes(yet, begin, end);
    const std::uint64_t ylt_bytes =
        static_cast<std::uint64_t>(portfolio.layer_count()) * (end - begin) *
        sizeof(Real);
    dev.alloc(yet_bytes);
    dev.alloc(ylt_bytes);
    dev.copy(yet_bytes);
    // The optimised kernel on this batch (tables are resident). Its
    // launches are charged the bare fused counts: no scratch traffic,
    // even where the plan attributes some (use_registers off).
    const OpCounts ops = range_fused_ops(portfolio, yet, begin, end);
    const KernelPlan plan = optimized_kernel_plan(cfg, end - begin, ops);
    launch_fused(dev, "ara_streamed_multilayer", plan.launch, plan.traits,
                 ops, context.cost_only ? nullptr : &sweep, yet, begin, end,
                 range.begin, result.ylt);
    dev.copy(ylt_bytes);   // results back
    dev.free(yet_bytes);   // release the batch
    dev.free(ylt_bytes);
  }

  result.wall_seconds = wall.seconds();
  result.simulated_phases = dev.phase_seconds();
  result.simulated_seconds = kernel_seconds(result.simulated_phases);
  return result;
}

}  // namespace

std::size_t optimized_shared_bytes(unsigned block_threads,
                                   unsigned chunk_size) {
  // Per thread: chunk_size staged (event id, loss) pairs of 8 bytes;
  // per block: one 256-byte slab of layer + financial terms. With the
  // default chunk of 88 events this is 22.8 KB for a 32-thread block —
  // two resident blocks per Fermi SM — and overflows the 48 KB limit
  // beyond 64 threads/block, the edge the paper reports in Figure 4.
  return static_cast<std::size_t>(block_threads) * chunk_size * 8 + 256;
}

KernelPlan basic_kernel_plan(const EngineConfig& cfg, std::size_t trials,
                             OpCounts fused_ops) {
  KernelPlan plan;
  plan.traits.loss_bytes = 8;  // double, mlp 1, unchunked YET walk
  plan.traits.scratch_in_global = true;
  plan.launch = grid_for(cfg.block_threads, trials);
  plan.launch.regs_per_thread = 20;
  plan.ops = fused_ops;
  plan.ops.global_updates = fused_ops.occurrence_ops * kScratchTouchesPerEvent;
  return plan;
}

KernelPlan optimized_kernel_plan(const EngineConfig& cfg, std::size_t trials,
                                 OpCounts fused_ops) {
  KernelPlan plan;
  simgpu::KernelTraits& traits = plan.traits;
  traits.loss_bytes = cfg.use_float ? 4 : 8;
  traits.chunked = cfg.chunking;
  traits.mlp_per_thread = cfg.chunking ? std::min(cfg.chunk_size, 16u) : 1;
  traits.scratch_in_global = !cfg.chunking && !cfg.use_registers;
  traits.scratch_in_registers = cfg.use_registers;
  traits.unrolled = cfg.unroll;

  plan.launch = grid_for(cfg.block_threads, trials);
  plan.launch.shared_bytes_per_block =
      cfg.chunking ? optimized_shared_bytes(cfg.block_threads, cfg.chunk_size)
                   : 0;
  plan.launch.regs_per_thread = cfg.use_registers ? 63 : 32;

  plan.ops = fused_ops;
  const std::uint64_t scratch =
      fused_ops.occurrence_ops * kScratchTouchesPerEvent;
  if (traits.scratch_in_global) {
    plan.ops.global_updates = scratch;
  } else if (!traits.scratch_in_registers) {
    plan.ops.shared_accesses = scratch;
  }
  return plan;
}

SimulationResult GpuBasicEngine::run(const Portfolio& portfolio,
                                     const Yet& yet,
                                     const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());
  const KernelPlan plan = basic_kernel_plan(
      config_, range.size(),
      range_fused_ops(portfolio, yet, range.begin, range.end));

  SimulationResult result;
  result.engine_name = name();
  result.devices = 1;
  result.trial_begin = range.begin;
  result.ops = plan.ops;

  perf::Stopwatch wall;
  simgpu::SimDevice dev(device_);
  const std::uint64_t tables = tables_device_bytes(portfolio, 8);
  const std::uint64_t yet_bytes =
      yet_device_bytes(yet, range.begin, range.end);
  // One double per (layer, trial): the YLT slice, and as much again
  // for the per-event scratch (lx, lox) in global memory, one slot per
  // resident thread's current event — the basic implementation keeps
  // whole trial arrays per thread.
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(portfolio.layer_count()) * range.size() * 8;
  dev.alloc(tables);
  dev.alloc(yet_bytes);
  dev.alloc(row_bytes);
  dev.copy(tables);
  dev.copy(yet_bytes);

  TableStore<double> local;
  const FusedSweep<double> sweep =
      prepare_sweep<double>(config_, portfolio, context, local);
  result.simd_isa = simd::isa_name(sweep.kernel.isa);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }
  launch_fused(dev, "ara_basic_multilayer", plan.launch, plan.traits,
               plan.ops, context.cost_only ? nullptr : &sweep, yet,
               range.begin, range.end, range.begin, result.ylt);
  dev.copy(row_bytes);  // the YLT slice back

  result.wall_seconds = wall.seconds();
  result.simulated_phases = dev.phase_seconds();
  result.simulated_seconds = kernel_seconds(result.simulated_phases);
  return result;
}

SimulationResult GpuOptimizedEngine::run(const Portfolio& portfolio,
                                         const Yet& yet,
                                         const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());
  return run_optimized(name(), {device_}, {{range.begin, range.end}},
                       portfolio, yet, context, config_);
}

SimulationResult GpuCombinedTableEngine::run(
    const Portfolio& portfolio, const Yet& yet,
    const EngineContext& context) const {
  // Deliberately layer-major: this engine reproduces the paper's
  // *rejected* combined-table formulation, whose per-layer launches
  // and cooperative row loads are the point of comparison. It does not
  // take the trial-major fusion. Functionally each launch runs one
  // layer's elt_sum + aggregate_step (core/simd/steps.hpp) over the
  // binding of the event-major store every engine shares (rows of all
  // ELT losses per event — the combined table); only the simulated
  // costs below model the GPU's shared-memory row staging.
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.devices = 1;
  result.trial_begin = range.begin;
  result.ops = range_ops(portfolio, yet, range.begin, range.end);
  // Coordination cost of the cooperative row loads: per (event, ELT)
  // each thread writes its requested event id to shared memory and
  // reads the delivered row back — two extra shared accesses per
  // lookup on top of the scratch traffic.
  result.ops.shared_accesses =
      result.ops.elt_lookups * 2 +
      result.ops.occurrence_ops * kScratchTouchesPerEvent;

  perf::Stopwatch wall;
  simgpu::SimDevice dev(device_);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }

  dev.alloc(tables_device_bytes(portfolio, 8));
  dev.alloc(yet_device_bytes(yet, range.begin, range.end));
  dev.copy(tables_device_bytes(portfolio, 8));
  dev.copy(yet_device_bytes(yet, range.begin, range.end));

  simgpu::KernelTraits traits;
  traits.loss_bytes = 8;
  traits.chunked = true;  // rows are staged through shared memory
  // The row loads serialise on the shared-memory coordination step, so
  // the per-thread memory-level parallelism collapses back to ~1, and
  // every staged row adds a request/deliver handshake plus a barrier —
  // this is why the paper found the combined layout slower despite the
  // cooperative loads. The 0.75 penalty is calibrated to make the
  // variant "comparatively poorer" as reported (Sec. III).
  traits.mlp_per_thread = 1;
  traits.cooperative_load_penalty = 0.75;
  traits.scratch_in_global = false;
  traits.scratch_in_registers = false;  // scratch lives in shared memory

  simgpu::LaunchConfig launch = grid_for(config_.block_threads, range.size());
  // One staged combined row per thread plus the request slots.
  launch.shared_bytes_per_block =
      static_cast<std::size_t>(config_.block_threads) *
          (portfolio.mean_elts_per_layer() > 0
               ? static_cast<std::size_t>(portfolio.mean_elts_per_layer()) * 8
               : 8) +
      static_cast<std::size_t>(config_.block_threads) * 4 + 256;
  launch.regs_per_thread = 24;

  OpCounts launch_ops = range_ops(portfolio, yet, range.begin, range.end);
  launch_ops.shared_accesses = result.ops.shared_accesses;

  TableStore<double> local;
  const TableStore<double>* tables =
      context.cost_only ? nullptr
                        : select_tables(context.tables_f64, local, portfolio);
  const simd::BoundPortfolio<double> bp =
      context.cost_only ? simd::BoundPortfolio<double>{}
                        : simd::bind_portfolio(portfolio, *tables);
  // One scratch for every launch: SimDevice runs each launch's threads
  // one after another on this host thread.
  std::vector<EventOccurrence> scratch;
  for (std::size_t a = 0; a < portfolio.layer_count(); ++a) {
    if (context.cost_only) {
      dev.launch_cost_only("ara_combined_layer" + std::to_string(a), launch,
                           traits, launch_ops);
      continue;
    }
    const simd::EltSlots<double> slots = simd::layer_slots(bp, a);
    const simd::XlTerms<double> terms = simd::xl_terms(bp, a);
    dev.launch(
        "ara_combined_layer" + std::to_string(a), launch, traits,
        launch_ops, [&](const simgpu::SimDevice::ThreadCtx& ctx) {
          if (ctx.global_id() >= range.size()) return;
          const auto t = static_cast<TrialId>(range.begin + ctx.global_id());
          const auto row = static_cast<TrialId>(ctx.global_id());
          double max_occ = 0.0, cumulative = 0.0;
          double prev_capped = 0.0, annual = 0.0;
          for (const EventOccurrence& occ :
               covered_occurrences(*tables, yet.trial(t), scratch)) {
            simd::aggregate_step(
                terms, simd::elt_sum(slots, simd::row_of(bp, occ.event)),
                max_occ, cumulative, prev_capped, annual);
          }
          result.ylt.annual_loss(a, row) = annual;
          result.ylt.max_occurrence_loss(a, row) = max_occ;
        });
  }
  dev.copy(static_cast<std::uint64_t>(portfolio.layer_count()) *
           range.size() * 8);

  result.wall_seconds = wall.seconds();
  result.simulated_phases = dev.phase_seconds();
  result.simulated_seconds = kernel_seconds(result.simulated_phases);
  return result;
}

SimulationResult StreamedGpuEngine::run(const Portfolio& portfolio,
                                        const Yet& yet,
                                        const EngineContext& context) const {
  return config_.use_float
             ? run_streamed_as<float>(name(), device_, portfolio, yet,
                                      context, config_)
             : run_streamed_as<double>(name(), device_, portfolio, yet,
                                       context, config_);
}

std::size_t StreamedGpuEngine::batch_count(const Portfolio& portfolio,
                                           const Yet& yet) const {
  const std::size_t batch_trials =
      streamed_batch_trials(device_, config_, portfolio, yet);
  if (batch_trials == 0) return 0;
  return (yet.trial_count() + batch_trials - 1) / batch_trials;
}

HeterogeneousMultiGpuEngine::HeterogeneousMultiGpuEngine(
    std::vector<simgpu::DeviceSpec> devices, EngineConfig config)
    : devices_(std::move(devices)), config_(config) {
  if (devices_.empty()) {
    throw std::invalid_argument(
        "HeterogeneousMultiGpuEngine: at least one device required");
  }
  // Weight = modelled random-lookup throughput: bandwidth x the
  // precision-matched random-access efficiency (the quantity that
  // dominates 97% of the runtime).
  double total = 0.0;
  weights_.reserve(devices_.size());
  for (const auto& d : devices_) {
    const double eff = config_.use_float ? d.random_access_efficiency_f32
                                         : d.random_access_efficiency_f64;
    const double w = d.mem_bandwidth_gbps * eff;
    weights_.push_back(w);
    total += w;
  }
  for (double& w : weights_) w /= total;
}

SimulationResult HeterogeneousMultiGpuEngine::run(
    const Portfolio& portfolio, const Yet& yet,
    const EngineContext& context) const {
  // Weighted contiguous split of this run's trial range.
  const TrialRange range = context.trials.resolve(yet.trial_count());
  std::vector<parallel::Range> slices(devices_.size());
  std::size_t at = range.begin;
  double carry = 0.0;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    carry += weights_[d] * static_cast<double>(range.size());
    std::size_t end =
        d + 1 == devices_.size()
            ? range.end
            : std::min(range.end,
                       range.begin + static_cast<std::size_t>(carry + 0.5));
    end = std::max(end, at);
    slices[d] = {at, end};
    at = end;
  }
  return run_optimized(name(), devices_, slices, portfolio, yet, context,
                       config_);
}

SimulationResult MultiGpuEngine::run(const Portfolio& portfolio,
                                     const Yet& yet,
                                     const EngineContext& context) const {
  // Even split of this run's trial range across the devices.
  const TrialRange range = context.trials.resolve(yet.trial_count());
  std::vector<parallel::Range> slices =
      parallel::split_even(range.size(), device_count_);
  for (parallel::Range& r : slices) {
    r.begin += range.begin;
    r.end += range.begin;
  }
  return run_optimized(name(),
                       std::vector<simgpu::DeviceSpec>(device_count_, device_),
                       slices, portfolio, yet, context, config_);
}

}  // namespace ara

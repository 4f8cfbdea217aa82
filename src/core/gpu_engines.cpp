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

// Runs the optimised kernel for global trials [begin, end) on `dev`,
// writing into `out` at local rows (trial - out_base); out_base is the
// global index of out's first row (0 for a full run). One fused
// multi-layer launch per device: each thread walks its trial once and
// updates every layer, so the YET slice crosses the memory system once
// instead of once per layer. The paper's chunking (staging chunk_size
// events through shared memory), register scratch and unrolling are
// memory-traffic optimisations that never change a result: the
// simulator charges them through KernelTraits, and the functional pass
// is the dispatched sweep whatever the launch shape. With cost_only
// the same alloc/copy/launch sequence is charged to the simulated
// timeline without executing the kernel (tables may be an empty
// store).
template <typename Real>
void run_optimized_on_device(simgpu::SimDevice& dev, const Portfolio& p,
                             const Yet& yet, const TableStore<Real>& tables,
                             const EngineConfig& cfg, std::size_t begin,
                             std::size_t end, std::size_t out_base, Ylt& out,
                             bool cost_only = false) {
  const std::size_t trials = end - begin;
  if (trials == 0) return;

  const unsigned loss_bytes = sizeof(Real);
  dev.alloc(tables_device_bytes(p, loss_bytes));
  dev.alloc(yet_device_bytes(yet, begin, end));
  dev.alloc(static_cast<std::uint64_t>(p.layer_count()) * trials * loss_bytes);

  // Host -> device: the direct access tables and this device's YET
  // slice (the preprocessing stage of the paper).
  dev.copy(tables_device_bytes(p, loss_bytes));
  dev.copy(yet_device_bytes(yet, begin, end));

  simgpu::KernelTraits traits;
  traits.loss_bytes = loss_bytes;
  traits.chunked = cfg.chunking;
  traits.mlp_per_thread =
      cfg.chunking ? std::min(cfg.chunk_size, 16u) : 1;
  traits.scratch_in_global = !cfg.chunking && !cfg.use_registers;
  traits.scratch_in_registers = cfg.use_registers;
  traits.unrolled = cfg.unroll;

  simgpu::LaunchConfig launch;
  launch.block_threads = cfg.block_threads;
  launch.grid_blocks = static_cast<unsigned>(
      (trials + cfg.block_threads - 1) / cfg.block_threads);
  launch.shared_bytes_per_block =
      cfg.chunking ? optimized_shared_bytes(cfg.block_threads, cfg.chunk_size)
                   : 0;
  launch.regs_per_thread = cfg.use_registers ? 63 : 32;

  OpCounts ops = range_fused_ops(p, yet, begin, end);
  const std::uint64_t scratch =
      ops.occurrence_ops * kScratchTouchesPerEvent;
  if (traits.scratch_in_global) {
    ops.global_updates = scratch;
  } else if (!traits.scratch_in_registers) {
    ops.shared_accesses = scratch;
  }

  if (cost_only) {
    dev.launch_cost_only("ara_optimized_multilayer", launch, traits, ops);
  } else {
    // The per-trial work is the dispatched SoA kernel: scalar in the
    // bitwise-reference mode, vectorized under kAuto.
    const simd::SweepKernel<Real> kernel =
        simd::select_kernel<Real>(cfg.simd, cfg.simd_width);
    const simd::BoundPortfolio<Real> bp = simd::bind_portfolio(p, tables);
    // Running state; SimDevice executes the functor thread by thread
    // on this host thread, so one buffer serves the whole launch.
    simd::PortfolioTrialState<Real> state(bp);
    dev.launch(
        "ara_optimized_multilayer", launch, traits, ops,
        [&](const simgpu::SimDevice::ThreadCtx& ctx) {
          if (ctx.global_id() >= trials) return;  // guard threads past range
          const TrialId t = static_cast<TrialId>(begin + ctx.global_id());
          const auto row = static_cast<TrialId>(t - out_base);
          kernel.sweep(bp, yet.trial(t), state);
          for (std::size_t a = 0; a < bp.layers; ++a) {
            out.annual_loss(a, row) = static_cast<double>(state.annual[a]);
            out.max_occurrence_loss(a, row) =
                static_cast<double>(state.max_occurrence[a]);
          }
        });
  }

  // Device -> host: the YLT slice.
  dev.copy(static_cast<std::uint64_t>(p.layer_count()) * trials * loss_bytes);
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

SimulationResult GpuBasicEngine::run(const Portfolio& portfolio,
                                     const Yet& yet,
                                     const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.devices = 1;
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);
  result.ops.global_updates =
      result.ops.occurrence_ops * kScratchTouchesPerEvent;

  perf::Stopwatch wall;
  simgpu::SimDevice dev(device_);

  dev.alloc(tables_device_bytes(portfolio, 8));
  dev.alloc(yet_device_bytes(yet, range.begin, range.end));
  // Per-event scratch (lx, lox) lives in global memory, one slot per
  // resident thread's current event — the basic implementation keeps
  // whole trial arrays per thread.
  dev.alloc(static_cast<std::uint64_t>(portfolio.layer_count()) *
            range.size() * 8);
  dev.copy(tables_device_bytes(portfolio, 8));
  dev.copy(yet_device_bytes(yet, range.begin, range.end));

  simgpu::KernelTraits traits;  // double, mlp 1, global scratch
  traits.loss_bytes = 8;
  traits.scratch_in_global = true;

  simgpu::LaunchConfig launch;
  launch.block_threads = config_.block_threads;
  launch.grid_blocks = static_cast<unsigned>(
      (range.size() + config_.block_threads - 1) /
      config_.block_threads);
  launch.regs_per_thread = 20;

  OpCounts launch_ops =
      range_fused_ops(portfolio, yet, range.begin, range.end);
  launch_ops.global_updates =
      launch_ops.occurrence_ops * kScratchTouchesPerEvent;

  const simd::SweepKernel<double> kernel =
      simd::select_kernel<double>(config_.simd, config_.simd_width);
  result.simd_isa = simd::isa_name(kernel.isa);

  if (context.cost_only) {
    dev.launch_cost_only("ara_basic_multilayer", launch, traits, launch_ops);
  } else {
    TableStore<double> local;
    const TableStore<double>& tables =
        *select_tables(context.tables_f64, local, portfolio);
    result.ylt = Ylt(portfolio.layer_count(), range.size());

    // One fused launch: each thread walks its trial once, updating
    // every layer's accumulators from the single YET read.
    const simd::BoundPortfolio<double> bp =
        simd::bind_portfolio(portfolio, tables);
    simd::PortfolioTrialState<double> state(bp);
    dev.launch("ara_basic_multilayer", launch, traits, launch_ops,
               [&](const simgpu::SimDevice::ThreadCtx& ctx) {
                 if (ctx.global_id() >= range.size()) return;
                 const auto t =
                     static_cast<TrialId>(range.begin + ctx.global_id());
                 const auto row = static_cast<TrialId>(ctx.global_id());
                 kernel.sweep(bp, yet.trial(t), state);
                 for (std::size_t a = 0; a < bp.layers; ++a) {
                   result.ylt.annual_loss(a, row) = state.annual[a];
                   result.ylt.max_occurrence_loss(a, row) =
                       state.max_occurrence[a];
                 }
               });
  }
  dev.copy(static_cast<std::uint64_t>(portfolio.layer_count()) *
           range.size() * 8);

  result.wall_seconds = wall.seconds();
  result.simulated_phases = dev.phase_seconds();
  result.simulated_seconds = result.simulated_phases.total() -
                             result.simulated_phases[perf::Phase::kTransfer];
  return result;
}

SimulationResult GpuOptimizedEngine::run(const Portfolio& portfolio,
                                         const Yet& yet,
                                         const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.devices = 1;
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);

  result.simd_isa = simd::isa_name(
      config_.use_float
          ? simd::select_kernel<float>(config_.simd, config_.simd_width).isa
          : simd::select_kernel<double>(config_.simd, config_.simd_width)
                .isa);

  perf::Stopwatch wall;
  simgpu::SimDevice dev(device_);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }
  if (config_.use_float) {
    TableStore<float> local;
    const TableStore<float>& tables =
        context.cost_only ? local
                          : *select_tables(context.tables_f32, local,
                                           portfolio);
    run_optimized_on_device<float>(dev, portfolio, yet, tables, config_,
                                   range.begin, range.end, range.begin,
                                   result.ylt, context.cost_only);
  } else {
    TableStore<double> local;
    const TableStore<double>& tables =
        context.cost_only ? local
                          : *select_tables(context.tables_f64, local,
                                           portfolio);
    run_optimized_on_device<double>(dev, portfolio, yet, tables, config_,
                                    range.begin, range.end, range.begin,
                                    result.ylt, context.cost_only);
  }
  result.wall_seconds = wall.seconds();
  result.simulated_phases = dev.phase_seconds();
  result.simulated_seconds = result.simulated_phases.total() -
                             result.simulated_phases[perf::Phase::kTransfer];
  return result;
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

  simgpu::LaunchConfig launch;
  launch.block_threads = config_.block_threads;
  launch.grid_blocks = static_cast<unsigned>(
      (range.size() + config_.block_threads - 1) /
      config_.block_threads);
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
  const simd::BoundPortfolio<double> bp =
      context.cost_only
          ? simd::BoundPortfolio<double>{}
          : simd::bind_portfolio(
                portfolio, *select_tables(context.tables_f64, local,
                                          portfolio));
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
          for (const EventOccurrence& occ : yet.trial(t)) {
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
  result.simulated_seconds = result.simulated_phases.total() -
                             result.simulated_phases[perf::Phase::kTransfer];
  return result;
}

SimulationResult StreamedGpuEngine::run(const Portfolio& portfolio,
                                        const Yet& yet,
                                        const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.devices = 1;
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);

  perf::Stopwatch wall;
  simgpu::SimDevice dev(device_);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }

  const unsigned loss_bytes = config_.use_float ? 4 : 8;
  const std::uint64_t tables = tables_device_bytes(portfolio, loss_bytes);
  if (tables >= device_.global_mem_bytes) {
    throw std::runtime_error(
        "StreamedGpuEngine: loss tables alone exceed device memory");
  }
  dev.alloc(tables);
  dev.copy(tables);

  // Batch size: fill the memory left after the tables with YET slice
  // (4 B/event + offsets) + YLT slice, using the mean trial length.
  const double events_per_trial =
      std::max(1.0, yet.mean_events_per_trial());
  const double bytes_per_trial =
      events_per_trial * 4.0 + 8.0 +
      static_cast<double>(portfolio.layer_count()) * loss_bytes;
  const std::uint64_t budget = device_.global_mem_bytes - tables;
  std::size_t batch_trials = static_cast<std::size_t>(
      static_cast<double>(budget) * 0.75 / bytes_per_trial);
  batch_trials = std::max<std::size_t>(1, batch_trials);

  TableStore<float> local_f;
  TableStore<double> local_d;
  const TableStore<float>* tables_f =
      config_.use_float && !context.cost_only
          ? select_tables(context.tables_f32, local_f, portfolio)
          : nullptr;
  const TableStore<double>* tables_d =
      config_.use_float || context.cost_only
          ? nullptr
          : select_tables(context.tables_f64, local_d, portfolio);

  const simd::SweepKernel<float> kernel_f =
      simd::select_kernel<float>(config_.simd, config_.simd_width);
  const simd::SweepKernel<double> kernel_d =
      simd::select_kernel<double>(config_.simd, config_.simd_width);
  result.simd_isa =
      simd::isa_name(config_.use_float ? kernel_f.isa : kernel_d.isa);

  const simd::BoundPortfolio<float> bp_f =
      tables_f ? simd::bind_portfolio(portfolio, *tables_f)
               : simd::BoundPortfolio<float>{};
  const simd::BoundPortfolio<double> bp_d =
      tables_d ? simd::bind_portfolio(portfolio, *tables_d)
               : simd::BoundPortfolio<double>{};
  simd::PortfolioTrialState<float> state_f(bp_f);
  simd::PortfolioTrialState<double> state_d(bp_d);

  for (std::size_t begin = range.begin; begin < range.end;
       begin += batch_trials) {
    const std::size_t end = std::min(begin + batch_trials, range.end);
    const std::uint64_t yet_bytes = yet_device_bytes(yet, begin, end);
    const std::uint64_t ylt_bytes =
        static_cast<std::uint64_t>(portfolio.layer_count()) *
        (end - begin) * loss_bytes;
    dev.alloc(yet_bytes);
    dev.alloc(ylt_bytes);
    dev.copy(yet_bytes);

    // Run the fused multi-layer kernel on this batch (tables are
    // resident).
    simgpu::KernelTraits traits;
    traits.loss_bytes = loss_bytes;
    traits.chunked = config_.chunking;
    traits.mlp_per_thread =
        config_.chunking ? std::min(config_.chunk_size, 16u) : 1;
    traits.scratch_in_registers = config_.use_registers;
    traits.scratch_in_global = !config_.chunking && !config_.use_registers;
    traits.unrolled = config_.unroll;

    simgpu::LaunchConfig launch;
    launch.block_threads = config_.block_threads;
    launch.grid_blocks = static_cast<unsigned>(
        (end - begin + config_.block_threads - 1) / config_.block_threads);
    launch.shared_bytes_per_block =
        config_.chunking
            ? optimized_shared_bytes(config_.block_threads, config_.chunk_size)
            : 0;
    launch.regs_per_thread = config_.use_registers ? 63 : 32;
    const OpCounts ops = range_fused_ops(portfolio, yet, begin, end);

    if (context.cost_only) {
      dev.launch_cost_only("ara_streamed_multilayer", launch, traits, ops);
    } else if (config_.use_float) {
      dev.launch("ara_streamed_multilayer", launch, traits, ops,
                 [&](const simgpu::SimDevice::ThreadCtx& ctx) {
                   if (ctx.global_id() >= end - begin) return;
                   const auto t =
                       static_cast<TrialId>(begin + ctx.global_id());
                   const auto row = static_cast<TrialId>(t - range.begin);
                   kernel_f.sweep(bp_f, yet.trial(t), state_f);
                   for (std::size_t a = 0; a < bp_f.layers; ++a) {
                     result.ylt.annual_loss(a, row) =
                         static_cast<double>(state_f.annual[a]);
                     result.ylt.max_occurrence_loss(a, row) =
                         static_cast<double>(state_f.max_occurrence[a]);
                   }
                 });
    } else {
      dev.launch("ara_streamed_multilayer", launch, traits, ops,
                 [&](const simgpu::SimDevice::ThreadCtx& ctx) {
                   if (ctx.global_id() >= end - begin) return;
                   const auto t =
                       static_cast<TrialId>(begin + ctx.global_id());
                   const auto row = static_cast<TrialId>(t - range.begin);
                   kernel_d.sweep(bp_d, yet.trial(t), state_d);
                   for (std::size_t a = 0; a < bp_d.layers; ++a) {
                     result.ylt.annual_loss(a, row) = state_d.annual[a];
                     result.ylt.max_occurrence_loss(a, row) =
                         state_d.max_occurrence[a];
                   }
                 });
    }

    dev.copy(ylt_bytes);   // results back
    dev.free(yet_bytes);   // release the batch
    dev.free(ylt_bytes);
  }

  result.wall_seconds = wall.seconds();
  result.simulated_phases = dev.phase_seconds();
  result.simulated_seconds = result.simulated_phases.total() -
                             result.simulated_phases[perf::Phase::kTransfer];
  return result;
}

std::size_t StreamedGpuEngine::batch_count(const Portfolio& portfolio,
                                           const Yet& yet) const {
  const unsigned loss_bytes = config_.use_float ? 4 : 8;
  const std::uint64_t tables = tables_device_bytes(portfolio, loss_bytes);
  if (tables >= device_.global_mem_bytes) return 0;
  const double events_per_trial =
      std::max(1.0, yet.mean_events_per_trial());
  const double bytes_per_trial =
      events_per_trial * 4.0 + 8.0 +
      static_cast<double>(portfolio.layer_count()) * loss_bytes;
  const std::uint64_t budget = device_.global_mem_bytes - tables;
  const std::size_t batch_trials = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(budget) * 0.75 /
                                  bytes_per_trial));
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
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.devices = static_cast<unsigned>(devices_.size());
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);
  result.simd_isa = simd::isa_name(
      config_.use_float
          ? simd::select_kernel<float>(config_.simd, config_.simd_width).isa
          : simd::select_kernel<double>(config_.simd, config_.simd_width)
                .isa);

  perf::Stopwatch wall;
  simgpu::SimPlatform platform(devices_);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }

  // Weighted contiguous split of this run's trial range.
  std::vector<parallel::Range> ranges(devices_.size());
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
    ranges[d] = {at, end};
    at = end;
  }

  if (config_.use_float) {
    TableStore<float> local;
    const TableStore<float>& tables =
        context.cost_only
            ? local
            : *select_tables(context.tables_f32, local, portfolio);
    platform.for_each_device([&](std::size_t d) {
      run_optimized_on_device<float>(platform.device(d), portfolio, yet,
                                     tables, config_, ranges[d].begin,
                                     ranges[d].end, range.begin, result.ylt,
                                     context.cost_only);
    });
  } else {
    TableStore<double> local;
    const TableStore<double>& tables =
        context.cost_only
            ? local
            : *select_tables(context.tables_f64, local, portfolio);
    platform.for_each_device([&](std::size_t d) {
      run_optimized_on_device<double>(platform.device(d), portfolio, yet,
                                      tables, config_, ranges[d].begin,
                                      ranges[d].end, range.begin, result.ylt,
                                      context.cost_only);
    });
  }

  result.wall_seconds = wall.seconds();
  result.simulated_phases = platform.mean_phase_seconds();
  result.simulated_seconds = 0.0;
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    const auto& ph = platform.device(d).phase_seconds();
    result.simulated_seconds =
        std::max(result.simulated_seconds,
                 ph.total() - ph[perf::Phase::kTransfer]);
  }
  return result;
}

SimulationResult MultiGpuEngine::run(const Portfolio& portfolio,
                                     const Yet& yet,
                                     const EngineContext& context) const {
  const TrialRange range = context.trials.resolve(yet.trial_count());

  SimulationResult result;
  result.engine_name = name();
  result.devices = static_cast<unsigned>(device_count_);
  result.trial_begin = range.begin;
  result.ops = range_fused_ops(portfolio, yet, range.begin, range.end);
  result.simd_isa = simd::isa_name(
      config_.use_float
          ? simd::select_kernel<float>(config_.simd, config_.simd_width).isa
          : simd::select_kernel<double>(config_.simd, config_.simd_width)
                .isa);

  perf::Stopwatch wall;
  simgpu::SimPlatform platform(device_, device_count_);
  if (!context.cost_only) {
    result.ylt = Ylt(portfolio.layer_count(), range.size());
  }

  // Even split of this run's trial range across the devices.
  std::vector<parallel::Range> ranges =
      parallel::split_even(range.size(), device_count_);
  for (parallel::Range& r : ranges) {
    r.begin += range.begin;
    r.end += range.begin;
  }

  // Tables are built once on the host (or borrowed from the session's
  // cache) and shipped to every device; the YET is sliced. One host
  // thread drives one GPU (the paper's dispatch scheme), realised by
  // SimPlatform::for_each_device.
  if (config_.use_float) {
    TableStore<float> local;
    const TableStore<float>& tables =
        context.cost_only
            ? local
            : *select_tables(context.tables_f32, local, portfolio);
    platform.for_each_device([&](std::size_t d) {
      run_optimized_on_device<float>(platform.device(d), portfolio, yet,
                                     tables, config_, ranges[d].begin,
                                     ranges[d].end, range.begin, result.ylt,
                                     context.cost_only);
    });
  } else {
    TableStore<double> local;
    const TableStore<double>& tables =
        context.cost_only
            ? local
            : *select_tables(context.tables_f64, local, portfolio);
    platform.for_each_device([&](std::size_t d) {
      run_optimized_on_device<double>(platform.device(d), portfolio, yet,
                                      tables, config_, ranges[d].begin,
                                      ranges[d].end, range.begin, result.ylt,
                                      context.cost_only);
    });
  }

  result.wall_seconds = wall.seconds();
  // Devices run concurrently: the platform time is the slowest device;
  // phase attribution is the per-device mean.
  result.simulated_phases = platform.mean_phase_seconds();
  result.simulated_seconds = 0.0;
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    const auto& ph = platform.device(d).phase_seconds();
    result.simulated_seconds = std::max(
        result.simulated_seconds,
        ph.total() - ph[perf::Phase::kTransfer]);
  }
  return result;
}

}  // namespace ara

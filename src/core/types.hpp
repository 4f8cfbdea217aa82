// Fundamental identifier and counter types shared across the library.
#pragma once

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>

namespace ara {

/// Identifier of a stochastic catalogue event. Valid ids are
/// 1..catalogue_size; 0 is reserved as "no event".
using EventId = std::uint32_t;

constexpr EventId kInvalidEvent = 0;

/// Index of a trial (a simulated contractual year) in the YET.
using TrialId = std::uint32_t;

/// Timestamp of an event occurrence within a trial, in day-of-year
/// ordinal units (1..365). Only the ordering matters to the algorithm;
/// the aggregate terms are sequence-dependent.
using Timestamp = std::uint32_t;

/// One occurrence record in a trial: which event, and when.
struct EventOccurrence {
  EventId event = kInvalidEvent;
  Timestamp time = 0;

  friend bool operator==(const EventOccurrence&,
                         const EventOccurrence&) = default;
};

/// Operation counters accumulated by the engines. These are the inputs
/// to the analytic cost models in src/perf and src/simgpu: they count
/// *algorithmic* work (how many random lookups, how many term
/// applications), which the models convert into simulated time on a
/// given machine profile.
struct OpCounts {
  std::uint64_t event_fetches = 0;    ///< YET reads (one per event per trial)
  std::uint64_t elt_lookups = 0;      ///< random accesses into loss tables
  std::uint64_t financial_ops = 0;    ///< financial-term applications
  std::uint64_t occurrence_ops = 0;   ///< occurrence-term applications
  std::uint64_t aggregate_ops = 0;    ///< aggregate-term/prefix-sum steps
  std::uint64_t global_updates = 0;   ///< writes to (simulated) global memory
  std::uint64_t shared_accesses = 0;  ///< accesses to (simulated) shared memory

  OpCounts& operator+=(const OpCounts& o) {
    event_fetches += o.event_fetches;
    elt_lookups += o.elt_lookups;
    financial_ops += o.financial_ops;
    occurrence_ops += o.occurrence_ops;
    aggregate_ops += o.aggregate_ops;
    global_updates += o.global_updates;
    shared_accesses += o.shared_accesses;
    return *this;
  }

  friend OpCounts operator+(OpCounts a, const OpCounts& b) {
    a += b;
    return a;
  }

  friend bool operator==(const OpCounts&, const OpCounts&) = default;
};

// The simulated GPU's two refusals (simgpu/sim_device.hpp throws them).
// An engine run that meets one cannot execute on that device at all;
// kAuto prices such a kind as infeasible, while every other failure
// propagates.

/// An allocation beyond the card's global memory (cudaMalloc fails).
class DeviceMemoryExhausted : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "simulated device: allocation exceeds global memory";
  }
};

/// A launch shape the occupancy model rejects; `limiter()` names the
/// exhausted resource (e.g. "shared_memory_per_block").
class InfeasibleLaunch : public std::runtime_error {
 public:
  InfeasibleLaunch(const std::string& what, const char* limiter)
      : std::runtime_error(what), limiter_(limiter) {}
  const char* limiter() const noexcept { return limiter_; }

 private:
  const char* limiter_;
};

}  // namespace ara

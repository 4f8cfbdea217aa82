// ReferenceEngine: literal transcription of the paper's Algorithm 1
// (lines 1-32) in double precision — the sequential CPU implementation
// whose 337.47 s headline anchors every speed-up in the paper, and the
// correctness oracle for every other engine in this library. To stay
// independent of the engines it checks, it builds its own per-ELT
// direct access tables from the ELT records and ignores the shared
// event-major store in EngineContext::tables_*.
#pragma once

#include "core/engine.hpp"

namespace ara {

class ReferenceEngine final : public Engine {
 public:
  explicit ReferenceEngine(EngineConfig config = {}) : config_(config) {}

  std::string name() const override { return "sequential_reference"; }

  using Engine::run;
  SimulationResult run(const Portfolio& portfolio, const Yet& yet,
                       const EngineContext& context) const override;

 private:
  EngineConfig config_;
};

}  // namespace ara

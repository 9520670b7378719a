// SchedulerEngine adapter for the Edge TPU compiler substitute
// (heuristics/edgetpu_compiler.h) — the commercial-compiler baseline.
#pragma once

#include "engines/engine.h"
#include "heuristics/edgetpu_compiler.h"

namespace respect::engines {

class EdgeTpuCompilerEngine : public SchedulerEngine {
 public:
  explicit EdgeTpuCompilerEngine(const heuristics::EdgeTpuCompilerConfig& config)
      : config_(config) {}

  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;

 private:
  heuristics::EdgeTpuCompilerConfig config_;
};

}  // namespace respect::engines

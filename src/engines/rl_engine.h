// SchedulerEngine adapter for the paper's RL scheduler (rl/scheduler.h).
#pragma once

#include <memory>

#include "engines/engine.h"
#include "rl/scheduler.h"

namespace respect::engines {

/// Wraps a shared immutable RlScheduler snapshot; decoding is const on the
/// agent, so one snapshot serves any number of concurrent Schedule() calls.
class RlEngine : public SchedulerEngine {
 public:
  /// A null `rl` builds a fresh default-configured (untrained) agent.
  explicit RlEngine(std::shared_ptr<const rl::RlScheduler> rl);

  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;

  /// Groups `dags` by node count (lock-stepped decodes need equal lengths),
  /// routes every group of >= 2 through the batched decode path — chunked
  /// into balanced pieces of at most rl::kMaxDecodeBatch — and falls back
  /// to the single-graph path for singletons.  Scalar-path results are
  /// bit-identical to per-graph Schedule() calls; `stats` reports the
  /// batch/single split.
  [[nodiscard]] std::vector<EngineResult> ScheduleBatch(
      std::span<const graph::Dag* const> dags,
      const sched::PipelineConstraints& constraints,
      const EngineBudget& budget, SolveStats* stats = nullptr) const override;

 private:
  std::shared_ptr<const rl::RlScheduler> rl_;
};

}  // namespace respect::engines

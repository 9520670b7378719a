// SchedulerEngine adapters for the classic heuristics and the greedy exact
// partitioner: list scheduling, Hu's level algorithm, force-directed
// scheduling, simulated annealing, and the balanced contiguous partition of
// the default topological order.
#pragma once

#include "engines/engine.h"

namespace respect::engines {

class ListSchedulingEngine : public SchedulerEngine {
 public:
  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

class HuLevelEngine : public SchedulerEngine {
 public:
  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

class ForceDirectedEngine : public SchedulerEngine {
 public:
  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

class AnnealingEngine : public SchedulerEngine {
 public:
  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

class GreedyBalanceEngine : public SchedulerEngine {
 public:
  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

}  // namespace respect::engines

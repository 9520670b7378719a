// SchedulerEngine adapter for the exact ILP route (ilp/scheduling_ilp.h),
// which itself dispatches small instances to the generic Model-level B&B and
// larger ones to the structure-aware exact engine in src/exact.
#pragma once

#include "engines/engine.h"

namespace respect::engines {

class IlpEngine : public SchedulerEngine {
 public:
  [[nodiscard]] EngineResult Schedule(
      const graph::Dag& dag, const sched::PipelineConstraints& constraints,
      const EngineBudget& budget) const override;
};

}  // namespace respect::engines

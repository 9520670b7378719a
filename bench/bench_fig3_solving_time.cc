// Fig. 3 reproduction: schedule-solving runtime of RESPECT vs the Edge TPU
// compiler baseline and the exact (ILP) method, across the ten ImageNet
// models and 4/5/6-stage pipelines.
//
// The paper reports 24-683x speedups over the commercial compiler and
// 100-930x over CPLEX, growing with |V|.  Our substitutes preserve the
// ordering (RESPECT is orders of magnitude faster) and the growth with
// graph size; absolute ratios depend on how much work the closed-source
// backends really do per pass, which our mini backend necessarily
// understates (see EXPERIMENTS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "models/zoo.h"

namespace {

double Seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace respect;
  PipelineCompiler compiler = bench::MakeTrainedCompiler();

  std::printf("\nFig. 3: schedule solving time (ms) and speedups\n");

  for (const int stages : bench::kStageCounts) {
    std::printf("\n-- %d-stage pipeline --\n", stages);
    std::printf("%-20s %5s %10s %12s %10s %12s %12s\n", "Model", "|V|",
                "RL(ms)", "Compiler(ms)", "Exact(ms)", "RLvsComp", "RLvsExact");

    double min_comp = 1e30, max_comp = 0, min_exact = 1e30, max_exact = 0;
    for (const models::ModelName name : models::TableIModels()) {
      const graph::Dag dag = models::BuildModel(name);

      auto t0 = std::chrono::steady_clock::now();
      (void)compiler.Compile(dag, stages, "RESPECT");
      const double rl_s = Seconds(t0);

      t0 = std::chrono::steady_clock::now();
      (void)compiler.Compile(dag, stages, "EdgeTPUCompiler");
      const double comp_s = Seconds(t0);

      t0 = std::chrono::steady_clock::now();
      (void)compiler.Compile(dag, stages, "ExactILP");
      const double exact_s = Seconds(t0);

      const double speed_comp = comp_s / rl_s;
      const double speed_exact = exact_s / rl_s;
      min_comp = std::min(min_comp, speed_comp);
      max_comp = std::max(max_comp, speed_comp);
      min_exact = std::min(min_exact, speed_exact);
      max_exact = std::max(max_exact, speed_exact);

      std::printf("%-20s %5d %10.1f %12.1f %10.1f %11.1fx %11.1fx\n",
                  std::string(models::ModelNameString(name)).c_str(),
                  dag.NodeCount(), rl_s * 1e3, comp_s * 1e3, exact_s * 1e3,
                  speed_comp, speed_exact);
    }
    std::printf("speedup ranges: over compiler %.0fx-%.0fx   over exact "
                "%.0fx-%.0fx   (paper: 24x-683x and 100x-930x)\n",
                min_comp, max_comp, min_exact, max_exact);
  }
  return 0;
}

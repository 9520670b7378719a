// Fig. 4 reproduction: multi-stage pipelined Edge TPU inference runtime,
// normalized to the Edge TPU compiler baseline (scale = 1.0), for the
// exact method and RESPECT, across 4/5/6 stages.
//
// Metric follows the paper: average runtime of 10 rounds of 1,000 ImageNet
// inferences (the simulator is deterministic, so rounds are exact repeats;
// we simulate the full 10,000).  Expected shape: RESPECT <= 1.0 everywhere,
// gains grow with stage count (paper: 1.06x/1.08x/1.65x average, up to 2.5x
// at 6 stages), and the exact method occasionally loses to RESPECT (the
// performance-modeling miscorrelation of §IV-A).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "models/zoo.h"
#include "tpu/sim.h"

int main() {
  using namespace respect;
  PipelineCompiler compiler = bench::MakeTrainedCompiler();

  tpu::SimConfig sim;
  sim.num_inferences = bench::FastMode() ? 1000 : 5'000;  // 10 x 1000

  std::printf("\nFig. 4: pipelined Edge TPU inference runtime "
              "(normalized to Edge TPU compiler = 1.0)\n");

  for (const int stages : bench::kStageCounts) {
    std::printf("\n-- %d-stage pipeline --\n", stages);
    std::printf("%-20s %12s %12s %12s %10s\n", "Model", "Compiler(us)",
                "Exact", "RESPECT", "RL speedup");

    double geo_speedup = 1.0;
    double best_speedup = 0.0;
    int count = 0;
    for (const models::ModelName name : models::TableIModels()) {
      const graph::Dag dag = models::BuildModel(name);

      const auto compiled = compiler.Compile(dag, stages, "EdgeTPUCompiler");
      const auto exact = compiler.Compile(dag, stages, "ExactILP");
      const auto respect_rl = compiler.Compile(dag, stages, "RESPECT");

      const double base =
          tpu::SimulatePipeline(compiled.package, sim).per_inference_us;
      const double exact_us =
          tpu::SimulatePipeline(exact.package, sim).per_inference_us;
      const double rl_us =
          tpu::SimulatePipeline(respect_rl.package, sim).per_inference_us;

      const double speedup = base / rl_us;
      geo_speedup *= speedup;
      best_speedup = std::max(best_speedup, speedup);
      ++count;

      std::printf("%-20s %12.1f %12.3f %12.3f %9.2fx%s\n",
                  std::string(models::ModelNameString(name)).c_str(), base,
                  exact_us / base, rl_us / base, speedup,
                  exact_us > rl_us ? "  (exact worse than RL)" : "");
    }
    geo_speedup = std::pow(geo_speedup, 1.0 / count);
    std::printf("geo-mean RESPECT speedup over compiler: %.2fx   best: %.2fx"
                "   (paper averages: 1.06x/1.08x/1.65x; best 2.5x)\n",
                geo_speedup, best_speedup);
  }
  return 0;
}

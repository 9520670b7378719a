// End-to-end integration: the full RESPECT flow (model -> scheduler ->
// package -> simulated pipeline) through the public façade, for every
// scheduling method, plus cross-method quality orderings on real models.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>

#include "core/respect.h"
#include "graph/sampler.h"
#include "models/zoo.h"
#include "tpu/sim.h"

namespace respect {
namespace {

CompilerOptions FastOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 16;
  options.exact_max_expansions = 300'000;
  options.compiler.refinement_rounds = 2;
  options.compiler.compile_passes = 1;
  return options;
}

// Parameterized over the engine registry: every registered engine (not a
// hard-coded engine list) must serve the full compile->simulate flow.
class AllMethodsIntegrationTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMethodsIntegrationTest, CompileSimulateXception) {
  PipelineCompiler compiler(FastOptions());
  const graph::Dag dag = models::BuildModel(models::ModelName::kXception);
  const CompileResult result = compiler.Compile(dag, 4, GetParam());

  sched::PipelineConstraints c;
  c.num_stages = 4;
  EXPECT_TRUE(ValidateSchedule(dag, result.schedule, c).ok);
  EXPECT_EQ(result.package.num_stages, 4);
  EXPECT_GT(result.peak_stage_param_bytes, 0);
  EXPECT_GT(result.solve_seconds, 0.0);

  tpu::SimConfig sim;
  sim.num_inferences = 50;
  const auto r = tpu::SimulatePipeline(result.package, sim);
  EXPECT_GT(r.per_inference_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethodsIntegrationTest,
    ::testing::ValuesIn(engines::EngineRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(IntegrationTest, ExactNeverWorseThanHeuristicsOnPeakMemory) {
  PipelineCompiler compiler(FastOptions());
  std::mt19937_64 rng(3);
  const graph::Dag dag = graph::SampleTrainingDag(40, rng);
  const auto exact = compiler.Compile(dag, 4, "ExactILP");
  for (const char* engine : {"EdgeTPUCompiler", "ListScheduling", "HuLevel",
                             "ForceDirected", "GreedyBalance"}) {
    const auto other = compiler.Compile(dag, 4, engine);
    EXPECT_GE(other.peak_stage_param_bytes, exact.peak_stage_param_bytes)
        << engine;
  }
}

TEST(IntegrationTest, QuantizedPackageShrinksParamBytes) {
  CompilerOptions quantized = FastOptions();
  CompilerOptions raw = FastOptions();
  raw.quantize = false;
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet50);
  const auto q = PipelineCompiler(quantized).Compile(dag, 4, "GreedyBalance");
  const auto f = PipelineCompiler(raw).Compile(dag, 4, "GreedyBalance");
  EXPECT_NEAR(static_cast<double>(f.peak_stage_param_bytes) /
                  static_cast<double>(q.peak_stage_param_bytes),
              4.0, 0.1);
}

TEST(IntegrationTest, TrainOrLoadCacheRoundTrip) {
  const std::string path = "/tmp/respect_cache_test.bin";
  std::filesystem::remove(path);

  rl::TrainConfig train;
  train.iterations = 2;
  train.batch_size = 2;
  train.graph_nodes = 8;

  rl::PtrNetConfig net;
  net.hidden_dim = 12;
  rl::RlScheduler first(net);
  EXPECT_TRUE(EnsureTrainedAgent(first, path, train));   // trains + saves
  rl::RlScheduler second(net);
  EXPECT_FALSE(EnsureTrainedAgent(second, path, train));  // loads

  std::mt19937_64 rng(5);
  const graph::Dag dag = graph::SampleTrainingDag(20, rng);
  EXPECT_EQ(first.Agent().DecodeGreedy(dag), second.Agent().DecodeGreedy(dag));
  std::filesystem::remove(path);
}

TEST(IntegrationTest, SixStagePipelineFasterThanSingleTpuForBigModel) {
  // Pipelining must pay off for a model whose weights dwarf one cache.
  PipelineCompiler compiler(FastOptions());
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet152);
  const auto six = compiler.Compile(dag, 6, "ExactILP");
  const auto one = compiler.Compile(dag, 1, "GreedyBalance");
  tpu::SimConfig sim;
  sim.num_inferences = 200;
  EXPECT_LT(tpu::SimulatePipeline(six.package, sim).per_inference_us,
            tpu::SimulatePipeline(one.package, sim).per_inference_us);
}

}  // namespace
}  // namespace respect

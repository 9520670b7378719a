// Guards for the fused zero-allocation inference path:
//  * the optimized DecodeGreedy/DecodeSampled produce bit-identical
//    sequences to the frozen pre-optimization reference implementation
//    (rl/reference_decode.h) across sampled graph complexities (deg 2-6)
//    and both MaskingModes;
//  * a steady-state decode on a warm DecodeWorkspace performs ZERO heap
//    allocations (counted via a replaced global operator new);
//  * repair runs exactly once on both the standalone-scheduler path and the
//    engine/façade path, and both paths agree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/respect.h"
#include "graph/sampler.h"
#include "rl/decode_workspace.h"
#include "rl/ptrnet.h"
#include "rl/reference_decode.h"
#include "rl/scheduler.h"
#include "sched/postprocess.h"

// ---- Global allocation counter.  Every operator new in this binary funnels
// through malloc with a counter bump, so the zero-allocation guard below can
// measure exactly what one decode call allocates. ----

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace respect {
namespace {

rl::PtrNetConfig NetConfig(rl::MaskingMode masking) {
  rl::PtrNetConfig config;
  config.hidden_dim = 24;
  config.masking = masking;
  return config;
}

TEST(DecodeParityTest, GreedyMatchesReferenceAcrossComplexities) {
  for (const rl::MaskingMode masking :
       {rl::MaskingMode::kReadySet, rl::MaskingMode::kVisitedOnly}) {
    const rl::PtrNetAgent agent(NetConfig(masking));
    rl::DecodeWorkspace ws;
    std::mt19937_64 rng(17);
    for (int deg = 2; deg <= 6; ++deg) {
      graph::SamplerConfig sampler;
      sampler.max_in_degree = deg;
      for (const int nodes : {12, 30, 60}) {
        sampler.num_nodes = nodes;
        const graph::Dag dag = graph::SampleDag(sampler, rng);
        const auto expected = rl::ReferenceDecodeGreedy(agent, dag);
        EXPECT_EQ(agent.DecodeGreedy(dag), expected)
            << "deg=" << deg << " nodes=" << nodes;
        // The workspace overload must agree too, including when the
        // workspace is warm from a previous (different-sized) graph.
        EXPECT_EQ(agent.DecodeGreedy(dag, ws), expected)
            << "workspace deg=" << deg << " nodes=" << nodes;
      }
    }
  }
}

TEST(DecodeParityTest, SampledMatchesReferenceRngStream) {
  // Same seed on both paths: sequences only match if every probability is
  // bit-identical AND the rng is consumed identically.
  for (const rl::MaskingMode masking :
       {rl::MaskingMode::kReadySet, rl::MaskingMode::kVisitedOnly}) {
    const rl::PtrNetAgent agent(NetConfig(masking));
    rl::DecodeWorkspace ws;
    std::mt19937_64 graph_rng(23);
    for (int deg = 2; deg <= 6; ++deg) {
      graph::SamplerConfig sampler;
      sampler.max_in_degree = deg;
      sampler.num_nodes = 25;
      const graph::Dag dag = graph::SampleDag(sampler, graph_rng);
      std::mt19937_64 rng_ref(1000 + deg), rng_new(1000 + deg),
          rng_ws(1000 + deg);
      const auto expected = rl::ReferenceDecodeSampled(agent, dag, rng_ref);
      EXPECT_EQ(agent.DecodeSampled(dag, rng_new), expected) << "deg=" << deg;
      EXPECT_EQ(agent.DecodeSampled(dag, rng_ws, ws), expected)
          << "workspace deg=" << deg;
      // Identical rng consumption: the generators must end in lock-step.
      EXPECT_EQ(rng_ref(), rng_new());
    }
  }
}

TEST(DecodeParityTest, SteadyStateDecodeIsAllocationFree) {
  const rl::PtrNetAgent agent(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(31);
  const graph::Dag dag = graph::SampleTrainingDag(100, rng);

  rl::DecodeWorkspace ws;
  const auto cold = agent.DecodeGreedy(dag, ws);  // warms every buffer
  ASSERT_EQ(cold.size(), 100u);

  const std::uint64_t before = g_alloc_count.load();
  const auto& seq = agent.DecodeGreedy(dag, ws);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state decode allocated " << (after - before) << " times";
  EXPECT_EQ(seq, cold);

  // Still allocation-free for the stochastic decode and after a smaller
  // graph (buffers shrink logically but keep their capacity).
  const graph::Dag small = graph::SampleTrainingDag(40, rng);
  (void)agent.DecodeGreedy(dag, ws);
  const std::uint64_t before2 = g_alloc_count.load();
  std::mt19937_64 sample_rng(7);
  (void)agent.DecodeSampled(small, sample_rng, ws);
  (void)agent.DecodeGreedy(dag, ws);
  const std::uint64_t after2 = g_alloc_count.load();
  EXPECT_EQ(after2 - before2, 0u);
}

TEST(DecodeParityTest, WorkspaceServesDifferentHiddenSizes) {
  // One (thread_local-style) workspace must survive agents of different
  // hidden_dim — the serving path swaps RL snapshots under live traffic.
  rl::PtrNetConfig big = NetConfig(rl::MaskingMode::kReadySet);
  big.hidden_dim = 32;
  rl::PtrNetConfig small = NetConfig(rl::MaskingMode::kReadySet);
  small.hidden_dim = 16;
  const rl::PtrNetAgent agent_big(big);
  const rl::PtrNetAgent agent_small(small);
  std::mt19937_64 rng(41);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);

  rl::DecodeWorkspace ws;
  EXPECT_EQ(agent_big.DecodeGreedy(dag, ws), agent_big.DecodeGreedy(dag));
  EXPECT_EQ(agent_small.DecodeGreedy(dag, ws), agent_small.DecodeGreedy(dag));
  EXPECT_EQ(agent_big.DecodeGreedy(dag, ws), agent_big.DecodeGreedy(dag));
}

TEST(RepairOnceTest, SchedulerAndEnginePathsAgree) {
  // Same configured weights on both paths (deterministic Xavier init).
  CompilerOptions options;
  options.net.hidden_dim = 16;
  const PipelineCompiler compiler(options);
  const rl::RlScheduler scheduler(options.net);

  std::mt19937_64 rng(53);
  for (const int stages : {2, 4}) {
    const graph::Dag dag = graph::SampleTrainingDag(30, rng);
    sched::PipelineConstraints constraints;
    constraints.num_stages = stages;

    // Standalone path: Schedule repairs internally, exactly once.
    const auto standalone = scheduler.Schedule(dag, constraints);
    EXPECT_TRUE(sched::ValidateSchedule(dag, standalone.schedule, constraints).ok);

    // ScheduleRaw + one façade-style repair must reproduce Schedule —
    // i.e. Schedule is ScheduleRaw plus exactly one PostProcess.
    auto raw = scheduler.ScheduleRaw(dag, constraints);
    sched::PostProcess(dag, constraints, raw.schedule);
    EXPECT_EQ(raw.schedule.stage, standalone.schedule.stage);

    // Engine/façade path (repairs once in the façade) agrees with the
    // standalone scheduler path.
    const auto compiled = compiler.Compile(dag, stages, "RESPECT");
    EXPECT_EQ(compiled.schedule.stage, standalone.schedule.stage);
  }
}

TEST(RepairOnceTest, RepairIsIdempotentOnRlSchedules) {
  // Double-repair was the old façade bug: even if it happens, it must not
  // change the schedule — but the structural guarantee above is that it no
  // longer happens at all.
  const rl::RlScheduler scheduler(NetConfig(rl::MaskingMode::kReadySet));
  std::mt19937_64 rng(59);
  const graph::Dag dag = graph::SampleTrainingDag(25, rng);
  sched::PipelineConstraints constraints;
  constraints.num_stages = 4;
  auto result = scheduler.Schedule(dag, constraints);
  auto repaired_again = result.schedule;
  sched::PostProcess(dag, constraints, repaired_again);
  EXPECT_EQ(repaired_again.stage, result.schedule.stage);
}

}  // namespace
}  // namespace respect

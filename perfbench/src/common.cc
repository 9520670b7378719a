#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "graph/sampler.h"
#include "models/zoo.h"
#include "sched/schedule.h"
#include "tpu/sim.h"

namespace perfbench {

using namespace respect;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::Open(const char* name, std::int32_t parent,
                           std::uint64_t request) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::Close(std::int32_t id) { spans_[id].end_ns = NowNs(); }

void SpanLog::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(sorted.size() - 1,
                         static_cast<std::size_t>(q * sorted.size()))];
}

Tail SupportedTail(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return {};
  for (int p = 99; p >= 1; --p) {
    const auto index = static_cast<std::size_t>(p * n / 100);
    if (index + 10 < n) return {sorted[index], p};
  }
  return {sorted.back(), -1};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<std::uint32_t> ZipfRound(std::size_t n, double exponent,
                                     std::size_t count,
                                     std::mt19937_64& rng) {
  // Rank r gets its Zipf share of `count`, rounded by largest remainder.
  std::vector<double> share(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    total += share[r];
  }
  std::vector<std::size_t> copies(n);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t placed = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double exact = share[r] / total * static_cast<double>(count);
    copies[r] = static_cast<std::size_t>(exact);
    placed += copies[r];
    remainder.emplace_back(exact - static_cast<double>(copies[r]), r);
  }
  std::sort(remainder.begin(), remainder.end(), [](auto a, auto b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t k = 0; placed < count; ++k, ++placed) {
    ++copies[remainder[k].second];
  }
  std::vector<std::uint32_t> round;
  for (std::size_t r = 0; r < n; ++r) {
    round.insert(round.end(), copies[r], static_cast<std::uint32_t>(r));
  }
  // Seeded Fisher-Yates: the seed orders the round, never its mix.
  for (std::size_t i = round.size(); i > 1; --i) {
    std::swap(round[i - 1], round[rng() % i]);
  }
  return round;
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CompilerOptions BenchCompilerOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 48;
  options.exact_max_expansions = 20'000;
  options.exact_time_limit_seconds = 0.0;  // expansion cap only: repeatable
  options.compiler.refinement_rounds = 2;
  options.compiler.compile_passes = 1;
  return options;
}

const std::vector<graph::Dag>& TableIGraphs() {
  static const std::vector<graph::Dag> table = [] {
    std::vector<graph::Dag> dags;
    for (const models::ModelName name : models::TableIModels()) {
      dags.push_back(models::BuildModel(name));
    }
    return dags;
  }();
  return table;
}

graph::Dag SampleGraph(int num_nodes, std::mt19937_64& rng,
                       const std::string& name) {
  graph::SamplerConfig config;
  config.num_nodes = num_nodes;
  graph::Dag dag = graph::SampleDag(config, rng);
  dag.SetName(name);
  return dag;
}

References MakeReferences(const PipelineCompiler& compiler) {
  References refs;
  for (const graph::Dag& dag : TableIGraphs()) {
    for (const int stages : kStageCounts) {
      refs.respect.push_back(compiler.Compile(dag, stages, kRespect).schedule);
      const CompileResult base = compiler.Compile(dag, stages, kCompiler);
      refs.compiler.push_back(base.schedule);
      refs.compiler_sim_us.push_back(
          tpu::SimulatePipeline(base.package).per_inference_us);
      refs.exact_peak_bytes.push_back(
          compiler.Compile(dag, stages, "ExactILP").peak_stage_param_bytes);
    }
  }
  return refs;
}

void AnswerBook::Pin(std::size_t slot, const sched::Schedule& schedule) {
  expected_[slot].set = true;
  expected_[slot].schedule = schedule;
}

bool AnswerBook::Check(std::size_t slot, const serve::ResultPtr& result,
                       bool outcome_ok) {
  ++attempted_;
  Slot& expected = expected_[slot];
  bool ok = outcome_ok && result != nullptr;
  if (ok && !expected.set) {
    expected.set = true;
    expected.schedule = result->schedule;
  } else if (ok) {
    ok = result->schedule.num_stages == expected.schedule.num_stages &&
         result->schedule.stage == expected.schedule.stage;
  }
  if (!ok) ++failed_;
  return ok;
}

void AnswerBook::ValidateKept(
    const std::vector<serve::CompileRequest>& requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sched::PipelineConstraints constraints;
    constraints.num_stages = requests[i].num_stages;
    if (!expected_[i].set ||
        !sched::ValidateSchedule(requests[i].dag, expected_[i].schedule,
                                 constraints)
             .ok) {
      ++failed_;
    }
  }
}

void MetricTable::Set(const std::string& name, double value, std::string unit,
                      std::size_t samples, std::string basis,
                      bool table_only) {
  rows_.emplace_back(name, Metric{value, std::move(unit), samples,
                                  std::move(basis), table_only});
}

void MetricTable::Timing(const std::string& name, std::vector<double> samples,
                         const std::string& unit) {
  std::sort(samples.begin(), samples.end());
  const Tail tail = SupportedTail(samples);
  Set(name, PercentileSorted(samples, 0.5), unit, samples.size(), "p50");
  Set(name + ".p99", tail.value, unit, samples.size(),
      samples.empty()       ? "none"
      : tail.percentile < 0 ? "max"
                            : "p" + std::to_string(tail.percentile));
}

void MetricTable::PrintTable() const {
  std::printf("%-34s %16s %-6s %8s  %s\n", "# metric", "value", "unit",
              "samples", "basis");
  for (const auto& [name, m] : rows_) {
    std::printf("# %-32s %16.6g %-6s %8zu  %s%s\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.basis.c_str(),
                m.table_only ? " (table only)" : "");
  }
}

void MetricTable::PrintJson(bool correct, std::uint64_t attempted,
                            std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* separator = "";
  for (const auto& [name, m] : rows_) {
    if (m.table_only) continue;
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                separator, name.c_str(), value, m.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

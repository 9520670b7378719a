// Shared pieces of the serving benchmark: clocks, the benchmark's own span
// log, sample statistics, seeded inputs, the answer book that checks every
// served schedule, and the metric table printed at the end of a run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/respect.h"
#include "graph/dag.h"
#include "serve/request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ── Benchmark spans ─────────────────────────────────────────────────────────

/// The benchmark's own spans around each call into the program: name,
/// start, end, parent span and request id.  Kept in memory and written out
/// when the run ends; every per-layer timing is computed from these.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  [[nodiscard]] std::int32_t Open(const char* name, std::int32_t parent,
                                  std::uint64_t request);
  void Close(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& Spans() const { return spans_; }
  void WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span on a log; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int32_t parent,
        std::uint64_t request)
      : log_(log), id_(log ? log->Open(name, parent, request) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->Close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

[[nodiscard]] std::int64_t NowNs();

// ── Statistics ──────────────────────────────────────────────────────────────

/// Nearest-rank percentile of an ascending sample (q in [0, 1]).
[[nodiscard]] double PercentileSorted(const std::vector<double>& sorted,
                                      double q);

/// The reported tail: the highest whole percentile <= 99 that leaves at
/// least ten samples beyond it.  `percentile` is -1 when the sample is too
/// small for any (the value is then the maximum).
struct Tail {
  double value = 0.0;
  int percentile = -1;
};
[[nodiscard]] Tail SupportedTail(const std::vector<double>& sorted);

[[nodiscard]] double Median(std::vector<double> values);
[[nodiscard]] double GeoMean(const std::vector<double>& values);

/// The Zipf exponent of request popularity.  Breslau et al., "Web Caching
/// and Zipf-like Distributions: Evidence and Implications" (IEEE INFOCOM
/// 1999), fit 0.64-0.83 across six web-proxy request traces; 0.8 sits at
/// the skewed end of that range.  No compile-request trace exists to fit.
inline constexpr double kZipfExponent = 0.8;

/// A round of `count` requests over ranks [0, n) in Zipf proportions:
/// rank r appears in proportion to 1 / (r + 1)^exponent (largest-remainder
/// rounding), so every seed issues the same mix; the seed shuffles the
/// order.
[[nodiscard]] std::vector<std::uint32_t> ZipfRound(std::size_t n,
                                                   double exponent,
                                                   std::size_t count,
                                                   std::mt19937_64& rng);

/// Resets the kernel's resident-set high-water mark (best effort).
void ResetPeakRss();
/// Peak resident set since the last reset, in MiB (VmHWM).
[[nodiscard]] double PeakRssMb();

// ── Inputs ──────────────────────────────────────────────────────────────────

inline constexpr int kStageCounts[] = {4, 5, 6};
inline constexpr const char* kRespect = "RESPECT";
inline constexpr const char* kCompiler = "EdgeTPUCompiler";
inline constexpr const char* kList = "ListScheduling";

/// Compiler options every service and reference in the benchmark shares:
/// the untrained agent at its fixed init seed, an expansion-capped (so
/// repeatable) exact reference, and the quick compiler-substitute budget.
[[nodiscard]] respect::CompilerOptions BenchCompilerOptions();

/// The ten Table I models, in TableIModels() order.
[[nodiscard]] const std::vector<respect::graph::Dag>& TableIGraphs();

/// A sampled DAG with exactly `num_nodes` nodes, named after its stream.
[[nodiscard]] respect::graph::Dag SampleGraph(int num_nodes,
                                              std::mt19937_64& rng,
                                              const std::string& name);

/// Index of the (model, stage count) pair among the 30 Table I pairs.
[[nodiscard]] inline std::size_t PairIndex(std::size_t model, int stages) {
  return model * 3 + static_cast<std::size_t>(stages - 4);
}
inline constexpr std::size_t kNumPairs = 30;

/// Direct PipelineCompiler::Compile answers for the Table I pairs, made
/// before any service exists: the byte-exact expectations for served
/// RESPECT / EdgeTPUCompiler schedules, the compiler's simulated runtime
/// (Fig. 4 base) and the exact reference's peak stage bytes (Fig. 5 base).
struct References {
  std::vector<respect::sched::Schedule> respect;
  std::vector<respect::sched::Schedule> compiler;
  std::vector<double> compiler_sim_us;
  std::vector<std::int64_t> exact_peak_bytes;
};
[[nodiscard]] References MakeReferences(const respect::PipelineCompiler& c);

// ── Answer checks ───────────────────────────────────────────────────────────

/// Expected schedule per request slot.  A slot is either pinned to a
/// reference up front or set by its first answer; every later answer must
/// match byte for byte.  Any miss (and any thrown request) counts in
/// `failed`.
class AnswerBook {
 public:
  explicit AnswerBook(std::size_t slots) : expected_(slots) {}

  void Pin(std::size_t slot, const respect::sched::Schedule& schedule);

  /// Checks one answer and its outcome; counts it as attempted.
  bool Check(std::size_t slot, const respect::serve::ResultPtr& result,
             bool outcome_ok);

  /// Counts a request that threw instead of answering.
  void Fail() {
    ++attempted_;
    ++failed_;
  }

  /// Validates every kept schedule against its own request's DAG
  /// (sched::ValidateSchedule); each invalid or never-answered slot counts
  /// as one failure.
  void ValidateKept(const std::vector<respect::serve::CompileRequest>& reqs);

  [[nodiscard]] std::uint64_t Attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t Failed() const { return failed_; }

 private:
  struct Slot {
    bool set = false;
    respect::sched::Schedule schedule;
  };
  std::vector<Slot> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ── Result line ─────────────────────────────────────────────────────────────

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string basis;  // e.g. "p50", "p99", "median of 3", "count"
  bool table_only = false;  // printed, but not part of the result line
};

/// Ordered metric table: printed as a readable table, then folded into the
/// final JSON line.
class MetricTable {
 public:
  void Set(const std::string& name, double value, std::string unit,
           std::size_t samples, std::string basis, bool table_only = false);

  /// p50 as `name` and the supported tail as `name.p99` of `samples`
  /// (already in `unit`); 0 with 0 samples when empty.
  void Timing(const std::string& name, std::vector<double> samples,
              const std::string& unit);

  void PrintTable() const;
  void PrintJson(bool correct, std::uint64_t attempted,
                 std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, Metric>> rows_;
};

}  // namespace perfbench

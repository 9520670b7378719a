// The three seeded, single-client, closed-loop workloads.  Each owns its
// services and its fixed request list; a round always issues the same
// requests, and Setup() does every construction, population and warm-up so
// that nothing but requests runs inside a timed phase.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/compile_service.h"

namespace perfbench {

/// What a workload sees of the run.
struct Context {
  std::uint64_t seed = 0;
  std::filesystem::path work_dir;  // per-run files, under --work-dir
  respect::CompilerOptions options;
  const References* refs = nullptr;
};

/// Per-round records.  `spans` is non-null only in traced rounds.
struct RoundLog {
  std::vector<double> latencies;    // seconds, one per request
  std::vector<double> queue_waits;  // seconds, async paths only
  std::vector<double> flushes;      // seconds, one per FlushStore
  SpanLog* spans = nullptr;
};

/// Service-side counters the per-layer ratios are computed from.
struct Counters {
  std::uint64_t requests = 0;  // issued by the benchmark's client
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t collapsed = 0;
  std::uint64_t misses = 0;
  std::uint64_t batch_solved = 0;
  std::uint64_t batch_groups = 0;
  std::uint64_t forwarded = 0;
};

/// Times public calls for the per-layer table.  Every call gets a span in
/// the benchmark's log, and the sample is that span's duration.
class LayerRun {
 public:
  LayerRun(SpanLog& log, std::int32_t root) : log_(log), root_(root) {}

  /// Calls f(i) for i = 0, 1, ... over `inputs` inputs, at least one full
  /// pass and then until the sample or time budget runs out; each call is
  /// one span `span`, recorded as a `metric` sample times `scale`.
  template <class F>
  void Time(const char* span, const std::string& metric, double scale,
            std::size_t inputs, F&& f, std::size_t max_samples = 2000,
            double budget_seconds = 0.25) {
    if (inputs == 0) return;
    std::vector<double>& out = samples[metric];
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < max_samples; ++k) {
      if (k >= inputs && SecondsSince(start) > budget_seconds) break;
      const std::int32_t id = log_.Open(span, root_, k % inputs);
      f(k % inputs);
      log_.Close(id);
      const SpanLog::Span& s = log_.Spans()[id];
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9 *
                    scale);
    }
  }

  /// Timing samples by metric base name, already in the metric's unit.
  std::map<std::string, std::vector<double>> samples;
  /// Single-valued layer metrics (sizes, throughputs); 0 with 0 samples
  /// when a workload does not set one.
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
    const char* basis = "none";
  };
  std::map<std::string, Value> values;

 private:
  SpanLog& log_;
  std::int32_t root_;
};

class Workload {
 public:
  explicit Workload(const Context& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;

  /// Builds services, populates stores and warms every cache (one warm-up
  /// round included), replacing any previous instance.
  virtual void Setup() = 0;

  /// One round of the workload's fixed request list; returns the number of
  /// requests completed.
  virtual std::size_t Round(RoundLog& log) = 0;

  /// The RESPECT result this workload serves for Table I pair `pair`.
  [[nodiscard]] virtual respect::serve::ResultPtr ServedRespect(
      std::size_t pair) = 0;

  [[nodiscard]] virtual Counters Snapshot() const = 0;

  /// Times each layer's public calls on this workload's requests/results.
  virtual void MeasureLayers(LayerRun& run) = 0;

  /// Name of the benchmark span around each request-carrying call.
  [[nodiscard]] virtual const char* RequestSpan() const = 0;

  [[nodiscard]] AnswerBook& Book() { return *book_; }
  [[nodiscard]] const std::vector<respect::serve::CompileRequest>& Requests()
      const {
    return requests_;
  }
  /// Digests of the slots a round draws, in order, and of every slot's
  /// graph and stage count: equal seeds give equal streams and inputs.
  [[nodiscard]] std::uint64_t StreamDigest() const;
  [[nodiscard]] std::uint64_t DagsDigest() const;

 protected:
  /// Slots pinned to a direct-compile reference.
  void PinReferences(const std::vector<std::size_t>& pair_of_slot,
                     const std::vector<const char*>& engine_of_slot);
  [[nodiscard]] std::uint64_t NextRequestId() { return next_request_id_++; }

  /// Key derivation, graph hashing and wire-size layers common to every
  /// workload, over its own requests.
  void MeasureKeyLayers(LayerRun& run,
                        const respect::serve::CompileService& service);

  const Context& ctx_;
  std::vector<respect::serve::CompileRequest> requests_;
  std::vector<std::uint32_t> round_;  // slot per request of a round
  std::unique_ptr<AnswerBook> book_;

 private:
  std::uint64_t next_request_id_ = 1;
};

/// zipf_hits, cold_refill or fleet_forward; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                                     const Context& ctx);

}  // namespace perfbench

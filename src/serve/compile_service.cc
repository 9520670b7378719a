#include "serve/compile_service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/cancel.h"
#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "engines/registry.h"
#include "obs/trace.h"
#include "serve/request_queue.h"
#include "serve/store/disk_store.h"
#include "serve/store/spill_codec.h"
#include "serve/store/tinylfu.h"

namespace respect::serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Stable fingerprint of everything in CompilerOptions that can change a
/// CompileResult.  weights_path contributes as a path string: the key covers
/// the compiler's configuration, not the bytes of the file — swap weights
/// under traffic through ReplaceRl, which versions the snapshot.
graph::CanonicalHash FingerprintOptions(const CompilerOptions& options) {
  graph::CanonicalHasher h;
  h.Update("respect-compiler-options-v1");
  h.Update(options.net.hidden_dim);
  h.Update(static_cast<int>(options.net.masking));
  h.Update(options.net.init_seed);
  h.Update(options.net.embedding.include_topology);
  h.Update(options.net.embedding.include_ids);
  h.Update(options.net.embedding.include_memory);
  h.Update(options.weights_path);
  h.Update(options.exact_max_expansions);
  h.Update(std::bit_cast<std::uint64_t>(options.exact_time_limit_seconds));
  h.Update(options.compiler.num_stages);
  h.Update(options.compiler.refinement_rounds);
  h.Update(options.compiler.compile_passes);
  h.Update(options.quantize);
  return h.Finish();
}

std::unique_ptr<core::ThreadPool> MakeServicePool(
    const ServiceOptions& options) {
  const int num_threads = options.num_threads < 1
                              ? core::ThreadPool::DefaultThreadCount()
                              : options.num_threads;
  if (options.fifo_queue) {
    return std::make_unique<core::ThreadPool>(num_threads);
  }
  RequestQueue::Options queue_options;
  queue_options.aging_seconds = options.queue_aging_seconds;
  queue_options.max_batch_inflight = options.max_batch_inflight;
  queue_options.max_lane_depth = options.max_lane_depth;
  queue_options.default_tenant_weight = options.default_tenant_weight;
  queue_options.tenant_weights = options.tenant_weights;
  queue_options.default_tenant_quota = options.default_tenant_quota;
  queue_options.tenant_quotas = options.tenant_quotas;
  return std::make_unique<core::ThreadPool>(
      num_threads, std::make_unique<RequestQueue>(queue_options));
}

}  // namespace

void CompileService::LatencyWindow::Configure(std::size_t capacity,
                                              obs::Histogram* histogram) {
  values_.reserve(std::max<std::size_t>(1, capacity));
  capacity_limit_ = std::max<std::size_t>(1, capacity);
  histogram_ = histogram;
}

void CompileService::LatencyWindow::Record(double seconds) {
  if (histogram_ != nullptr) histogram_->Observe(seconds);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (values_.size() < capacity_limit_) {
    values_.push_back(seconds);
    next_ = values_.size() % capacity_limit_;
    return;
  }
  values_[next_] = seconds;
  next_ = (next_ + 1) % capacity_limit_;
}

void CompileService::LatencyWindow::Percentiles(double& p50,
                                                double& p99) const {
  std::vector<double> window;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    window = values_;
  }
  std::sort(window.begin(), window.end());
  p50 = PercentileSorted(window, 0.50);
  p99 = PercentileSorted(window, 0.99);
}

CompileService::CompileService(const CompilerOptions& compiler_options,
                               const ServiceOptions& options)
    : compiler_(compiler_options),
      options_fingerprint_(FingerprintOptions(compiler_options)) {
  const int num_shards = std::max(1, options.cache_shards);
  per_shard_capacity_ =
      (options.cache_capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options.cache_ttl_seconds > 0.0) {
    has_ttl_ = true;
    memory_ttl_ = std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(options.cache_ttl_seconds));
  }
  if (options.lfu_admission && options.cache_capacity > 0) {
    admission_ =
        std::make_unique<store::TinyLfuAdmission>(options.cache_capacity);
  }
  batch_decode_ = options.batch_decode;
  default_solve_budget_seconds_ = options.default_solve_budget_seconds;
  deadline_admission_ = options.deadline_admission;
  breaker_options_.failure_threshold = options.breaker_failure_threshold;
  breaker_options_.open_seconds = options.breaker_open_seconds;
  breaker_options_.clock = options.breaker_clock;
  // Resolve the fallback chain now so a typo fails the constructor, not a
  // degraded request under traffic.  Duplicates collapse (an alias and its
  // canonical name are one candidate).
  fallback_chain_.reserve(options.fallback_chain.size());
  for (const std::string& name : options.fallback_chain) {
    const engines::EngineRegistration* engine =
        &engines::EngineRegistry::Global().Resolve(name);
    if (std::find(fallback_chain_.begin(), fallback_chain_.end(), engine) ==
        fallback_chain_.end()) {
      fallback_chain_.push_back(engine);
    }
  }
  if (!options.cache_dir.empty()) {
    store::DiskStoreOptions store_options;
    store_options.directory = options.cache_dir;
    store_options.ttl_seconds = options.cache_ttl_seconds;
    store_options.registry = &registry_;  // one exposition page per shard
    store_ = std::make_unique<store::DiskStore>(store_options);
  }
  pool_ = MakeServicePool(options);
  solve_latency_.Configure(options.latency_window, &solve_hist_);
  for (std::size_t lane = 0; lane < kNumPriorityLanes; ++lane) {
    lane_wait_[lane].Configure(
        options.latency_window,
        &registry_.GetHistogram(
            "respect_serve_lane_" +
                std::string(PriorityName(static_cast<Priority>(lane))) +
                "_wait_seconds",
            "Queue wait of started requests (seconds)"));
  }
}

CompileService::LaneCounters CompileService::MakeLaneCounters(
    std::size_t lane) {
  const std::string stem =
      "respect_serve_lane_" +
      std::string(PriorityName(static_cast<Priority>(lane))) + "_";
  return LaneCounters{
      registry_.GetCounter(stem + "enqueued_total",
                           "Submits routed to this lane"),
      registry_.GetCounter(stem + "started_total",
                           "Requests that began their compile on a worker"),
      registry_.GetCounter(stem + "expired_total",
                           "Requests failed fast with DeadlineExceeded"),
      registry_.GetCounter(stem + "shed_total",
                           "Requests refused at admission with Overloaded")};
}

// The pool joins before the members the queued tasks reference are torn
// down; every outstanding Ticket is resolved by then (queued entries run or
// expire, never vanish).
CompileService::~CompileService() { pool_.reset(); }

std::size_t CompileService::LaneIndex(Priority priority) {
  const auto index = static_cast<std::size_t>(static_cast<int>(priority));
  return index < kNumPriorityLanes ? index : kNumPriorityLanes - 1;
}

CompileService::RequestKey CompileService::MakeKey(
    const CompileRequest& request) const {
  const engines::EngineRegistration& engine =
      engines::EngineRegistry::Global().Resolve(request.engine);
  std::optional<tpu::DeviceProfile> profile = tpu::FindProfile(request.profile);
  if (!profile) {
    throw std::invalid_argument("unknown device profile: \"" +
                                request.profile + "\"");
  }
  RequestKey key;
  key.dag_hash = graph::HashDag(request.dag);
  key.profile_fingerprint = profile->Fingerprint();
  key.profile = *std::move(profile);
  return KeyWithEngine(std::move(key), engine, request.num_stages);
}

CompileService::RequestKey CompileService::KeyWithEngine(
    RequestKey key, const engines::EngineRegistration& engine,
    int num_stages) const {
  graph::CanonicalHasher h;
  h.Update("respect-serve-key-v1");
  h.Update(engine.name);  // canonical, so alias and name share a key
  h.Update(num_stages);
  h.Update(options_fingerprint_.hi);
  h.Update(options_fingerprint_.lo);
  key.engine = &engine;
  key.rl_version = 0;
  if (engine.uses_rl) {
    key.rl_version = compiler_.RlVersion();
    h.Update(key.rl_version);
  }
  // The default profile folds NOTHING in — keys (and thus spill files)
  // from before profiles existed stay reachable.  Any other profile's
  // fingerprint splits the key space: the same DAG compiled for two fleets
  // is two cache entries.
  if (!key.profile.IsDefault()) {
    h.Update("profile");
    h.Update(key.profile_fingerprint.hi);
    h.Update(key.profile_fingerprint.lo);
  }
  h.Update(key.dag_hash.hi);
  h.Update(key.dag_hash.lo);
  key.hash = h.Finish();
  return key;
}

CompileService::Shard& CompileService::ShardFor(
    const graph::CanonicalHash& hash) {
  // Shard on hi: the per-shard maps hash on lo (CanonicalHash::Hasher), so
  // sharding on lo too would leave every map with only 1/num_shards of its
  // buckets reachable.
  return *shards_[hash.hi % shards_.size()];
}

void CompileService::InsertLocked(
    Shard& shard, const RequestKey& key, ResultPtr result,
    std::optional<std::chrono::steady_clock::time_point> expires_at) {
  if (per_shard_capacity_ == 0) return;
  CacheEntry entry{key.hash, std::move(result), key.engine->uses_rl};
  if (has_ttl_) {
    entry.has_ttl = true;
    entry.expires_at = SteadyClock::now() + memory_ttl_;
    if (expires_at && *expires_at < entry.expires_at) {
      entry.expires_at = *expires_at;
    }
  } else if (expires_at) {
    // No service-wide TTL, but the entry itself carries one (a spill from
    // a TTL-configured producer sharing the cache dir): honor it.
    entry.has_ttl = true;
    entry.expires_at = *expires_at;
  }
  if (const auto it = shard.entries.find(key.hash);
      it != shard.entries.end()) {
    // Reached by CachePolicy::kRefresh overwriting a resident entry, and
    // defensively if a flight owner ever races an insert.  The TTL clock
    // restarts: a refresh is a brand-new result.
    *it->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (admission_ != nullptr && shard.entries.size() >= per_shard_capacity_) {
    // TinyLFU admission: the cold key only displaces the LRU victim when
    // it is at least as frequent — a one-hit-wonder scan bounces off a hot
    // entry instead of flushing it.  (Ties admit, so an all-cold cache
    // still behaves like plain LRU.)
    if (!admission_->Admit(key.hash, shard.lru.back().key)) {
      admission_rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  shard.lru.push_front(std::move(entry));
  shard.entries.emplace(key.hash, shard.lru.begin());
  while (shard.entries.size() > per_shard_capacity_) {
    shard.entries.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool CompileService::DropIfExpiredLocked(Shard& shard,
                                         std::list<CacheEntry>::iterator it) {
  if (!it->has_ttl || SteadyClock::now() <= it->expires_at) return false;
  shard.entries.erase(it->key);
  shard.lru.erase(it);
  ttl_expired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CompileService::Job CompileService::MakeJob(
    const CompileRequest& request, std::optional<RequestKey> key) const {
  Job job;
  job.request = &request;
  job.record_access = !key.has_value();
  job.key = key ? *std::move(key) : MakeKey(request);
  job.response.engine_name = job.key.engine->name;
  job.response.requested_engine = job.key.engine->name;
  job.response.key_hex = job.key.hash.ToHex();
  return job;
}

double CompileService::BudgetFor(const CompileRequest& request) const {
  return request.solve_budget_seconds > 0.0 ? request.solve_budget_seconds
                                            : default_solve_budget_seconds_;
}

CompileService::Probe CompileService::ProbeMemory(Job& job, bool join) {
  OBS_SPAN("serve.cache_probe");
  if (job.record_access && admission_ != nullptr) {
    admission_->RecordAccess(job.key.hash);
  }
  job.record_access = false;
  Shard& shard = ShardFor(job.key.hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  // An expired entry falls through as a miss (the disk copy, if any,
  // carries the same TTL and the store's own check drops it).
  if (const auto it = shard.entries.find(job.key.hash);
      it != shard.entries.end() && !DropIfExpiredLocked(shard, it->second)) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    job.response.result = it->second->result;
    job.response.outcome = CacheOutcome::kHit;
    return Probe::kHit;
  }
  if (!join) return Probe::kMiss;
  if (const auto it = shard.flights.find(job.key.hash);
      it != shard.flights.end()) {
    job.flight = it->second;
    single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
    return Probe::kJoined;
  }
  job.flight = std::make_shared<Flight>();
  job.flight->future = job.flight->promise.get_future().share();
  shard.flights.emplace(job.key.hash, job.flight);
  return Probe::kOwner;
}

bool CompileService::ProbeDisk(Job& job) {
  if (store_ == nullptr) return false;
  OBS_SPAN("serve.disk_probe");
  std::int64_t expiry_ms = 0;
  ResultPtr from_disk = store_->Probe(job.key.hash, &expiry_ms);
  if (from_disk == nullptr) return false;
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  job.response.result = std::move(from_disk);
  job.response.outcome = CacheOutcome::kDiskHit;
  Publish(job, /*spill=*/false, PromoteExpiry(expiry_ms));
  return true;
}

void CompileService::RunStages(std::span<Job* const> jobs) {
  std::vector<Job*> owners;  // jobs that reach the solve stage
  std::vector<Job*> joined;  // jobs waiting on another caller's flight
  for (Job* job : jobs) {
    switch (job->request->cache_policy) {
      case CachePolicy::kBypass:
        // Forced fresh solve, cache untouched; not counted as a miss
        // (misses are cache-lookup outcomes, and this never looked).
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        job->response.outcome = CacheOutcome::kBypass;
        owners.push_back(job);
        continue;
      case CachePolicy::kRefresh:
        refreshes_.fetch_add(1, std::memory_order_relaxed);
        job->response.outcome = CacheOutcome::kRefresh;
        owners.push_back(job);
        continue;
      case CachePolicy::kUse:
        break;
    }
    const Probe probe = ProbeMemory(*job, /*join=*/true);
    if (probe == Probe::kJoined) joined.push_back(job);
    // The flight owner tries the persistent tier, then (fleet mode) its
    // peers, before paying a solve; collapsed waiters share either answer
    // exactly as they would a solve.
    if (probe != Probe::kOwner || ProbeDisk(*job) || TryPeerWarm(*job)) {
      continue;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    job->response.outcome = CacheOutcome::kMiss;
    owners.push_back(job);
  }
  if (!owners.empty()) SolveCold(owners);
  for (Job* job : owners) {
    // A refresh renews both tiers; a bypass never touches the cache.
    if (job->request->cache_policy != CachePolicy::kBypass) {
      Publish(*job, /*spill=*/true);
    }
  }
  // Waiters last: a duplicate inside this call waits on a flight resolved
  // just above, and a flight owned elsewhere belongs to running code —
  // never to a queued task — so the get() cannot deadlock the pool.
  for (Job* job : joined) {
    try {
      job->response.result = job->flight->future.get();
      job->response.outcome = CacheOutcome::kCollapsed;
      // served_by was written before set_value; get() ordered it.
      job->response.engine_name = job->flight->served_by;
      job->response.degraded = job->flight->served_by != job->key.engine->name;
    } catch (...) {
      job->failure = std::current_exception();  // the owner's failure
    }
  }
}

CompileResponse CompileService::Execute(const CompileRequest& request,
                                        std::optional<RequestKey> key) {
  Job job = MakeJob(request, std::move(key));
  Job* const jobs[] = {&job};
  RunStages(jobs);
  if (job.failure != nullptr) std::rethrow_exception(job.failure);
  return std::move(job.response);
}

CircuitBreaker& CompileService::BreakerFor(std::string_view engine) {
  const std::lock_guard<std::mutex> lock(breaker_mutex_);
  auto it = breakers_.find(engine);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(engine, std::make_unique<CircuitBreaker>(breaker_options_))
             .first;
  }
  return *it->second;
}

void CompileService::SolveCold(std::span<Job* const> owners) {
  // Candidate chain: the preferred engine, then each configured fallback
  // (minus the preferred engine itself — already first).
  const engines::EngineRegistration* preferred = owners.front()->key.engine;
  std::vector<const engines::EngineRegistration*> candidates;
  candidates.reserve(1 + fallback_chain_.size());
  candidates.push_back(preferred);
  for (const engines::EngineRegistration* engine : fallback_chain_) {
    if (engine != preferred) candidates.push_back(engine);
  }
  const double budget = BudgetFor(*owners.front()->request);

  OBS_SPAN("serve.solve");
  // Grouped phase: while >= 2 owners are unanswered and the candidate can
  // lock-step them, they share ONE attempt.  A breaker skip moves the whole
  // group on; a failed group attempt splits it.
  std::size_t next = 0;
  AttemptOutcome group_failure;
  std::vector<Job*> group;
  for (; owners.size() >= 2 && next < candidates.size(); ++next) {
    group.clear();
    for (Job* job : owners) {
      if (job->failure == nullptr && !FailIfLapsed(*job)) group.push_back(job);
    }
    if (group.size() < 2 || !candidates[next]->supports_batch) break;
    group_failure = Attempt(group, *candidates[next],
                            next + 1 == candidates.size(), budget);
    if (!group_failure.skipped) {
      ++next;
      break;
    }
  }
  // Per-owner phase: every owner still unanswered walks the rest of its
  // own chain, each attempt under a fresh budget.
  for (Job* job : owners) {
    if (job->response.result == nullptr && job->failure == nullptr) {
      WalkChain(*job, candidates, next, budget, group_failure);
    }
  }
}

void CompileService::WalkChain(
    Job& job, std::span<const engines::EngineRegistration* const> candidates,
    std::size_t from, double budget, AttemptOutcome first) {
  Job* const jobs[] = {&job};
  for (std::size_t i = from; i < candidates.size(); ++i) {
    if (FailIfLapsed(job)) return;
    AttemptOutcome outcome =
        Attempt(jobs, *candidates[i], i + 1 == candidates.size(), budget);
    if (outcome.skipped) continue;
    if (outcome.error == nullptr) return;
    if (first.error == nullptr) first = std::move(outcome);
  }
  fallback_exhausted_.fetch_add(1, std::memory_order_relaxed);
  failures_.fetch_add(1, std::memory_order_relaxed);
  job.failure = first.error;
  if (first.budget) {
    // The chain died on budgets: surface the typed error the serving
    // contract promises, not the internal cancellation type.
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    job.failure = std::make_exception_ptr(DeadlineExceeded(
        "solve budget exhausted across the engine chain (preferred \"" +
        job.key.engine->name + "\" plus " +
        std::to_string(candidates.size() - 1) + " fallback(s))"));
  }
}

bool CompileService::FailIfLapsed(Job& job) {
  const auto& deadline = job.request->deadline;
  if (!deadline || SteadyClock::now() <= *deadline) return false;
  // The request's own deadline passed between attempts: stop walking, the
  // caller's waiter is already (or about to be) past caring.
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  failures_.fetch_add(1, std::memory_order_relaxed);
  job.failure = std::make_exception_ptr(DeadlineExceeded(
      "compile request deadline expired while walking the fallback chain"));
  return true;
}

CompileService::AttemptOutcome CompileService::Attempt(
    std::span<Job* const> jobs, const engines::EngineRegistration& engine,
    bool last, double budget) {
  AttemptOutcome outcome;
  CircuitBreaker* breaker = breaker_options_.failure_threshold > 0
                                ? &BreakerFor(engine.name)
                                : nullptr;
  if (breaker != nullptr && !breaker->Allow() && !last) {
    // Open breaker: skip the sick engine straight to its fallback.  The
    // last candidate is always attempted — short-circuiting it would turn
    // "sick engine" into "no answer at all".
    obs::RecordInstant("serve.breaker_short_circuit", engine.name.data(),
                       static_cast<std::uint32_t>(engine.name.size()));
    outcome.skipped = true;
    return outcome;
  }
  // Engine names borrow from the registry (process lifetime), so the
  // span's detail pointer stays valid for any later drain.
  OBS_SPAN_DETAIL("serve.attempt", engine.name.data(), engine.name.size());
  const Job& lead = *jobs.front();
  try {
    const core::CancelToken cancel = budget > 0.0
                                         ? core::CancelToken::WithBudget(budget)
                                         : core::CancelToken();
    const auto start = SteadyClock::now();
    std::vector<CompileResult> results;
    if (jobs.size() == 1) {
      results.push_back(compiler_.Compile(lead.request->dag,
                                          lead.request->num_stages,
                                          engine.name, lead.key.profile,
                                          cancel));
    } else {
      std::vector<const graph::Dag*> dags;
      dags.reserve(jobs.size());
      for (const Job* job : jobs) dags.push_back(&job->request->dag);
      engines::SolveStats stats;
      results = compiler_.CompileGroup(dags, lead.request->num_stages,
                                       engine.name, lead.key.profile, cancel,
                                       &stats);
      batch_solved_.fetch_add(stats.batch_solved, std::memory_order_relaxed);
      batch_single_.fetch_add(stats.single_solved, std::memory_order_relaxed);
      batch_groups_.fetch_add(stats.batch_groups, std::memory_order_relaxed);
    }
    // A group shares its solve: total / B is what each request paid.
    const double seconds =
        std::chrono::duration<double>(SteadyClock::now() - start).count() /
        static_cast<double>(jobs.size());
    if (breaker != nullptr) breaker->RecordSuccess();
    // Load-compute-store EWMA: a lost race skews the admission estimate by
    // one sample, which it tolerates by construction.
    const double prev = ewma_solve_seconds_.load(std::memory_order_relaxed);
    ewma_solve_seconds_.store(
        prev == 0.0 ? seconds : 0.8 * prev + 0.2 * seconds,
        std::memory_order_relaxed);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      CompileResponse& response = jobs[k]->response;
      solve_latency_.Record(seconds);
      response.result =
          std::make_shared<const CompileResult>(std::move(results[k]));
      response.solve_seconds = seconds;
      if (&engine != jobs[k]->key.engine) {
        response.degraded = true;
        response.engine_name = engine.name;
        degraded_served_.fetch_add(1, std::memory_order_relaxed);
      } else if (jobs.size() == 1 && lead.grouped) {
        // A group member its group could not lock-step: a straggler.
        batch_single_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return outcome;
  } catch (const core::CancelledError&) {
    budget_blown_.fetch_add(1, std::memory_order_relaxed);
    outcome.error = std::current_exception();
    outcome.budget = true;
  } catch (...) {
    outcome.error = std::current_exception();
  }
  if (breaker != nullptr) breaker->RecordFailure();
  return outcome;
}

void CompileService::Publish(
    Job& job, bool spill,
    std::optional<std::chrono::steady_clock::time_point> expires_at) {
  Shard& shard = ShardFor(job.key.hash);
  if (job.failure != nullptr) {  // failures are never cached
    if (job.flight != nullptr) {
      {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        shard.flights.erase(job.key.hash);
      }
      job.flight->promise.set_exception(job.failure);
    }
    return;
  }
  const ResultPtr& result = job.response.result;
  // A fallback's answer is cached (and spilled) under the fallback engine's
  // OWN key — the preferred engine's key must never serve a degraded result
  // once the engine recovers.  The flight under the preferred key still
  // resolves, so collapsed waiters share the answer, tagged degraded.
  std::optional<RequestKey> fallback_key;
  if (job.response.degraded) {
    fallback_key = KeyWithEngine(
        job.key,
        engines::EngineRegistry::Global().Resolve(job.response.engine_name),
        job.request->num_stages);
    Shard& used = ShardFor(fallback_key->hash);
    const std::lock_guard<std::mutex> lock(used.mutex);
    InsertLocked(used, *fallback_key, result, expires_at);
  }
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (!fallback_key) InsertLocked(shard, job.key, result, expires_at);
    if (job.flight != nullptr) shard.flights.erase(job.key.hash);
  }
  if (job.flight != nullptr) {
    job.flight->served_by = job.response.engine_name;
    job.flight->promise.set_value(result);
  }
  if (spill) EnqueueWriteback(fallback_key ? *fallback_key : job.key, result);
}

void CompileService::EnqueueWriteback(const RequestKey& key,
                                      ResultPtr result) {
  if (store_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(writeback_mutex_);
    ++pending_writebacks_;
  }
  store::SpillMeta meta;
  meta.key = key.hash;
  meta.rl_dependent = key.engine->uses_rl;
  meta.rl_version = key.rl_version;
  meta.engine_name = key.engine->name;
  meta.profile_name = key.profile.name;
  meta.profile_fingerprint = key.profile_fingerprint;
  // Normal lane: writeback must not wait out a capped batch flood, and
  // must not delay interactive solves either.  Put reports I/O failures
  // through the store's own counters; anything that still throws (an
  // injected fault, an unexpected error) is counted service-side — the
  // spill is lost but never silently, and the decrement always runs so
  // FlushStore cannot hang on a failed write.
  const std::uint64_t trace_id = obs::CurrentTraceId();  // the request's flow
  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(LaneIndex(Priority::kNormal));
  attrs.trace_id = trace_id;
  pool_->Submit(
      [this, meta = std::move(meta), result = std::move(result), trace_id] {
        const obs::ScopedTraceId trace_scope(trace_id);
        OBS_SPAN("serve.writeback");
        try {
          RESPECT_FAILPOINT("serve.writeback");
          store_->Put(meta, result);
        } catch (...) {
          writeback_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        {
          const std::lock_guard<std::mutex> lock(writeback_mutex_);
          --pending_writebacks_;
        }
        writeback_cv_.notify_all();
      },
      std::move(attrs));
}

void CompileService::FlushStore() {
  std::unique_lock<std::mutex> lock(writeback_mutex_);
  writeback_cv_.wait(lock, [this] { return pending_writebacks_ == 0; });
}

std::size_t CompileService::CompactStore() {
  return store_ != nullptr ? store_->Compact(compiler_.RlVersion()) : 0;
}

std::optional<std::chrono::steady_clock::time_point>
CompileService::PromoteExpiry(std::int64_t expires_at_unix_ms) {
  if (expires_at_unix_ms == 0) return std::nullopt;
  const auto remaining = std::chrono::system_clock::time_point(
                             std::chrono::milliseconds(expires_at_unix_ms)) -
                         std::chrono::system_clock::now();
  return SteadyClock::now() +
         std::chrono::duration_cast<SteadyClock::duration>(remaining);
}

std::shared_ptr<const CompileService::PeerFetchFn>
CompileService::PeerFetchSnapshot() const {
  const std::lock_guard<std::mutex> lock(peer_fetch_mutex_);
  return peer_fetch_;
}

void CompileService::SetPeerFetch(PeerFetchFn fetch) {
  std::shared_ptr<const PeerFetchFn> installed;
  if (fetch) {
    installed = std::make_shared<const PeerFetchFn>(std::move(fetch));
  }
  const std::lock_guard<std::mutex> lock(peer_fetch_mutex_);
  peer_fetch_ = std::move(installed);
}

std::optional<std::string> CompileService::ExportSpill(
    const graph::CanonicalHash& key) {
  return store_ != nullptr ? store_->ExportRaw(key) : std::nullopt;
}

bool CompileService::ImportSpill(const graph::CanonicalHash& key,
                                 std::string_view bytes) {
  return store_ != nullptr && store_->ImportRaw(key, bytes);
}

bool CompileService::TryPeerWarm(Job& job) {
  const std::shared_ptr<const PeerFetchFn> fetch = PeerFetchSnapshot();
  if (fetch == nullptr) return false;
  OBS_SPAN("serve.peer_fetch");
  peer_fetches_.fetch_add(1, std::memory_order_relaxed);
  std::string bytes;
  try {
    bytes = (*fetch)(job.key.hash);
  } catch (...) {
    // A dead or slow peer degrades to a local solve — never a request
    // failure.
    peer_fetch_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (bytes.empty()) return false;  // clean peer miss
  const std::optional<store::SpillEnvelope> envelope =
      store::TryDecodeSpillEnvelope(bytes);
  const bool usable =
      envelope && envelope->meta.key == job.key.hash &&
      (envelope->expires_at_unix_ms == 0 ||
       std::chrono::system_clock::now() <
           std::chrono::system_clock::time_point(
               std::chrono::milliseconds(envelope->expires_at_unix_ms)));
  if (!usable) {
    // Corrupt, mismatched, or expired peer bytes: counted, discarded, and
    // the request pays its own solve — a lying peer cannot poison a cache.
    peer_fetch_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (store_ != nullptr) {
    store_->ImportRaw(job.key.hash, bytes);  // durable warmth; refusal is fine
  }
  peer_hits_.fetch_add(1, std::memory_order_relaxed);
  job.response.result = envelope->result;
  job.response.outcome = CacheOutcome::kPeerHit;
  Publish(job, /*spill=*/false, PromoteExpiry(envelope->expires_at_unix_ms));
  return true;
}

graph::CanonicalHash CompileService::KeyFor(
    const CompileRequest& request) const {
  return MakeKey(request).hash;
}

std::optional<CompileResponse> CompileService::TryServeLocal(
    const CompileRequest& request) {
  if (request.cache_policy != CachePolicy::kUse) return std::nullopt;
  // Note: a miss here followed by a full Compile records the admission
  // access twice — a one-sample skew the frequency sketch tolerates.
  Job job = MakeJob(request, std::nullopt);
  if (ProbeMemory(job, /*join=*/false) == Probe::kHit || ProbeDisk(job)) {
    return std::move(job.response);
  }
  return std::nullopt;
}

CompileResponse CompileService::Compile(const CompileRequest& request) {
  // Admission is where a request's trace id is minted (when tracing is
  // armed and the caller didn't bring one, e.g. from a fleet forward).
  std::uint64_t trace_id = request.trace_id;
  if (trace_id == 0 && obs::Armed()) {
    trace_id = obs::Tracer::Global().MintTraceId();
  }
  const obs::ScopedTraceId trace_scope(trace_id);
  OBS_SPAN("serve.compile");
  if (request.deadline && SteadyClock::now() > *request.deadline) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExceeded(
        "compile request deadline expired before the solve started");
  }
  return Execute(request, std::nullopt);
}

CompileService::Ticket CompileService::Submit(CompileRequest request) {
  return SubmitInternal(std::move(request), std::nullopt);
}

CompileService::Ticket CompileService::SubmitInternal(
    CompileRequest request, std::optional<RequestKey> key) {
  // Everything a queued request needs, shared between the run task and the
  // expiry callback — whichever the queue hands to a worker resolves the
  // promise exactly once (an entry is popped exactly once).
  struct Pending {
    std::promise<CompileResponse> promise;
    CompileRequest request;
    std::optional<RequestKey> key;
    SteadyClock::time_point enqueue_time;
  };
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->key = std::move(key);
  pending->enqueue_time = SteadyClock::now();
  if (pending->request.trace_id == 0 && obs::Armed()) {
    pending->request.trace_id = obs::Tracer::Global().MintTraceId();
  }

  const std::size_t lane = LaneIndex(pending->request.priority);
  lane_counters_[lane].enqueued.fetch_add(1, std::memory_order_relaxed);
  BumpTenant(pending->request.tenant, &TenantMetrics::enqueued);

  Ticket ticket(pending->promise.get_future().share());

  // Deadline-aware admission (opt-in): when the lane's backlog times the
  // recent average solve cost already exceeds the request's deadline, the
  // queue wait alone would expire it — shed now (Overloaded) instead of
  // letting a doomed entry deepen the backlog for everyone behind it.
  if (deadline_admission_ && pending->request.deadline) {
    const double ewma = ewma_solve_seconds_.load(std::memory_order_relaxed);
    const LaneCounters& counters = lane_counters_[lane];
    const std::uint64_t enqueued =
        counters.enqueued.load(std::memory_order_relaxed);
    const std::uint64_t settled =
        counters.started.load(std::memory_order_relaxed) +
        counters.expired.load(std::memory_order_relaxed) +
        counters.shed.load(std::memory_order_relaxed);
    const double backlog =
        enqueued > settled ? static_cast<double>(enqueued - settled) : 0.0;
    const double est_wait =
        backlog * ewma / std::max(1, pool_->NumThreads());
    if (ewma > 0.0 &&
        pending->enqueue_time +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(est_wait)) >
            *pending->request.deadline) {
      lane_counters_[lane].shed.fetch_add(1, std::memory_order_relaxed);
      pending->promise.set_exception(std::make_exception_ptr(Overloaded(
          "deadline-aware admission: estimated queue wait " +
          std::to_string(est_wait) + "s on lane " +
          std::string(PriorityName(pending->request.priority)) +
          " exceeds the request deadline")));
      return ticket;
    }
  }

  core::ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(lane);
  attrs.flow = pending->request.tenant;  // weighted-fair queueing + quotas
  attrs.sheddable = true;  // a full lane refuses us with Overloaded
  attrs.trace_id = pending->request.trace_id;
  if (pending->request.deadline) {
    attrs.has_deadline = true;
    attrs.deadline = *pending->request.deadline;
  }
  attrs.on_expired = [this, pending, lane] {
    lane_counters_[lane].expired.fetch_add(1, std::memory_order_relaxed);
    BumpTenant(pending->request.tenant, &TenantMetrics::expired);
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    pending->promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "compile request deadline expired while queued (lane " +
        std::string(PriorityName(pending->request.priority)) + ")")));
  };

  try {
    pool_->Submit(
        [this, pending] {
          const obs::ScopedTraceId trace_scope(pending->request.trace_id);
          OBS_SPAN("serve.request");
          // Belt and braces: the lane queue fails expired entries at pop
          // time, but the FIFO baseline doesn't, and a deadline can pass
          // between the pop decision and this first instruction.
          double wait = 0.0;
          if (std::exception_ptr expired = StartQueued(
                  pending->request, pending->enqueue_time, wait)) {
            pending->promise.set_exception(expired);
            return;
          }
          try {
            CompileResponse response =
                Execute(pending->request, std::move(pending->key));
            response.queue_wait_seconds = wait;
            pending->promise.set_value(std::move(response));
          } catch (...) {
            pending->promise.set_exception(std::current_exception());
          }
        },
        std::move(attrs));
  } catch (const Overloaded&) {
    // The lane refused the entry at its depth bound (nothing enqueued).
    // The typed rejection reaches the caller through the ticket, same as
    // every other async failure.
    lane_counters_[lane].shed.fetch_add(1, std::memory_order_relaxed);
    pending->promise.set_exception(std::current_exception());
  }
  return ticket;
}

std::exception_ptr CompileService::StartQueued(
    const CompileRequest& request, SteadyClock::time_point enqueue_time,
    double& wait) {
  const std::size_t lane = LaneIndex(request.priority);
  wait = std::chrono::duration<double>(SteadyClock::now() - enqueue_time)
             .count();
  if (request.deadline && SteadyClock::now() > *request.deadline) {
    lane_counters_[lane].expired.fetch_add(1, std::memory_order_relaxed);
    BumpTenant(request.tenant, &TenantMetrics::expired);
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    return std::make_exception_ptr(
        DeadlineExceeded("compile request deadline expired after " +
                         std::to_string(wait) + "s in queue"));
  }
  lane_counters_[lane].started.fetch_add(1, std::memory_order_relaxed);
  BumpTenant(request.tenant, &TenantMetrics::started);
  lane_wait_[lane].Record(wait);
  return nullptr;
}

std::vector<CompileResponse> CompileService::CompileBatch(
    std::span<const CompileRequest> requests) {
  // Warm kUse entries answer in place — no Dag copy, no pool round-trip.
  // Cold kUse misses on a batch-capable engine group by everything one
  // shared solve attempt needs in common; each group of >= 2 becomes ONE
  // pool task running the request pipeline over the whole group
  // (RunBatchGroup), so a post-ReplaceRl miss storm refills at GEMM speed.
  // Everything else fans out as ordinary async requests on its own lane;
  // results gather in input order.
  std::vector<CompileResponse> responses(requests.size());
  std::vector<std::pair<std::size_t, Ticket>> pending;

  // (canonical engine, stages, nodes, profile fingerprint, per-attempt
  // budget): only same-shape graphs targeting the same hardware can
  // lock-step, and one token has one budget.  std::map keeps group order
  // (and thus solve order) deterministic for a given input.
  std::map<std::tuple<std::string_view, int, int, std::uint64_t,
                      std::uint64_t, double>,
           std::vector<GroupMember>>
      groups;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CompileRequest& request = requests[i];
    if (request.cache_policy != CachePolicy::kUse) {
      pending.emplace_back(i, SubmitInternal(request, std::nullopt));
      continue;
    }
    Job job = MakeJob(request, std::nullopt);
    if (ProbeMemory(job, /*join=*/false) == Probe::kHit) {
      responses[i] = std::move(job.response);
      continue;
    }
    if (batch_decode_ && job.key.engine->supports_batch) {
      const auto group_key = std::make_tuple(
          std::string_view(job.key.engine->name), request.num_stages,
          request.dag.NodeCount(), job.key.profile_fingerprint.hi,
          job.key.profile_fingerprint.lo, BudgetFor(request));
      groups[group_key].push_back(
          GroupMember{i, std::move(job), {}, SteadyClock::now()});
      continue;
    }
    pending.emplace_back(i, SubmitInternal(request, std::move(job.key)));
  }

  for (auto& [group_key, members] : groups) {
    if (members.size() < 2) {
      // Lone candidate: no batch to form — the ordinary async path.
      GroupMember& m = members.front();
      pending.emplace_back(m.index,
                           SubmitInternal(requests[m.index], std::move(m.job.key)));
      continue;
    }
    // The group task runs on the most urgent member's lane so a grouped
    // interactive miss is not demoted behind batch-lane floods; per-member
    // lane counters still record each request under its own lane.
    std::size_t task_lane = kNumPriorityLanes - 1;
    for (GroupMember& m : members) {
      const std::size_t lane = LaneIndex(requests[m.index].priority);
      lane_counters_[lane].enqueued.fetch_add(1, std::memory_order_relaxed);
      BumpTenant(requests[m.index].tenant, &TenantMetrics::enqueued);
      task_lane = std::min(task_lane, lane);
      pending.emplace_back(m.index, Ticket(m.promise.get_future().share()));
    }
    // Jobs borrow `requests`: CompileBatch blocks on every ticket below
    // before returning, so the span outlives the task.  The group task
    // queues under the first member's tenant flow — one grouped solve is
    // one unit of service however many members share it.
    core::ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(task_lane);
    attrs.flow = requests[members.front().index].tenant;
    auto shared_members =
        std::make_shared<std::vector<GroupMember>>(std::move(members));
    pool_->Submit([this, shared_members] { RunBatchGroup(*shared_members); },
                  std::move(attrs));
  }

  std::exception_ptr first_failure;
  for (const auto& [i, ticket] : pending) {
    try {
      responses[i] = ticket.WaitResponse();
    } catch (...) {
      if (first_failure == nullptr) first_failure = std::current_exception();
    }
  }
  if (first_failure != nullptr) std::rethrow_exception(first_failure);
  return responses;
}

void CompileService::RunBatchGroup(std::vector<GroupMember>& members) {
  OBS_SPAN("serve.batch_group");
  std::vector<Job*> jobs;
  jobs.reserve(members.size());
  for (GroupMember& m : members) {
    double wait = 0.0;
    m.job.failure = StartQueued(*m.job.request, m.enqueue_time, wait);
    m.job.response.queue_wait_seconds = wait;
    m.job.grouped = true;
    if (m.job.failure == nullptr) jobs.push_back(&m.job);
  }
  RunStages(jobs);
  for (GroupMember& m : members) {
    if (m.job.failure != nullptr) {
      m.promise.set_exception(m.job.failure);
    } else {
      m.promise.set_value(std::move(m.job.response));
    }
  }
}

void CompileService::ReplaceRl(std::shared_ptr<rl::RlScheduler> rl) {
  // Bump the version first: every key computed from here on addresses the
  // new snapshot.  An in-flight solve keyed against the old version may
  // still insert after the sweep, but its key is unreachable (no future
  // request recomputes it), so it can only occupy capacity, never serve.
  // The same reasoning invalidates the persistent tier for free: old-
  // version spill files answer keys no future request recomputes.  They
  // only occupy disk — CompactStore() reclaims them.
  compiler_.ReplaceRl(std::move(rl));
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->rl_dependent) {
        shard->entries.erase(it->key);
        it = shard->lru.erase(it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

void CompileService::BumpTenant(const std::string& tenant,
                                std::uint64_t TenantMetrics::*field) {
  const std::lock_guard<std::mutex> lock(tenant_mutex_);
  tenant_counters_[tenant].*field += 1;
}

ServiceMetrics CompileService::Metrics() const {
  ServiceMetrics metrics;
  metrics.hits = hits_.load(std::memory_order_relaxed);
  metrics.misses = misses_.load(std::memory_order_relaxed);
  metrics.evictions = evictions_.load(std::memory_order_relaxed);
  metrics.invalidations = invalidations_.load(std::memory_order_relaxed);
  metrics.single_flight_waits =
      single_flight_waits_.load(std::memory_order_relaxed);
  metrics.failures = failures_.load(std::memory_order_relaxed);
  metrics.bypasses = bypasses_.load(std::memory_order_relaxed);
  metrics.refreshes = refreshes_.load(std::memory_order_relaxed);
  metrics.deadline_expired =
      deadline_expired_.load(std::memory_order_relaxed);
  metrics.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  metrics.ttl_expired = ttl_expired_.load(std::memory_order_relaxed);
  metrics.admission_rejected =
      admission_rejected_.load(std::memory_order_relaxed);
  metrics.batch_solved = batch_solved_.load(std::memory_order_relaxed);
  metrics.batch_single = batch_single_.load(std::memory_order_relaxed);
  metrics.batch_groups = batch_groups_.load(std::memory_order_relaxed);
  metrics.budget_blown = budget_blown_.load(std::memory_order_relaxed);
  metrics.degraded_served = degraded_served_.load(std::memory_order_relaxed);
  metrics.fallback_exhausted =
      fallback_exhausted_.load(std::memory_order_relaxed);
  metrics.writeback_errors =
      writeback_errors_.load(std::memory_order_relaxed);
  metrics.peer_fetches = peer_fetches_.load(std::memory_order_relaxed);
  metrics.peer_hits = peer_hits_.load(std::memory_order_relaxed);
  metrics.peer_fetch_failures =
      peer_fetch_failures_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(breaker_mutex_);
    for (const auto& [name, breaker] : breakers_) {
      const CircuitBreaker::Snapshot snapshot = breaker->GetSnapshot();
      BreakerMetrics& out = metrics.breakers[std::string(name)];
      out.state = std::string(ToString(snapshot.state));
      out.consecutive_failures = snapshot.consecutive_failures;
      out.opened = snapshot.opened;
      out.short_circuits = snapshot.short_circuits;
    }
  }
  if (store_ != nullptr) metrics.store = store_->Metrics();
  {
    const std::lock_guard<std::mutex> lock(tenant_mutex_);
    metrics.tenants = tenant_counters_;
  }
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    metrics.cache_size += shard->entries.size();
  }
  solve_latency_.Percentiles(metrics.solve_p50_seconds,
                             metrics.solve_p99_seconds);
  for (std::size_t lane = 0; lane < kNumPriorityLanes; ++lane) {
    LaneMetrics& out = metrics.lanes[lane];
    out.enqueued = lane_counters_[lane].enqueued.load(std::memory_order_relaxed);
    out.started = lane_counters_[lane].started.load(std::memory_order_relaxed);
    out.expired = lane_counters_[lane].expired.load(std::memory_order_relaxed);
    out.shed = lane_counters_[lane].shed.load(std::memory_order_relaxed);
    metrics.shed += out.shed;
    // Monotone counters loaded independently; saturate rather than wrap on
    // a transiently inconsistent snapshot.  Shed requests counted enqueued
    // but never start or expire, so they settle here too.
    const std::uint64_t settled = out.started + out.expired + out.shed;
    out.depth = out.enqueued > settled
                    ? static_cast<std::size_t>(out.enqueued - settled)
                    : 0;
    lane_wait_[lane].Percentiles(out.wait_p50_seconds, out.wait_p99_seconds);
  }
  return metrics;
}

void CompileService::ClearCache() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace respect::serve

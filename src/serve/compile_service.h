// CompileService — the serving front end over PipelineCompiler.
//
// The API is built around two first-class types (serve/request.h):
// CompileRequest — dag, num_stages, engine (canonical name or CLI alias),
// priority lane, optional absolute deadline, cache policy — and
// CompileResponse — the shared result plus provenance (cache outcome,
// queue-wait and solve seconds, canonical engine name, key hex).
//
//   respect::serve::CompileService service(compiler_options);
//   auto r1 = service.Compile({.dag = dag, .num_stages = 4,
//                              .engine = "respect"});        // cold solve
//   auto r2 = service.Compile({.dag = dag, .num_stages = 4,
//                              .engine = "RESPECT"});        // cache hit
//   assert(r1.result == r2.result);   // alias and name share one key
//
// Every request is content-addressed: the key is a graph::CanonicalHash
// folding the graph's digest (graph::HashDag), the engine's canonical name,
// num_stages, the compiler options fingerprint, and (for RL-dependent
// engines only) the RL weight snapshot version.  Repeat requests are
// answered from a sharded LRU cache of shared immutable CompileResults, and
// concurrent identical requests are collapsed by single-flight
// deduplication: one caller solves, everyone else waits on that solve.
//
// Async path: Submit enqueues the request on a deadline-aware three-lane
// queue (serve::RequestQueue) feeding the service's core::ThreadPool and
// returns a Ticket.  Interactive requests overtake queued batch work
// (batch ages so it cannot starve; ServiceOptions::max_batch_inflight
// additionally caps how many batch solves may run at once); a request
// whose deadline passes in the queue fails fast with DeadlineExceeded
// instead of occupying a worker.  ReplaceRl swaps the RL weights under
// live traffic and invalidates exactly the RL-dependent cache entries.
// Failed solves are never cached.
//
// Persistent tier: ServiceOptions::cache_dir plugs a store::DiskStore
// behind the memory cache.  A memory miss probes the store before solving
// (the only synchronous disk read on the request path); a hit is surfaced
// as CacheOutcome::kDiskHit and promoted into memory subject to admission.
// Successful solves spill to disk as background writeback tasks on the
// service's pool, so a restart against the same directory warm-starts
// without re-running a single engine solve.  TinyLFU admission (on by
// default) keeps one-hit-wonder scans from flushing hot memory entries;
// cache_ttl_seconds bounds the age of both tiers, enforced lazily on
// probe.
//
// One request pipeline: every entry point (Compile, Submit, CompileBatch,
// TryServeLocal) runs the same stage functions in the same order — key →
// memory → flight → disk → peer → solve → publish.  TryServeLocal stops
// after the disk stage; grouped CompileBatch misses differ only in the
// solve stage, which gives a lock-step-capable engine one shared attempt.
//
// Thread safety: every public method is safe to call concurrently.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/respect.h"
#include "engines/registry.h"
#include "graph/canonical_hash.h"
#include "graph/dag.h"
#include "obs/registry.h"
#include "serve/circuit_breaker.h"
#include "serve/request.h"
#include "serve/store/cache_store.h"
#include "tpu/device_profile.h"

namespace respect::core {
class ThreadPool;
}  // namespace respect::core

namespace respect::serve::store {
class TinyLfuAdmission;
}  // namespace respect::serve::store

namespace respect::serve {

struct ServiceOptions {
  /// Total cached results across all shards (0 disables caching; single-
  /// flight deduplication still applies).  Rounded up to a multiple of
  /// cache_shards.
  std::size_t cache_capacity = 1024;

  /// Lock shards; more shards = less contention.  Clamped to >= 1.
  int cache_shards = 8;

  /// Workers behind Submit; values < 1 select
  /// core::ThreadPool::DefaultThreadCount().
  int num_threads = 0;

  /// Samples kept per latency window (cold solves, and per-lane queue
  /// waits) for the p50/p99 metrics.
  std::size_t latency_window = 2048;

  /// Anti-starvation aging quantum of the priority queue (see
  /// serve::RequestQueue); <= 0 means pure strict priority.
  double queue_aging_seconds = 2.0;

  /// Baseline/escape hatch: hand Submit tasks to the pool in plain FIFO
  /// order — priority and aging are ignored, deadlines only fail fast when
  /// a worker picks the task up (not while it queues), and
  /// max_batch_inflight is ignored.
  bool fifo_queue = false;

  /// Max batch-lane solves running concurrently (<= 0 = unlimited).  With
  /// a cap of N, an interactive request never waits behind more than N
  /// batch solves even when a batch flood fills the queue — the remaining
  /// workers stay available to the other lanes.
  int max_batch_inflight = 0;

  /// Directory for the persistent spill tier (store::DiskStore); empty
  /// disables it.  On construction the directory is scanned, and a request
  /// already solved by a previous process is answered from disk
  /// (CacheOutcome::kDiskHit) instead of re-solving.
  std::string cache_dir;

  /// Time-to-live for cached entries in both tiers, enforced lazily on
  /// probe; <= 0 means entries never expire.  Memory entries age on the
  /// steady clock from insert; disk entries carry an absolute wall-clock
  /// expiry so the TTL survives restarts.
  double cache_ttl_seconds = 0.0;

  /// Frequency-aware admission (store::TinyLfuAdmission): when the memory
  /// cache is full, a cold insert only evicts the LRU victim if the new
  /// key's estimated access frequency is at least the victim's, so scan
  /// traffic cannot flush hot entries.  Disable for pure-LRU behavior.
  bool lfu_admission = true;

  /// Grouped miss solving for CompileBatch(requests): cold kUse requests on
  /// a batch-capable engine (RlEngine's lock-stepped decode) are grouped by
  /// (engine, num_stages, node count, profile, per-attempt solve budget)
  /// and each group of >= 2 runs the request pipeline as one task on a
  /// single worker, its solve stage a batched GEMM decode — a cold-cache
  /// miss storm (e.g. right after ReplaceRl) refills at batch throughput
  /// instead of one GEMV decode per worker.  Disable to fan every miss out
  /// as an independent async request.  Responses are identical either way
  /// (see fallback_chain for how a group attempt counts).
  bool batch_decode = true;

  /// Fair-queueing weight of tenants absent from tenant_weights (see
  /// serve::RequestQueue): inside each priority lane, backlogged tenants
  /// receive service proportional to their weight, so one tenant's flood
  /// deepens its own sub-queue instead of starving the others.  Ignored by
  /// the fifo_queue baseline.
  double default_tenant_weight = 1.0;

  /// Per-tenant fair-queueing weights ("" is the shared default tenant).
  std::map<std::string, double> tenant_weights;

  /// Concurrency quota of tenants absent from tenant_quotas: how many of
  /// one tenant's requests may *run* at once across all lanes; <= 0 means
  /// unlimited.  Ignored by the fifo_queue baseline.
  int default_tenant_quota = 0;

  /// Per-tenant concurrency quotas (<= 0 entries mean unlimited).
  std::map<std::string, int> tenant_quotas;

  /// Ordered engines tried after the preferred engine blows its solve
  /// budget, throws, or sits behind an open circuit breaker.  Canonical
  /// names or aliases; resolved to registrations at construction (unknown
  /// names throw std::invalid_argument there, not under traffic).  Empty = no
  /// fallback: a blown budget surfaces as DeadlineExceeded.  A response
  /// served by a fallback is tagged degraded and cached under the fallback
  /// engine's own key, never the preferred engine's.
  ///
  /// A group attempt is one attempt: when a batch_decode group reaches a
  /// batch-capable candidate with >= 2 owners still unanswered, they share
  /// ONE solve — one budget token, one breaker Allow/Record, and one
  /// budget_blown increment if it blows.  If that attempt blows or throws,
  /// each owner walks the rest of its own chain alone, every attempt under
  /// a fresh budget — so every member gets the answer Compile would give.
  std::vector<std::string> fallback_chain;

  /// Per-engine-attempt solve budget (seconds) for requests that leave
  /// CompileRequest::solve_budget_seconds at 0; 0 here too = unlimited.
  /// Each attempt down the fallback chain gets a fresh budget.
  double default_solve_budget_seconds = 0.0;

  /// Consecutive solve failures (budget blows included) that open an
  /// engine's circuit breaker; <= 0 disables breakers entirely.  While
  /// open, requests skip the sick engine straight to its fallback —
  /// except when it is the last candidate, which is always attempted.
  int breaker_failure_threshold = 3;

  /// Seconds an open breaker short-circuits its engine before half-opening
  /// to admit a single probe solve.
  double breaker_open_seconds = 5.0;

  /// Test seam: breaker time source (null = steady_clock).
  std::function<std::chrono::steady_clock::time_point()> breaker_clock;

  /// Bound on queued entries per priority lane (serve::RequestQueue);
  /// <= 0 = unbounded.  A request submitted into a full lane is shed —
  /// Ticket::Wait throws Overloaded — instead of deepening the backlog.
  /// Ignored by the fifo_queue baseline.
  int max_lane_depth = 0;

  /// Deadline-aware admission: shed a request at Submit time (Overloaded)
  /// when its lane's backlog times the recent average solve cost already
  /// exceeds the request's deadline — the queue wait alone would expire it.
  /// Off by default: expiry then still fails the request fast, but only
  /// once it surfaces in the queue.
  bool deadline_admission = false;
};

/// Per-tenant async-path counters ("" is the shared default tenant).
struct TenantMetrics {
  std::uint64_t enqueued = 0;  // Submits carrying this tenant id
  std::uint64_t started = 0;   // began their compile on a worker
  std::uint64_t expired = 0;   // failed fast with DeadlineExceeded
};

/// Per-lane queue statistics (async path only; synchronous Compile calls
/// never enter a lane).
struct LaneMetrics {
  std::uint64_t enqueued = 0;  // Submits routed to this lane
  std::uint64_t started = 0;   // began their compile on a worker
  std::uint64_t expired = 0;   // failed fast with DeadlineExceeded
  std::uint64_t shed = 0;      // refused at admission with Overloaded
  std::size_t depth = 0;       // waiting in queue right now (approximate)
  double wait_p50_seconds = 0.0;  // queue wait of started requests
  double wait_p99_seconds = 0.0;
};

/// Point-in-time view of one engine's circuit breaker.
struct BreakerMetrics {
  std::string state;  // "closed" / "open" / "half-open"
  int consecutive_failures = 0;
  std::uint64_t opened = 0;          // transitions into open
  std::uint64_t short_circuits = 0;  // attempts skipped while open
};

/// Point-in-time counters; Metrics() assembles a consistent-enough snapshot
/// without stopping traffic.
struct ServiceMetrics {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // cold solves started (cacheable or not)
  std::uint64_t evictions = 0;        // LRU capacity evictions
  std::uint64_t invalidations = 0;    // entries dropped by ReplaceRl
  std::uint64_t single_flight_waits = 0;  // requests collapsed onto a solve
  std::uint64_t failures = 0;         // solves that threw
  std::uint64_t bypasses = 0;         // CachePolicy::kBypass solves
  std::uint64_t refreshes = 0;        // CachePolicy::kRefresh solves
  std::uint64_t deadline_expired = 0;  // DeadlineExceeded failures, all paths
  std::uint64_t disk_hits = 0;        // memory misses answered by the store
  std::uint64_t ttl_expired = 0;      // memory entries lazily expired
  std::uint64_t admission_rejected = 0;  // inserts refused by TinyLFU
  std::uint64_t batch_solved = 0;     // cold solves done by lock-stepped groups
  std::uint64_t batch_single = 0;     // grouped-path solves that fell back to
                                      // the per-graph decode (stragglers)
  std::uint64_t batch_groups = 0;     // lock-stepped group decodes executed
  std::uint64_t budget_blown = 0;     // engine attempts cancelled on budget
  std::uint64_t degraded_served = 0;  // responses produced by a fallback
  std::uint64_t fallback_exhausted = 0;  // requests whose whole chain failed
  std::uint64_t shed = 0;             // requests refused at admission
                                      // (Overloaded), summed over lanes
  std::uint64_t writeback_errors = 0;  // background spills that failed
  std::uint64_t peer_fetches = 0;     // peer warm attempts on cold misses
  std::uint64_t peer_hits = 0;        // requests answered by peer envelopes
  std::uint64_t peer_fetch_failures = 0;  // fetches that threw or returned
                                          // corrupt/mismatched bytes
  double solve_p50_seconds = 0.0;     // over the recent cold-solve window
  double solve_p99_seconds = 0.0;
  std::size_t cache_size = 0;         // resident entries right now
  std::array<LaneMetrics, kNumPriorityLanes> lanes{};

  /// Async-path counters by tenant id; empty until a Submit carries a
  /// non-empty tenant (the "" default tenant is tracked once it appears).
  std::map<std::string, TenantMetrics> tenants;

  /// Persistent-tier counters; all zero when no cache_dir is configured.
  store::StoreMetrics store{};

  /// Circuit-breaker state by canonical engine name; an engine appears
  /// once it has served (or skipped) at least one solve attempt.
  std::map<std::string, BreakerMetrics> breakers;
};

class CompileService {
 public:
  using ResultPtr = serve::ResultPtr;

  explicit CompileService(const CompilerOptions& compiler_options = {},
                          const ServiceOptions& options = {});
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Synchronous compile on the caller's thread: answers per the request's
  /// cache policy (cache hit, collapsed onto an in-flight identical solve,
  /// or cold solve — see CacheOutcome).  An unknown or empty engine throws
  /// std::invalid_argument before touching the cache; an already-expired
  /// deadline throws DeadlineExceeded before solving; solve exceptions
  /// propagate to every caller collapsed onto the failing flight.  The
  /// request's priority is ignored (nothing queues).
  [[nodiscard]] CompileResponse Compile(const CompileRequest& request);

  /// Handle to an async request; shareable (copies wait on the same solve).
  class Ticket {
   public:
    Ticket() = default;

    /// Blocks until the request completes and returns the shared result;
    /// rethrows its failure (DeadlineExceeded when it expired in queue).
    /// May be called repeatedly and from multiple threads.  A default-
    /// constructed (or moved-from) Ticket throws future_error (no_state)
    /// instead of hitting shared_future::get()'s UB.
    [[nodiscard]] ResultPtr Wait() const { return WaitResponse().result; }

    /// Same, returning the full response with provenance.  The reference
    /// stays valid while any copy of this Ticket is alive.
    [[nodiscard]] const CompileResponse& WaitResponse() const {
      if (!future_.valid()) {
        throw std::future_error(std::future_errc::no_state);
      }
      return future_.get();
    }

    [[nodiscard]] bool Valid() const { return future_.valid(); }

   private:
    friend class CompileService;
    explicit Ticket(std::shared_future<CompileResponse> future)
        : future_(std::move(future)) {}

    std::shared_future<CompileResponse> future_;
  };

  /// Enqueues the request on its priority lane.  The request is taken by
  /// value so the caller's copy may die before the solve runs (move it in
  /// when done with it).  Engine resolution happens on the worker: an
  /// unknown engine surfaces through Ticket::Wait, not here.
  [[nodiscard]] Ticket Submit(CompileRequest request);

  /// Compiles every request of the batch through the shared cache: warm
  /// kUse entries answer in place without a solve, and results come back in
  /// input order.  Cold kUse requests on a batch-capable engine are grouped
  /// (see ServiceOptions::batch_decode) and every group of >= 2 runs on a
  /// single worker with one lock-stepped solve attempt; everything else
  /// fans out as ordinary async requests on its own priority lane
  /// (duplicates collapse via single-flight).  Every response equals what
  /// Compile would return.  The first failure rethrows after every flight
  /// finishes.
  [[nodiscard]] std::vector<CompileResponse> CompileBatch(
      std::span<const CompileRequest> requests);

  /// Swaps the RL weight snapshot (null resets to the configured state),
  /// bumps the snapshot version, and drops every RL-dependent cache entry.
  /// Deterministic-engine entries are untouched.  In-flight RL solves finish
  /// on the snapshot they started with; their results land under the old
  /// version's keys, which no future request recomputes, so stale weights
  /// can never answer a post-swap request.  This is the only supported way
  /// to change compiler state under live traffic.
  void ReplaceRl(std::shared_ptr<rl::RlScheduler> rl);

  [[nodiscard]] ServiceMetrics Metrics() const;

  /// Drops every cached *memory* entry (counters are preserved; the
  /// persistent tier is untouched, so subsequent requests may come back as
  /// disk hits — which is exactly how the restart path behaves).
  void ClearCache();

  /// Blocks until every queued background spill write has landed in the
  /// store.  No-op without a cache_dir.  Call before dropping the process
  /// (or handing the directory to another service) when the very last
  /// solves must be on disk; the destructor drains the pool anyway.
  void FlushStore();

  /// Deletes unreachable store entries — RL-dependent spills from
  /// superseded weight snapshots (their keys embed the old version, so no
  /// future request recomputes them) and TTL-expired files.  Returns the
  /// number of entries removed; 0 without a cache_dir.  Synchronous and
  /// safe under live traffic.
  std::size_t CompactStore();

  /// Read-only view of the underlying compiler (e.g. RlVersion checks).
  /// Deliberately const-only: mutating the compiler behind the cache's back
  /// would desynchronize keys from results — weight swaps go through
  /// ReplaceRl.
  [[nodiscard]] const PipelineCompiler& Compiler() const { return compiler_; }

  // ── Fleet hooks (net::FleetServer) ─────────────────────────────────────

  /// The content-addressed key this request resolves to — what the fleet
  /// router hashes to pick an owner shard.  Same validation as Compile: an
  /// unknown engine or profile throws std::invalid_argument.  Pure (no
  /// cache side effects).
  [[nodiscard]] graph::CanonicalHash KeyFor(
      const CompileRequest& request) const;

  /// Local-tiers-only probe: answers a CachePolicy::kUse request from the
  /// memory cache (kHit) or the persistent store (kDiskHit, promoted), and
  /// returns nullopt otherwise — never joins a flight, never solves, never
  /// peer-fetches.  The fleet server uses this to decide whether a request
  /// it does not own can be answered in place or must forward.  Non-kUse
  /// policies always return nullopt (they never probe caches).
  [[nodiscard]] std::optional<CompileResponse> TryServeLocal(
      const CompileRequest& request);

  /// Peer warm hook: called on a cold miss (after both local tiers missed,
  /// before the engine solve) with the request key; returns raw spill
  /// envelope bytes or "" for a peer miss.  The bytes are fully verified
  /// here — checksum, embedded key, expiry — before anything is served;
  /// corrupt bytes and thrown exceptions count as peer_fetch_failures and
  /// the request falls through to a normal local solve.  A verified fetch
  /// is imported into the local store (durable warmth), promoted into
  /// memory, and surfaced as CacheOutcome::kPeerHit.  Pass nullptr to
  /// uninstall.  The function must stay callable until it is uninstalled
  /// and every in-flight request has settled (net::FleetServer::Stop does
  /// both).
  using PeerFetchFn = std::function<std::string(const graph::CanonicalHash&)>;
  void SetPeerFetch(PeerFetchFn fetch);

  /// Verified raw spill envelope bytes for `key` from the persistent tier,
  /// or nullopt (no store, absent, corrupt, expired) — the serving side of
  /// a peer's fetch-by-hex.
  [[nodiscard]] std::optional<std::string> ExportSpill(
      const graph::CanonicalHash& key);

  /// Verifies and persists raw envelope bytes under `key` (see
  /// store::CacheStore::ImportRaw).  False without a store or when the
  /// bytes are refused.
  bool ImportSpill(const graph::CanonicalHash& key, std::string_view bytes);

  // ── Observability ──────────────────────────────────────────────────────

  /// The unified metrics registry behind Metrics()'s counters.  Instance-
  /// scoped (tests assert exact per-service values); the disk store and the
  /// fleet server register their metrics here too, so one
  /// RenderPrometheus(os) call emits the whole shard's exposition page.
  [[nodiscard]] obs::Registry& MetricsRegistry() { return registry_; }

 private:
  struct CacheEntry {
    graph::CanonicalHash key;
    ResultPtr result;
    bool rl_dependent = false;
    bool has_ttl = false;
    std::chrono::steady_clock::time_point expires_at{};
  };

  /// One single-flight slot: the owner solves and resolves the future; every
  /// concurrent identical request waits on it.  The provenance fields are
  /// written by the owner before set_value — promise/future ordering makes
  /// them visible to every waiter that returned from future.get().
  struct Flight {
    std::promise<ResultPtr> promise;
    std::shared_future<ResultPtr> future;
    std::string_view served_by{};  // canonical engine that actually solved
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<CacheEntry> lru;  // front = most recently used
    std::unordered_map<graph::CanonicalHash, std::list<CacheEntry>::iterator,
                       graph::CanonicalHash::Hasher>
        entries;
    std::unordered_map<graph::CanonicalHash, std::shared_ptr<Flight>,
                       graph::CanonicalHash::Hasher>
        flights;
  };

  struct RequestKey {
    graph::CanonicalHash hash;

    /// graph::HashDag of the request's DAG, kept so a fallback engine's key
    /// (Publish) is derived without hashing the DAG again.
    graph::CanonicalHash dag_hash;

    /// The resolved engine (process lifetime, owned by the registry); its
    /// canonical name and uses_rl flag shape the hash.
    const engines::EngineRegistration* engine = nullptr;
    std::uint64_t rl_version = 0;  // snapshot folded into hash (RL only)

    /// Resolved device profile the solve targets.  The default profile
    /// folds nothing into the hash (pre-profile keys and spill files stay
    /// reachable); any other profile folds its fingerprint in.
    tpu::DeviceProfile profile;
    graph::CanonicalHash profile_fingerprint{};
  };

  /// Fixed-capacity ring of latency samples with mutex-guarded recording
  /// and sort-on-read percentiles.  Once the ring wraps, the window holds
  /// the most recent `capacity` samples.
  class LatencyWindow {
   public:
    /// Call once before traffic (capacity is clamped to >= 1).  When a
    /// histogram is supplied, every Record also observes it — the window
    /// keeps the snapshot's exact recent percentiles, the histogram feeds
    /// the Prometheus exposition.
    void Configure(std::size_t capacity, obs::Histogram* histogram = nullptr);
    void Record(double seconds);
    /// Percentiles over the resident window; both 0.0 while empty.
    void Percentiles(double& p50, double& p99) const;

   private:
    mutable std::mutex mutex_;
    std::vector<double> values_;  // grows to capacity, then a ring
    std::size_t next_ = 0;        // overwrite cursor once at capacity
    std::size_t capacity_limit_ = 1;
    obs::Histogram* histogram_ = nullptr;  // optional registry mirror
  };

  /// One request walking the stages: the request (borrowed; it outlives
  /// the walk), its key, and the response the stages fill in.  `flight` is
  /// the single-flight slot the job owns (kOwner) or waits on (kJoined);
  /// `failure`, once set, is what the request ends with.
  struct Job {
    const CompileRequest* request = nullptr;
    RequestKey key;
    CompileResponse response;
    std::shared_ptr<Flight> flight;
    std::exception_ptr failure;
    /// False once this logical request fed the admission sketch (one
    /// access per request, whatever the entry point).
    bool record_access = true;
    bool grouped = false;  // a CompileBatch group member (batch_single)
  };

  /// Key stage: resolves the engine and the named device profile, hashes
  /// the DAG and builds the content-addressed key.  An unknown engine or
  /// profile name throws std::invalid_argument, as does a DAG whose names
  /// the hash cannot frame (graph::WriteDag).
  [[nodiscard]] RequestKey MakeKey(const CompileRequest& request) const;

  /// `key` readdressed to `engine`: the hash is recomputed from the kept DAG
  /// digest and profile, with `engine`'s name and (RL engines only) the
  /// current snapshot version.
  [[nodiscard]] RequestKey KeyWithEngine(
      RequestKey key, const engines::EngineRegistration& engine,
      int num_stages) const;

  /// A job for `request` with its provenance filled in; a precomputed key
  /// means the caller's memory probe already recorded the access.
  [[nodiscard]] Job MakeJob(const CompileRequest& request,
                            std::optional<RequestKey> key) const;

  [[nodiscard]] Shard& ShardFor(const graph::CanonicalHash& hash);

  enum class Probe { kHit, kMiss, kOwner, kJoined };

  /// Memory stage, plus the flight stage when `join`: under one shard lock,
  /// answers a resident unexpired entry (kHit, LRU refreshed); otherwise,
  /// with `join`, waits on the identical in-flight solve (kJoined) or
  /// claims its flight slot (kOwner).  Without `join` a miss is kMiss.
  [[nodiscard]] Probe ProbeMemory(Job& job, bool join);

  /// Disk stage: answers from the persistent tier (kDiskHit, promoted at
  /// the spill's remaining lifetime); true when answered.
  [[nodiscard]] bool ProbeDisk(Job& job);

  /// Peer stage (fleet mode): fetch → verify → import → promote; true when
  /// answered (kPeerHit).  Any failure falls through to the solve stage.
  [[nodiscard]] bool TryPeerWarm(Job& job);

  /// Runs memory → flight → disk → peer → solve → publish for `jobs` (one
  /// request, or one CompileBatch group sharing engine, stages, profile and
  /// budget).  Settles every job: a response or `failure`.
  void RunStages(std::span<Job* const> jobs);

  /// The per-attempt solve budget (seconds, 0 = unlimited) of `request`.
  [[nodiscard]] double BudgetFor(const CompileRequest& request) const;

  /// RunStages for one request; rethrows its failure.
  [[nodiscard]] CompileResponse Execute(const CompileRequest& request,
                                        std::optional<RequestKey> key);

  /// How one engine attempt ended: `skipped` when an open breaker
  /// short-circuited it (never for the last candidate), else a null
  /// `error` on success.  `budget` marks a fired budget token.
  struct AttemptOutcome {
    bool skipped = false;
    std::exception_ptr error;
    bool budget = false;
  };

  /// Solve stage: the preferred engine (unless its breaker is open and a
  /// fallback exists), then each configured fallback.  Owners share one
  /// attempt while >= 2 remain on a batch-capable candidate (see
  /// ServiceOptions::fallback_chain); every other attempt is per owner.
  /// Fills each owner's result/degraded/engine_name/solve_seconds or its
  /// `failure` — a chain that died purely on budgets is DeadlineExceeded.
  void SolveCold(std::span<Job* const> owners);

  /// The rest of one owner's chain from candidate `from` on; `first` is
  /// the failure inherited from a failed group attempt (if any).
  void WalkChain(Job& job,
                 std::span<const engines::EngineRegistration* const> candidates,
                 std::size_t from, double budget, AttemptOutcome first);

  /// One breaker-gated engine attempt for `jobs` under one fresh budget
  /// token — a lock-stepped CompileGroup when there are several.  Fills
  /// the responses on success; a failure is recorded once.
  [[nodiscard]] AttemptOutcome Attempt(
      std::span<Job* const> jobs, const engines::EngineRegistration& engine,
      bool last, double budget);

  /// Fails `job` with DeadlineExceeded when its request deadline passed;
  /// true when it did.
  [[nodiscard]] bool FailIfLapsed(Job& job);

  /// Publish stage: caches the job's answer under its own key — or, when a
  /// fallback engine produced it, under that engine's own key — resolves
  /// the flight the job owns (with its answer or its failure), and with
  /// `spill` queues the background writeback.  `expires_at` caps the
  /// memory entry's lifetime (tier hits promote at their remaining TTL).
  void Publish(Job& job, bool spill,
               std::optional<std::chrono::steady_clock::time_point>
                   expires_at = std::nullopt);

  /// The breaker guarding `engine` (created closed on first use).
  [[nodiscard]] CircuitBreaker& BreakerFor(std::string_view engine);

  /// Submit with an optionally precomputed key (the batch path probes the
  /// cache with the key first, then reuses it — one DAG serialization+hash
  /// per graph, not two).
  [[nodiscard]] Ticket SubmitInternal(CompileRequest request,
                                      std::optional<RequestKey> key);

  /// Worker-side start of a queued request: records its queue wait and
  /// lane/tenant start, or — when its deadline already passed — counts the
  /// expiry and returns the DeadlineExceeded to fail it with.
  [[nodiscard]] std::exception_ptr StartQueued(
      const CompileRequest& request,
      std::chrono::steady_clock::time_point enqueue_time, double& wait);

  /// One member of a grouped CompileBatch miss: its job (key precomputed
  /// by the batch's memory probe) and the promise behind its ticket.
  struct GroupMember {
    std::size_t index = 0;  // into the caller's request span
    Job job;
    std::promise<CompileResponse> promise;
    std::chrono::steady_clock::time_point enqueue_time{};
  };

  /// Body of one grouped CompileBatch task (runs on a worker): per member,
  /// lane/tenant accounting and the deadline check, then RunStages over
  /// the survivors — inline, never a nested pool submission, so a full
  /// queue cannot deadlock the group.  Resolves every member's promise.
  void RunBatchGroup(std::vector<GroupMember>& members);

  /// Inserts (or refreshes) an entry.  `expires_at` caps the entry's
  /// lifetime below the default TTL — set on disk-hit promotion so a
  /// promoted entry dies at the spill's absolute expiry instead of getting
  /// a freshly re-armed TTL.
  void InsertLocked(
      Shard& shard, const RequestKey& key, ResultPtr result,
      std::optional<std::chrono::steady_clock::time_point> expires_at =
          std::nullopt);

  /// Lazily drops `it` when its TTL lapsed; true means the entry is gone
  /// and the lookup must proceed as a miss.  Call under the shard mutex.
  [[nodiscard]] bool DropIfExpiredLocked(Shard& shard,
                                         std::list<CacheEntry>::iterator it);

  /// Memory-promotion cap for an entry carrying an absolute wall-clock
  /// expiry (disk hit, peer-fetched envelope): promote at the *remaining*
  /// lifetime — re-arming a full TTL would let the entry outlive its age
  /// bound by up to 2x.  Nullopt when the entry never expires.
  [[nodiscard]] static std::optional<std::chrono::steady_clock::time_point>
  PromoteExpiry(std::int64_t expires_at_unix_ms);

  /// Snapshot of the installed peer-fetch hook (null when none).
  [[nodiscard]] std::shared_ptr<const PeerFetchFn> PeerFetchSnapshot() const;

  /// Enqueues a background spill of `result` on the pool (no-op without a
  /// store).  Never blocks on I/O; FlushStore waits for all of these.
  void EnqueueWriteback(const RequestKey& key, ResultPtr result);

  [[nodiscard]] static std::size_t LaneIndex(Priority priority);

  PipelineCompiler compiler_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// TTL for memory entries; zero duration = no expiry.
  std::chrono::steady_clock::duration memory_ttl_{};
  bool has_ttl_ = false;

  /// Frequency sketch consulted on insert/promote; null = always admit.
  std::unique_ptr<store::TinyLfuAdmission> admission_;

  /// ServiceOptions::batch_decode — grouped miss solving in CompileBatch.
  bool batch_decode_ = true;

  /// Persistent tier; null when no cache_dir is configured.  Declared
  /// before pool_ so queued writeback tasks (which reference it) are
  /// drained by the pool's destructor first.
  std::unique_ptr<store::CacheStore> store_;

  std::unique_ptr<core::ThreadPool> pool_;

  /// Constant-per-service fingerprint of CompilerOptions, folded into every
  /// key so results are only shared between identically configured services.
  graph::CanonicalHash options_fingerprint_;

  /// Unified metrics registry (obs::Registry).  Declared before every
  /// counter reference below — members bind into it at construction.  The
  /// references have the std::atomic fetch_add/load surface, so increment
  /// sites are byte-for-byte the pre-registry code.
  obs::Registry registry_;

  obs::Counter& hits_ =
      registry_.GetCounter("respect_serve_hits_total",
                           "Requests answered from a resident memory entry");
  obs::Counter& misses_ =
      registry_.GetCounter("respect_serve_misses_total",
                           "Cold solves started (cacheable or not)");
  obs::Counter& evictions_ = registry_.GetCounter(
      "respect_serve_evictions_total", "LRU capacity evictions");
  obs::Counter& invalidations_ = registry_.GetCounter(
      "respect_serve_invalidations_total", "Entries dropped by ReplaceRl");
  obs::Counter& single_flight_waits_ = registry_.GetCounter(
      "respect_serve_single_flight_waits_total",
      "Requests collapsed onto another caller's in-flight solve");
  obs::Counter& failures_ = registry_.GetCounter(
      "respect_serve_failures_total", "Solves that threw");
  obs::Counter& bypasses_ = registry_.GetCounter(
      "respect_serve_bypasses_total", "CachePolicy::kBypass solves");
  obs::Counter& refreshes_ = registry_.GetCounter(
      "respect_serve_refreshes_total", "CachePolicy::kRefresh solves");
  obs::Counter& deadline_expired_ = registry_.GetCounter(
      "respect_serve_deadline_expired_total",
      "DeadlineExceeded failures, all paths");
  obs::Counter& disk_hits_ = registry_.GetCounter(
      "respect_serve_disk_hits_total",
      "Memory misses answered by the persistent store");
  obs::Counter& ttl_expired_ = registry_.GetCounter(
      "respect_serve_ttl_expired_total", "Memory entries lazily expired");
  obs::Counter& admission_rejected_ = registry_.GetCounter(
      "respect_serve_admission_rejected_total",
      "Inserts refused by TinyLFU admission");
  obs::Counter& batch_solved_ = registry_.GetCounter(
      "respect_serve_batch_solved_total",
      "Cold solves done by lock-stepped groups");
  obs::Counter& batch_single_ = registry_.GetCounter(
      "respect_serve_batch_single_total",
      "Grouped-path solves that fell back to the per-graph decode");
  obs::Counter& batch_groups_ = registry_.GetCounter(
      "respect_serve_batch_groups_total",
      "Lock-stepped group decodes executed");
  obs::Counter& budget_blown_ = registry_.GetCounter(
      "respect_serve_budget_blown_total",
      "Engine attempts cancelled on solve budget");
  obs::Counter& degraded_served_ = registry_.GetCounter(
      "respect_serve_degraded_served_total",
      "Responses produced by a fallback engine");
  obs::Counter& fallback_exhausted_ = registry_.GetCounter(
      "respect_serve_fallback_exhausted_total",
      "Requests whose whole engine chain failed");
  obs::Counter& writeback_errors_ = registry_.GetCounter(
      "respect_serve_writeback_errors_total",
      "Background spill writes that failed");
  obs::Counter& peer_fetches_ = registry_.GetCounter(
      "respect_serve_peer_fetches_total",
      "Peer warm attempts on cold misses");
  obs::Counter& peer_hits_ = registry_.GetCounter(
      "respect_serve_peer_hits_total",
      "Requests answered by peer spill envelopes");
  obs::Counter& peer_fetch_failures_ = registry_.GetCounter(
      "respect_serve_peer_fetch_failures_total",
      "Peer fetches that threw or returned corrupt/mismatched bytes");

  /// Cold-solve latency distribution (seconds) with Prometheus buckets;
  /// LatencyWindow still backs the snapshot's exact windowed percentiles.
  obs::Histogram& solve_hist_ = registry_.GetHistogram(
      "respect_serve_solve_seconds", "Cold engine solve latency (seconds)");

  /// Peer warm hook (SetPeerFetch); swapped atomically under its mutex,
  /// read as a shared_ptr snapshot so an uninstall never races a call.
  mutable std::mutex peer_fetch_mutex_;
  std::shared_ptr<const PeerFetchFn> peer_fetch_;

  /// Fallback chain resolved to registry entries at construction.
  std::vector<const engines::EngineRegistration*> fallback_chain_;
  double default_solve_budget_seconds_ = 0.0;

  /// Deadline-aware admission (ServiceOptions::deadline_admission) and the
  /// smoothed cold-solve cost its wait estimate uses.  The EWMA update is
  /// load-compute-store (not CAS): a lost race skews the estimate by one
  /// sample, which admission can tolerate.
  bool deadline_admission_ = false;
  std::atomic<double> ewma_solve_seconds_{0.0};

  /// One breaker per canonical engine name, created closed on first use.
  /// string_view keys borrow from the registry (process lifetime).
  CircuitBreaker::Options breaker_options_;
  mutable std::mutex breaker_mutex_;
  std::map<std::string_view, std::unique_ptr<CircuitBreaker>> breakers_;

  /// Spill writes queued on the pool but not yet landed (FlushStore waits
  /// on this reaching zero).
  std::mutex writeback_mutex_;
  std::condition_variable writeback_cv_;
  std::size_t pending_writebacks_ = 0;

  struct LaneCounters {
    obs::Counter& enqueued;
    obs::Counter& started;
    obs::Counter& expired;
    obs::Counter& shed;
  };
  /// Binds one lane's counters into the registry under
  /// respect_serve_lane_<lane>_* names.
  [[nodiscard]] LaneCounters MakeLaneCounters(std::size_t lane);
  static_assert(kNumPriorityLanes == 3, "extend lane_counters_ init");
  std::array<LaneCounters, kNumPriorityLanes> lane_counters_ = {
      MakeLaneCounters(0), MakeLaneCounters(1), MakeLaneCounters(2)};
  std::array<LatencyWindow, kNumPriorityLanes> lane_wait_;

  /// Per-tenant async-path counters, keyed by tenant id.  A small map under
  /// its own mutex (not atomics): tenant cardinality is low and the updates
  /// are off the solve's critical path.
  void BumpTenant(const std::string& tenant,
                  std::uint64_t TenantMetrics::*field);
  mutable std::mutex tenant_mutex_;
  std::map<std::string, TenantMetrics> tenant_counters_;

  LatencyWindow solve_latency_;
};

}  // namespace respect::serve

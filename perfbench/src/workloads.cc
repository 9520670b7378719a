#include "workloads.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "deploy/package.h"
#include "graph/canonical_hash.h"
#include "graph/serialize.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "rl/batch_decode_workspace.h"
#include "rl/embedding.h"
#include "sched/postprocess.h"
#include "sched/rho.h"
#include "serve/store/disk_store.h"

namespace perfbench {

using namespace respect;
using serve::CacheOutcome;
using serve::CompileRequest;
using serve::CompileResponse;
namespace fs = std::filesystem;

namespace {

/// Keeps measured results observable so calls cannot be optimized away.
volatile std::uint64_t g_sink = 0;
void Sink(std::uint64_t v) { g_sink = g_sink + v; }

CompileRequest MakeRequest(const graph::Dag& dag, int stages,
                           const char* engine) {
  CompileRequest request;
  request.dag = dag;
  request.num_stages = stages;
  request.engine = std::string(engine);
  return request;
}

std::unique_ptr<serve::CompileService> MakeService(const Context& ctx,
                                                   std::size_t capacity,
                                                   const fs::path& dir,
                                                   bool batch_decode = true) {
  serve::ServiceOptions options;
  options.cache_capacity = capacity;
  options.cache_shards = 1;  // one exact LRU: the same state on every run
  options.num_threads = 1;
  options.cache_dir = dir.string();
  options.batch_decode = batch_decode;
  return std::make_unique<serve::CompileService>(ctx.options, options);
}

/// Each request's content-addressed key (also its spill file's name).
std::vector<graph::CanonicalHash> KeysOf(
    const serve::CompileService& service,
    const std::vector<CompileRequest>& requests) {
  std::vector<graph::CanonicalHash> keys;
  for (const CompileRequest& r : requests) keys.push_back(service.KeyFor(r));
  return keys;
}

/// store.open_ms and store.probe_us over a populated cache directory:
/// construct a DiskStore over it, and probe resident keys.
void MeasureStoreReads(LayerRun& run, const fs::path& dir,
                       const std::vector<graph::CanonicalHash>& resident) {
  run.Time("store.DiskStore", "store.open_ms", 1e3, 1, [&](std::size_t) {
    serve::store::DiskStore store({.directory = dir.string()});
    Sink(store.Metrics().resident);
  }, 50);
  serve::store::DiskStore store({.directory = dir.string()});
  run.Time("store.Probe", "store.probe_us", 1e6, resident.size(),
           [&](std::size_t i) { Sink(store.Probe(resident[i]) != nullptr); });
}

/// serve.hit_self_us: TryServeLocal on a memory-resident key minus the
/// KeyFor it does internally, timed back to back as a pair.
void MeasureHitSelf(LayerRun& run, serve::CompileService& service,
                    const std::vector<CompileRequest>& resident) {
  std::vector<double> key_us;
  std::vector<double> local_us;
  bool all_hits = true;
  run.Time("serve.KeyFor+TryServeLocal", "serve.hit_pair_us", 1e6,
           resident.size(), [&](std::size_t i) {
             const Clock::time_point t0 = Clock::now();
             Sink(service.KeyFor(resident[i]).lo);
             const Clock::time_point t1 = Clock::now();
             const auto r = service.TryServeLocal(resident[i]);
             const Clock::time_point t2 = Clock::now();
             all_hits = all_hits && r && r->outcome == CacheOutcome::kHit;
             key_us.push_back(
                 std::chrono::duration<double, std::micro>(t1 - t0).count());
             local_us.push_back(
                 std::chrono::duration<double, std::micro>(t2 - t1).count());
           }, 1000);
  run.samples.erase("serve.hit_pair_us");
  if (!all_hits) return;  // not resident: the layer does not apply
  std::vector<double>& out = run.samples["serve.hit_self_us"];
  for (std::size_t k = 0; k < key_us.size(); ++k) {
    out.push_back(local_us[k] - key_us[k]);
  }
}

}  // namespace

namespace {

/// FNV-1a over 64-bit words.
std::uint64_t Fnv(const std::vector<std::uint64_t>& words) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v : words) {
    for (int b = 0; b < 8; ++b) {
      digest = (digest ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return digest;
}

}  // namespace

std::uint64_t Workload::StreamDigest() const {
  return Fnv(std::vector<std::uint64_t>(round_.begin(), round_.end()));
}

std::uint64_t Workload::DagsDigest() const {
  std::vector<std::uint64_t> words;
  for (const CompileRequest& r : requests_) {
    const graph::CanonicalHash h = graph::HashDag(r.dag);
    words.insert(words.end(), {h.hi, h.lo,
                               static_cast<std::uint64_t>(r.num_stages)});
  }
  return Fnv(words);
}

void Workload::PinReferences(const std::vector<std::size_t>& pair_of_slot,
                             const std::vector<const char*>& engine_of_slot) {
  book_ = std::make_unique<AnswerBook>(requests_.size());
  for (std::size_t slot = 0; slot < requests_.size(); ++slot) {
    const std::size_t pair = pair_of_slot[slot];
    if (pair >= kNumPairs) continue;
    if (engine_of_slot[slot] == kRespect) {
      book_->Pin(slot, ctx_.refs->respect[pair]);
    } else if (engine_of_slot[slot] == kCompiler) {
      book_->Pin(slot, ctx_.refs->compiler[pair]);
    }
  }
}

void Workload::MeasureKeyLayers(LayerRun& run,
                                const serve::CompileService& service) {
  run.Time("graph.HashDag", "graph.hash_us", 1e6, requests_.size(),
           [&](std::size_t i) { Sink(graph::HashDag(requests_[i].dag).lo); });
  run.Time("serve.KeyFor", "serve.key_us", 1e6, requests_.size(),
           [&](std::size_t i) { Sink(service.KeyFor(requests_[i]).lo); });
  double bytes = 0.0;
  for (const CompileRequest& r : requests_) {
    std::ostringstream os;
    graph::WriteDag(r.dag, os);
    bytes += static_cast<double>(os.str().size());
  }
  run.values["graph.hashed_bytes"] = {
      bytes / static_cast<double>(requests_.size()), requests_.size(), "mean"};
}

// ── zipf_hits ───────────────────────────────────────────────────────────────

namespace {

/// Sync Compile over ~200 keys that all sit in the persistent store, drawn
/// by Zipf from a fixed popularity ranking; the memory tier holds 32, so
/// the head hits memory and the tail reads disk.
class ZipfHits final : public Workload {
 public:
  static constexpr std::size_t kRoundRequests = 2000;
  // An assumption, not a measurement: "much smaller than the key set", so
  // that both memory hits and disk reads carry a large share of a round.
  static constexpr std::size_t kMemoryEntries = 32;

  explicit ZipfHits(const Context& ctx) : Workload(ctx) {
    // Per model: its 9 Table I keys interleaved with 11 sampled DAGs of the
    // same node count; rank r takes member r / 10 of model r % 10, so every
    // slice of the ranking holds every graph size.
    const std::vector<graph::Dag>& table = TableIGraphs();
    std::mt19937_64 rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<std::size_t> pair_of_slot;
    std::vector<const char*> engine_of_slot;
    for (std::size_t j = 0; j < 20; ++j) {
      for (std::size_t m = 0; m < table.size(); ++m) {
        if (j % 2 == 0 && j / 2 < 9) {
          const int stages = kStageCounts[(j / 2) / 3];
          const char* engine =
              std::array{kRespect, kCompiler, kList}[(j / 2) % 3];
          requests_.push_back(MakeRequest(table[m], stages, engine));
          pair_of_slot.push_back(PairIndex(m, stages));
          engine_of_slot.push_back(engine);
          if (engine == kRespect) respect_slot_[PairIndex(m, stages)] =
              requests_.size() - 1;
        } else {
          const std::size_t k = j < 18 ? j / 2 : j - 9;
          requests_.push_back(MakeRequest(
              SampleGraph(table[m].NodeCount(), rng,
                          "zipf-" + std::to_string(m) + "-" +
                              std::to_string(k)),
              kStageCounts[k % 3], kList));
          pair_of_slot.push_back(kNumPairs);
          engine_of_slot.push_back(kList);
        }
      }
    }
    PinReferences(pair_of_slot, engine_of_slot);
    round_ = ZipfRound(requests_.size(), kZipfExponent, kRoundRequests, rng);
    dir_ = ctx.work_dir / "zipf-store";
  }

  void Setup() override {
    service_.reset();
    fs::remove_all(dir_);
    service_ = MakeService(ctx_, kMemoryEntries, dir_);
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      Issue(i, [](CacheOutcome o) { return o == CacheOutcome::kMiss; },
            nullptr);
    }
    service_->FlushStore();
    service_->ClearCache();
    RoundLog warm;
    Round(warm);
  }

  std::size_t Round(RoundLog& log) override {
    for (const std::uint32_t slot : round_) {
      const Clock::time_point start = Clock::now();
      Issue(slot,
            [](CacheOutcome o) {
              return o == CacheOutcome::kHit || o == CacheOutcome::kDiskHit;
            },
            log.spans);
      log.latencies.push_back(SecondsSince(start));
    }
    return round_.size();
  }

  serve::ResultPtr ServedRespect(std::size_t pair) override {
    return Issue(respect_slot_.at(pair),
                 [](CacheOutcome o) {
                   return o == CacheOutcome::kHit ||
                          o == CacheOutcome::kDiskHit;
                 },
                 nullptr);
  }

  Counters Snapshot() const override {
    const serve::ServiceMetrics m = service_->Metrics();
    return {issued_, m.hits, m.disk_hits, m.single_flight_waits, m.misses,
            m.batch_solved, m.batch_groups, 0};
  }

  void MeasureLayers(LayerRun& run) override {
    MeasureKeyLayers(run, *service_);
    // The hottest ranks are memory-resident after the rounds; touch them
    // once more so the pairs below are all memory hits.
    std::vector<CompileRequest> hot(requests_.begin(),
                                    requests_.begin() + 8);
    for (const CompileRequest& r : hot) (void)service_->TryServeLocal(r);
    MeasureHitSelf(run, *service_, hot);
    MeasureStoreReads(run, dir_, KeysOf(*service_, requests_));
  }

  const char* RequestSpan() const override { return "zipf.Compile"; }

 private:
  template <class OutcomeOk>
  serve::ResultPtr Issue(std::size_t slot, OutcomeOk outcome_ok,
                         SpanLog* spans) {
    CompileRequest& request = requests_[slot];
    request.trace_id = NextRequestId();
    ++issued_;
    const Scope span(spans, RequestSpan(), -1, request.trace_id);
    try {
      const CompileResponse r = service_->Compile(request);
      book_->Check(slot, r.result, outcome_ok(r.outcome));
      return r.result;
    } catch (const std::exception&) {
      book_->Fail();
      return nullptr;
    }
  }

  fs::path dir_;
  std::unique_ptr<serve::CompileService> service_;
  std::map<std::size_t, std::size_t> respect_slot_;  // pair -> slot
  std::uint64_t issued_ = 0;
};

// ── cold_refill ─────────────────────────────────────────────────────────────

/// Each round rolls the RL weights (same weights, new version), refills
/// every RESPECT request through one grouped CompileBatch on one worker,
/// then flushes and compacts the store.
class ColdRefill final : public Workload {
 public:
  static constexpr std::size_t kRefillGraphs = 8;
  static constexpr int kRefillNodes = 782;

  explicit ColdRefill(const Context& ctx) : Workload(ctx) {
    const std::vector<graph::Dag>& table = TableIGraphs();
    std::mt19937_64 rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 2);
    std::vector<std::size_t> pair_of_slot;
    for (std::size_t m = 0; m < table.size(); ++m) {
      for (const int stages : kStageCounts) {
        requests_.push_back(MakeRequest(table[m], stages, kRespect));
        pair_of_slot.push_back(PairIndex(m, stages));
        // A sampled DAG of the same node count joins the same decode group.
        requests_.push_back(MakeRequest(
            SampleGraph(table[m].NodeCount(), rng,
                        "refill-" + std::to_string(m) + "-" +
                            std::to_string(stages)),
            stages, kRespect));
        pair_of_slot.push_back(kNumPairs);
      }
    }
    PinReferences(pair_of_slot, std::vector<const char*>(requests_.size(),
                                                         kRespect));
    for (std::size_t i = 0; i < requests_.size(); ++i) round_.push_back(i);
    for (std::size_t k = 0; k < kRefillGraphs; ++k) {
      refill_.push_back(MakeRequest(
          SampleGraph(kRefillNodes, rng, "group-" + std::to_string(k)), 4,
          kRespect));
    }
    dir_ = ctx.work_dir / "refill-store";
  }

  void Setup() override {
    service_.reset();
    fs::remove_all(dir_);
    service_ = MakeService(ctx_, requests_.size(), dir_);
    agent_ = std::make_shared<rl::RlScheduler>(ctx_.options.net);
    RoundLog warm;
    Round(warm);
  }

  std::size_t Round(RoundLog& log) override {
    service_->ReplaceRl(agent_);
    const std::uint64_t id = NextRequestId();
    for (CompileRequest& r : requests_) r.trace_id = id;  // one flow
    const Clock::time_point start = Clock::now();
    std::vector<CompileResponse> responses;
    {
      const Scope span(log.spans, RequestSpan(), -1, id);
      try {
        responses = service_->CompileBatch(requests_);
      } catch (const std::exception&) {
      }
    }
    const double seconds = SecondsSince(start);
    issued_ += requests_.size();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      log.latencies.push_back(seconds);
      if (responses.size() != requests_.size()) {
        book_->Fail();
        continue;
      }
      book_->Check(i, responses[i].result,
                   responses[i].outcome == CacheOutcome::kMiss);
      log.queue_waits.push_back(responses[i].queue_wait_seconds);
    }
    if (responses.size() == requests_.size()) last_ = std::move(responses);
    const Clock::time_point flush = Clock::now();
    {
      const Scope span(log.spans, "serve.FlushStore", -1, id);
      service_->FlushStore();
    }
    log.flushes.push_back(SecondsSince(flush));
    (void)service_->CompactStore();  // drop the superseded version's spills
    return requests_.size();
  }

  serve::ResultPtr ServedRespect(std::size_t pair) override {
    // Table I slots come first in each (model, stages) couple.
    return last_.empty() ? nullptr : last_[2 * pair].result;
  }

  Counters Snapshot() const override {
    const serve::ServiceMetrics m = service_->Metrics();
    return {issued_, m.hits, m.disk_hits, m.single_flight_waits, m.misses,
            m.batch_solved, m.batch_groups, 0};
  }

  void MeasureLayers(LayerRun& run) override;

  const char* RequestSpan() const override { return "refill.CompileBatch"; }

 private:
  fs::path dir_;
  std::unique_ptr<serve::CompileService> service_;
  std::shared_ptr<rl::RlScheduler> agent_;
  std::vector<CompileResponse> last_;
  std::vector<CompileRequest> refill_;  // same-size 782-node group
  std::uint64_t issued_ = 0;
};

void ColdRefill::MeasureLayers(LayerRun& run) {
  MeasureKeyLayers(run, *service_);
  // The memory tier holds the last round's results.
  MeasureHitSelf(run, *service_,
                 std::vector<CompileRequest>(requests_.begin(),
                                             requests_.begin() + 8));

  // Store: spill writes into a scratch store, reads over the live one.
  const std::vector<graph::CanonicalHash> keys = KeysOf(*service_, requests_);
  MeasureStoreReads(run, dir_, keys);
  {
    const fs::path put_dir = ctx_.work_dir / "put-store";
    fs::remove_all(put_dir);
    serve::store::DiskStore store({.directory = put_dir.string()});
    const std::uint64_t version = service_->Compiler().RlVersion();
    run.Time("store.Put", "store.put_us", 1e6, last_.size(),
             [&](std::size_t i) {
               store.Put({.key = keys[i], .rl_dependent = true,
                          .rl_version = version, .engine_name = kRespect},
                         last_[i].result);
             }, 300);
    double bytes = 0.0;
    for (const graph::CanonicalHash& key : keys) {
      bytes += static_cast<double>(fs::file_size(store.PathFor(key)));
    }
    run.values["store.spill_bytes"] = {bytes / keys.size(), keys.size(),
                                       "mean"};
  }

  // deploy: packaging the served schedules.
  run.Time("deploy.BuildPackage", "deploy.package_us", 1e6, last_.size(),
           [&](std::size_t i) {
             Sink(deploy::BuildPackage(requests_[i].dag,
                                       last_[i].result->schedule)
                      .segments.size());
           });
  double package_bytes = 0.0;
  for (const CompileResponse& r : last_) {
    std::ostringstream os;
    deploy::WritePackage(r.result->package, os);
    package_bytes += static_cast<double>(os.str().size());
  }
  run.values["deploy.package_bytes"] = {package_bytes / last_.size(),
                                        last_.size(), "mean"};

  // rl: embedding, per-graph and grouped decode over the distinct DAGs (one
  // per (model, sample); stage counts share a decode).
  const rl::PtrNetAgent& agent = agent_->Agent();
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < requests_.size(); i += 2) {
    if (requests_[i].num_stages == 4) distinct.push_back(i);
  }
  for (std::size_t i = 1; i < requests_.size(); i += 2) distinct.push_back(i);
  run.Time("rl.EmbedGraph", "rl.embed_us", 1e6, distinct.size(),
           [&](std::size_t k) {
             Sink(rl::EmbedGraph(requests_[distinct[k]].dag,
                                 ctx_.options.net.embedding)
                      .Size());
           });
  std::vector<std::vector<graph::NodeId>> sequences(requests_.size());
  run.Time("rl.DecodeGreedy", "rl.decode_us", 1e6, distinct.size(),
           [&](std::size_t k) {
             sequences[distinct[k]] =
                 agent.DecodeGreedy(requests_[distinct[k]].dag);
           }, distinct.size(), 0.0);
  std::vector<double>& per_node = run.samples["rl.decode_us_per_node"];
  const std::vector<double> decode_us =
      std::move(run.samples["rl.decode_us"]);
  run.samples.erase("rl.decode_us");
  for (std::size_t k = 0; k < decode_us.size(); ++k) {
    per_node.push_back(decode_us[k] /
                       requests_[distinct[k]].dag.NodeCount());
  }
  // Groups: each Table I model with the sampled DAGs of its node count.
  std::vector<std::vector<const graph::Dag*>> groups;
  for (std::size_t m = 0; m < requests_.size(); m += 6) {
    groups.push_back({&requests_[m].dag, &requests_[m + 1].dag,
                      &requests_[m + 3].dag, &requests_[m + 5].dag});
  }
  rl::BatchDecodeWorkspace ws;
  std::vector<double>& batch_per_node =
      run.samples["rl.decode_batch_us_per_node"];
  run.Time("rl.DecodeGreedyBatch", "rl.decode_batch_us", 1e6, groups.size(),
           [&](std::size_t g) {
             Sink(agent.DecodeGreedyBatch(groups[g], ws).size());
           }, groups.size(), 0.0);
  const std::vector<double> batch_us =
      std::move(run.samples["rl.decode_batch_us"]);
  run.samples.erase("rl.decode_batch_us");
  for (std::size_t g = 0; g < batch_us.size(); ++g) {
    double nodes = 0.0;
    for (const graph::Dag* d : groups[g]) nodes += d->NodeCount();
    batch_per_node.push_back(batch_us[g] / nodes);
  }

  // sched: post-inference repair of the raw packed decode of each request.
  std::vector<sched::Schedule> raw(requests_.size());
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const std::size_t source = i % 2 == 0 ? (i / 6) * 6 : i;  // same DAG
    raw[i] = sched::PackSequence(requests_[i].dag, sequences[source],
                                 requests_[i].num_stages);
  }
  run.Time("sched.PostProcess", "sched.postprocess_us", 1e6,
           requests_.size(), [&](std::size_t i) {
             sched::PipelineConstraints constraints;
             constraints.num_stages = requests_[i].num_stages;
             sched::Schedule schedule = raw[i];
             sched::PostProcess(requests_[i].dag, constraints, schedule);
             Sink(schedule.stage.size());
           });

  // serve: one grouped vs one ungrouped refill of same-size graphs.
  std::vector<double> grouped;
  std::vector<double> ungrouped;
  auto with = MakeService(ctx_, 64, {}, /*batch_decode=*/true);
  auto without = MakeService(ctx_, 64, {}, /*batch_decode=*/false);
  for (int rep = 0; rep < 3; ++rep) {
    for (auto* svc : rep % 2 == 0 ? std::array{with.get(), without.get()}
                                  : std::array{without.get(), with.get()}) {
      svc->ReplaceRl(agent_);
      const char* span = svc == with.get() ? "serve.CompileBatch.grouped"
                                           : "serve.CompileBatch.ungrouped";
      run.Time(span, span, 1.0, 1, [&](std::size_t) {
        for (const CompileResponse& r : svc->CompileBatch(refill_)) {
          Sink(r.result->schedule.stage.size());
        }
      }, 1, 0.0);
      const double seconds = run.samples[span].back();
      (svc == with.get() ? grouped : ungrouped)
          .push_back(static_cast<double>(refill_.size()) / seconds);
    }
  }
  run.samples.erase("serve.CompileBatch.grouped");
  run.samples.erase("serve.CompileBatch.ungrouped");
  run.values["serve.refill_grouped_gps"] = {Median(grouped), grouped.size(),
                                            "median"};
  run.values["serve.refill_ungrouped_gps"] = {Median(ungrouped),
                                              ungrouped.size(), "median"};
}

// ── fleet_forward ───────────────────────────────────────────────────────────

/// Two loopback shards in this process, each fronting its own 1-worker
/// service; one client per shard sends every request to the shard that
/// does not own its key, so every request is forwarded to a warm owner.
class FleetForward final : public Workload {
 public:
  static constexpr std::size_t kRoundRequests = 150;

  explicit FleetForward(const Context& ctx) : Workload(ctx) {
    const std::vector<graph::Dag>& table = TableIGraphs();
    std::vector<std::size_t> pair_of_slot;
    std::vector<const char*> engine_of_slot;
    for (std::size_t j = 0; j < 6; ++j) {
      for (std::size_t m = 0; m < table.size(); ++m) {
        const int stages = kStageCounts[j / 2];
        const char* engine = j % 2 == 0 ? kRespect : kCompiler;
        requests_.push_back(MakeRequest(table[m], stages, engine));
        pair_of_slot.push_back(PairIndex(m, stages));
        engine_of_slot.push_back(engine);
        if (engine == kRespect) {
          respect_slot_[PairIndex(m, stages)] = requests_.size() - 1;
        }
      }
    }
    PinReferences(pair_of_slot, engine_of_slot);
    std::mt19937_64 rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 3);
    round_ = ZipfRound(requests_.size(), kZipfExponent, kRoundRequests, rng);
  }

  ~FleetForward() override { Teardown(); }

  void Setup() override {
    Teardown();
    net::FleetServerOptions server_options;
    server_options.num_threads = 4;
    for (int k = 0; k < 2; ++k) {
      services_[k] = MakeService(ctx_, 2 * requests_.size(), {});
      servers_[k] =
          std::make_unique<net::FleetServer>(*services_[k], server_options);
    }
    const std::vector<std::string> members = {servers_[0]->Address(),
                                              servers_[1]->Address()};
    for (auto& server : servers_) server->SetMembers(members, server->Address());
    const net::ConsistentHashRing ring(members);
    owner_.clear();
    for (const CompileRequest& r : requests_) {
      owner_.push_back(ring.OwnerOf(services_[0]->KeyFor(r).lo) == members[0]
                           ? 0
                           : 1);
    }
    for (int k = 0; k < 2; ++k) {
      clients_[k] = std::make_unique<net::FleetClient>(members[k]);
    }
    for (std::size_t i = 0; i < requests_.size(); ++i) {  // warm at owners
      Issue(i, owner_[i], CacheOutcome::kMiss, nullptr);
    }
    RoundLog warm;
    Round(warm);
  }

  std::size_t Round(RoundLog& log) override {
    for (const std::uint32_t slot : round_) {
      const Clock::time_point start = Clock::now();
      Issue(slot, 1 - owner_[slot], CacheOutcome::kHit, log.spans);
      log.latencies.push_back(SecondsSince(start));
    }
    return round_.size();
  }

  serve::ResultPtr ServedRespect(std::size_t pair) override {
    const std::size_t slot = respect_slot_.at(pair);
    return Issue(slot, 1 - owner_[slot], CacheOutcome::kHit, nullptr).result;
  }

  Counters Snapshot() const override {
    Counters c;
    c.requests = forwarded_requests_;
    for (int k = 0; k < 2; ++k) {
      const serve::ServiceMetrics m = services_[k]->Metrics();
      c.hits += m.hits;
      c.disk_hits += m.disk_hits;
      c.collapsed += m.single_flight_waits;
      c.misses += m.misses;
      c.batch_solved += m.batch_solved;
      c.batch_groups += m.batch_groups;
      c.forwarded += servers_[k]->Metrics().forwarded;
    }
    return c;
  }

  void MeasureLayers(LayerRun& run) override {
    MeasureKeyLayers(run, *services_[0]);
    // Every key is memory-resident at its owner.
    std::vector<CompileRequest> owned;
    for (std::size_t i = 0; i < requests_.size() && owned.size() < 8; ++i) {
      if (owner_[i] == 0) owned.push_back(requests_[i]);
    }
    MeasureHitSelf(run, *services_[0], owned);

    // net: the wire codec on this workload's requests and served answers.
    std::vector<CompileResponse> responses;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      responses.push_back(Issue(i, 1 - owner_[i], CacheOutcome::kHit, nullptr));
    }
    std::vector<std::string> request_bytes(requests_.size());
    std::vector<std::string> response_bytes(requests_.size());
    run.Time("net.EncodeCompileRequest", "net.encode_request_us", 1e6,
             requests_.size(), [&](std::size_t i) {
               request_bytes[i] = net::EncodeCompileRequest(requests_[i], false);
             });
    run.Time("net.DecodeCompileRequest", "net.decode_request_us", 1e6,
             requests_.size(), [&](std::size_t i) {
               Sink(net::DecodeCompileRequest(request_bytes[i])
                        .request.num_stages);
             });
    run.Time("net.EncodeCompileResponse", "net.encode_response_us", 1e6,
             responses.size(), [&](std::size_t i) {
               response_bytes[i] = net::EncodeCompileResponse(responses[i]);
             });
    run.Time("net.DecodeCompileResponse", "net.decode_response_us", 1e6,
             responses.size(), [&](std::size_t i) {
               Sink(net::DecodeCompileResponse(response_bytes[i])
                        .result->schedule.stage.size());
             });
    double bytes = 0.0;
    for (const std::string& b : request_bytes) bytes += b.size();
    run.values["net.request_bytes"] = {bytes / request_bytes.size(),
                                       request_bytes.size(), "mean"};
    run.Time("net.Ping", "net.ping_us", 1e6, 1,
             [&](std::size_t) { clients_[0]->Ping(); });
  }

  const char* RequestSpan() const override { return "fleet.Compile"; }

 private:
  CompileResponse Issue(std::size_t slot, int shard, CacheOutcome expected,
                        SpanLog* spans) {
    CompileRequest& request = requests_[slot];
    request.trace_id = NextRequestId();
    if (shard != owner_[slot]) ++forwarded_requests_;
    const obs::ScopedTraceId trace(request.trace_id);
    const Scope span(spans, RequestSpan(), -1, request.trace_id);
    try {
      CompileResponse r = clients_[shard]->Compile(request);
      book_->Check(slot, r.result, r.outcome == expected);
      return r;
    } catch (const std::exception&) {
      book_->Fail();
      return {};
    }
  }

  void Teardown() {
    for (auto& client : clients_) client.reset();
    for (auto& server : servers_) {
      if (server) server->Stop();
      server.reset();
    }
    for (auto& service : services_) service.reset();
  }

  std::unique_ptr<serve::CompileService> services_[2];
  std::unique_ptr<net::FleetServer> servers_[2];
  std::unique_ptr<net::FleetClient> clients_[2];
  std::vector<int> owner_;
  std::map<std::size_t, std::size_t> respect_slot_;
  std::uint64_t forwarded_requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Context& ctx) {
  if (name == "zipf_hits") return std::make_unique<ZipfHits>(ctx);
  if (name == "cold_refill") return std::make_unique<ColdRefill>(ctx);
  if (name == "fleet_forward") return std::make_unique<FleetForward>(ctx);
  return nullptr;
}

}  // namespace perfbench

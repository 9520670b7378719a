// Domain example 5: `serve_cli` — CompileService under a synthetic request
// stream, the serving shape of the ROADMAP's north star.
//
//   $ ./build/examples/serve_cli [requests] [models] [stages] [engine]
//       [--priority=interactive|normal|batch] [--deadline-ms=N]
//       [--threads=N] [--mixed] [--max-batch-inflight=N]
//       [--cache-dir=DIR] [--cache-ttl-s=N] [--profile=NAME]
//       [--tenant=NAME] [--fleet[=N]] [--failpoint=SITE=ACTION;...]
//       [--budget-ms=N] [--trace-out=FILE] [--metrics-out=FILE|-]
//       [--sim-trace-out=FILE]
//
// Default mode samples `models` distinct synthetic DAGs, then fires
// `requests` async CompileRequests with a skewed popularity distribution
// (hot graphs repeat, as model-serving traffic does) on the chosen priority
// lane, with an optional per-request deadline.  Three of every four
// requests go to `engine`; the rest exercise the RL engine, and halfway
// through the stream the RL weights are swapped with ReplaceRl — so the
// final metrics show cache hits, single-flight collapses, and the RL-only
// invalidation sweep in one run.
//
// --mixed instead drives the priority queue the way real serving mixes
// traffic: a batch flood (3 of 4 requests, batch lane, cache bypass so
// every one solves) with interactive requests interleaved (1 of 4,
// interactive lane, the --deadline-ms budget if given), then prints
// per-lane queue-wait and completion-latency p50/p99 — the number that
// shows interactive requests overtaking the flood.
// --max-batch-inflight=N additionally caps concurrent batch solves, so the
// flood can never hold every worker.
//
// --cache-dir=DIR plugs in the persistent schedule store (spill files under
// DIR, --cache-ttl-s bounds their age).  With --fleet[=N] it instead names
// the fleet's workspace, which must be empty or absent (see RunFleet).
//
// The single-process serving contracts — zero-solve disk warm restart,
// batched miss-storm refill, per-profile cache keys, weighted-fair tenants,
// v1 spill migration, valid-or-typed settlement under injected faults —
// are asserted by the store_test, serve_test, engines_test and chaos_test
// suites.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "core/failpoint.h"
#include "engines/registry.h"
#include "graph/sampler.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "obs/chrometrace.h"
#include "obs/trace.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "tpu/device_profile.h"
#include "tpu/sim.h"

namespace {

using namespace respect;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [requests=200] [models=6] [stages=4 (1..%d)] "
      "[engine=anneal]\n"
      "          [--priority=interactive|normal|batch] [--deadline-ms=N]\n"
      "          [--threads=N] [--mixed] [--max-batch-inflight=N]\n"
      "          [--cache-dir=DIR] [--cache-ttl-s=N]\n"
      "          [--profile=NAME] [--tenant=NAME] [--fleet[=N]]\n"
      "          [--failpoint=SITE=ACTION;...] [--budget-ms=N]\n"
      "          [--trace-out=FILE] [--metrics-out=FILE|-] "
      "[--sim-trace-out=FILE]\n"
      "  --profile targets a named device profile (",
      argv0, examples::kMaxStages);
  bool first = true;
  for (const std::string_view name : tpu::ProfileNames()) {
    std::fprintf(stderr, "%s%.*s", first ? "" : ", ",
                 static_cast<int>(name.size()), name.data());
    first = false;
  }
  std::fprintf(stderr,
               ")\n  --tenant tags requests for weighted-fair queueing\n"
               "  --fleet[=N] spawns N loopback shard processes (default 3) "
               "behind the wire\n  protocol and checks the routing-dedup, "
               "kill-survival, and peer-warm-restart\n  invariants; its "
               "--cache-dir must be empty or absent\n  --failpoint arms "
               "fault sites; --budget-ms bounds each engine solve attempt\n"
               "  --trace-out arms per-request span tracing and writes a "
               "chrometrace JSON\n  (in --fleet mode: one merged trace, one "
               "pid track per shard); --metrics-out\n  writes the unified "
               "registry as Prometheus text ('-' = stdout);\n  "
               "--sim-trace-out writes a served schedule's simulated "
               "per-stage timeline\n");
  return 2;
}

using serve::Percentile;

struct LaneSamples {
  std::vector<double> wait_seconds;
  std::vector<double> total_seconds;  // queue wait + own solve
  int completed = 0;
  int expired = 0;
};

void PrintLane(const char* label, const LaneSamples& lane) {
  std::printf(
      "  %-11s %4d done  %3d expired  wait p50 %7.2f ms  p99 %7.2f ms  "
      "latency p50 %7.2f ms  p99 %7.2f ms\n",
      label, lane.completed, lane.expired,
      Percentile(lane.wait_seconds, 0.50) * 1e3,
      Percentile(lane.wait_seconds, 0.99) * 1e3,
      Percentile(lane.total_seconds, 0.50) * 1e3,
      Percentile(lane.total_seconds, 0.99) * 1e3);
}

using examples::PrintServiceMetrics;  // the shared dump in cli_util.h

// ── Fleet mode: N serve_cli processes behind net::FleetServer ──────────────

/// Atomic small-file write (tmp + rename): readers polling for the file
/// never observe a partial write.
void WriteFileAtomic(const std::filesystem::path& path,
                     const std::string& contents) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << contents;
  }
  std::filesystem::rename(tmp, path);
}

bool WaitForFile(const std::filesystem::path& path, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    if (std::filesystem::exists(path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::filesystem::exists(path);
}

/// Child process body behind the hidden --fleet-serve flag: one
/// CompileService + FleetServer shard.  Publishes its bound address as
/// addr-<id>.e<epoch>, joins the ring once members.txt appears, serves
/// until the parent drops the stop file (or the shard is orphaned), then
/// flushes its spills and exits.  The cache directory is per (shard,
/// epoch) so a restarted shard comes up cold on purpose — its warmth must
/// come from peer spill fetch.
int RunFleetShard(const CompilerOptions& options,
                  serve::ServiceOptions service_options,
                  const std::string& fleet_dir, int shard_id, int epoch,
                  int port, bool trace_arm) {
  namespace fs = std::filesystem;
  const fs::path dir(fleet_dir);
  const fs::path cache_dir = dir / ("shard-" + std::to_string(shard_id)) /
                             ("cache-e" + std::to_string(epoch));
  fs::create_directories(cache_dir);
  service_options.cache_dir = cache_dir.string();
  // Arm span tracing before any request arrives; the parent drains the
  // ring over the wire (kTraceDump) before teardown.
  if (trace_arm) obs::Tracer::Global().Start();
  serve::CompileService service(options, service_options);
  net::FleetServerOptions server_options;
  server_options.port = port;
  // pid 0 is the parent's track in the merged chrometrace; shards are 1..N.
  server_options.shard_id = static_cast<std::uint32_t>(shard_id) + 1;
  net::FleetServer server(service, server_options);

  WriteFileAtomic(dir / ("addr-" + std::to_string(shard_id) + ".e" +
                         std::to_string(epoch)),
                  server.Address() + "\n");

  const fs::path members_path = dir / "members.txt";
  if (!WaitForFile(members_path, 20000)) {
    std::fprintf(stderr, "[shard %d] members.txt never appeared\n", shard_id);
    return 1;
  }
  std::vector<std::string> members;
  {
    std::ifstream in(members_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) members.push_back(line);
    }
  }
  server.SetMembers(members, server.Address());
  // Readiness ack: the parent must not drive traffic until every shard has
  // installed the ring — a pre-ring request is always served locally, which
  // silently defeats the forward-to-owner dedup the fleet phase asserts.
  WriteFileAtomic(dir / ("ready-" + std::to_string(shard_id) + ".e" +
                         std::to_string(epoch)),
                  "ready\n");

  const fs::path stop_path = dir / "stop";
  while (!fs::exists(stop_path) && ::getppid() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  service.FlushStore();
  return 0;
}

pid_t SpawnShard(const std::string& fleet_dir, int shard_id, int epoch,
                 int port, bool trace_arm) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<std::string> args = {
      "/proc/self/exe",
      "--fleet-serve",
      "--fleet-dir=" + fleet_dir,
      "--fleet-id=" + std::to_string(shard_id),
      "--fleet-epoch=" + std::to_string(epoch),
  };
  if (port > 0) args.push_back("--fleet-port=" + std::to_string(port));
  if (trace_arm) args.push_back("--fleet-trace");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv("/proc/self/exe", argv.data());
  std::perror("execv");
  ::_exit(127);
}

/// One compile against the fleet with transport failover: start at
/// `start`, walk the membership on NetError/WireError (reconnecting lazily
/// through `clients`).  Typed service errors propagate to the caller —
/// they are settled outcomes, not transport failures.
serve::CompileResponse FleetCompile(
    std::vector<std::unique_ptr<net::FleetClient>>& clients,
    const std::vector<std::string>& members, int start,
    const serve::CompileRequest& request) {
  net::FleetClientOptions client_options;
  client_options.connect_timeout_ms = 1000;
  client_options.io_timeout_ms = 30000;
  const int n = static_cast<int>(members.size());
  for (int attempt = 0; attempt < n; ++attempt) {
    const int shard = (start + attempt) % n;
    try {
      if (clients[shard] == nullptr) {
        clients[shard] =
            std::make_unique<net::FleetClient>(members[shard], client_options);
      }
      return clients[shard]->Compile(request);
    } catch (const net::NetError&) {
      clients[shard].reset();  // dead shard: fail over to the next member
    } catch (const net::WireError&) {
      clients[shard].reset();
    }
  }
  throw net::NetError("fleet compile: no shard reachable");
}

/// Parent orchestrator behind --fleet=N.  Three phases:
///   1. Healthy: a skewed stream round-robined across N shards; asserts
///      fleet-wide engine-solves-per-unique-graph <= 1.1 (forward-to-owner
///      dedups the fleet like one cache).
///   2. Kill: SIGKILL the shard owning the most unique keys mid-replay;
///      every request must still settle valid-or-typed (transport failover
///      + degrade-to-local at the surviving shards).
///   3. Restart: bring the shard back on the same port with a FRESH cache
///      directory and drive the stream through it; asserts it warm-starts
///      entirely via peer spill fetch — zero local engine solves.
/// Exits non-zero when any phase's invariant fails.  A user-supplied
/// `cache_dir` becomes the workspace only when it is empty or absent: a
/// non-empty one is refused with exit 2, so the run never deletes or
/// overwrites files it did not create.
int RunFleet(const CompilerOptions& options,
             const std::vector<graph::Dag>& zoo, int requests, int stages,
             const std::string& engine, int fleet_n,
             const std::string& cache_dir, const std::string& trace_out) {
  const bool tracing = !trace_out.empty();
  namespace fs = std::filesystem;
  fs::path dir(cache_dir);
  if (cache_dir.empty()) {
    // Our own per-pid workspace; a leftover from a recycled pid is stale.
    dir = fs::temp_directory_path() /
          ("respect-fleet-" + std::to_string(::getpid()));
    fs::remove_all(dir);
  } else if (fs::exists(dir) && !fs::is_empty(dir)) {
    std::fprintf(stderr,
                 "error: --fleet needs an empty or absent --cache-dir; %s "
                 "is not empty\n",
                 dir.string().c_str());
    return 2;
  }
  fs::create_directories(dir);
  std::printf("fleet: %d shards, workspace %s\n", fleet_n,
              dir.string().c_str());

  std::vector<pid_t> pids(fleet_n, -1);
  const auto kill_all = [&] {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  };

  for (int i = 0; i < fleet_n; ++i) {
    pids[i] = SpawnShard(dir.string(), i, /*epoch=*/1, /*port=*/0, tracing);
  }

  std::vector<std::string> members(fleet_n);
  std::vector<int> ports(fleet_n, 0);
  for (int i = 0; i < fleet_n; ++i) {
    const fs::path addr_path = dir / ("addr-" + std::to_string(i) + ".e1");
    if (!WaitForFile(addr_path, 15000)) {
      std::fprintf(stderr, "error: shard %d never published its address\n",
                   i);
      kill_all();
      return 1;
    }
    std::ifstream in(addr_path);
    std::getline(in, members[i]);
    ports[i] = net::SplitHostPort(members[i]).second;
  }
  {
    std::string roster;
    for (const std::string& member : members) roster += member + "\n";
    WriteFileAtomic(dir / "members.txt", roster);
  }
  for (int i = 0; i < fleet_n; ++i) {
    if (!WaitForFile(dir / ("ready-" + std::to_string(i) + ".e1"), 15000)) {
      std::fprintf(stderr, "error: shard %d never joined the ring\n", i);
      kill_all();
      return 1;
    }
  }

  // The parent computes keys and ownership with the same code the shards
  // run: a throwaway local service for MakeKey, and the same ring.
  serve::CompileService key_service(options);
  const net::ConsistentHashRing ring(members);

  // Skewed popularity (min of two draws): hot models repeat, as serving
  // traffic does.
  std::mt19937_64 stream_rng(271828);
  std::vector<int> stream;
  stream.reserve(requests);
  for (int r = 0; r < requests; ++r) {
    const int a = static_cast<int>(stream_rng() % zoo.size());
    const int b = static_cast<int>(stream_rng() % zoo.size());
    stream.push_back(std::min(a, b));
  }
  const auto make_request = [&](int model) {
    return serve::CompileRequest{.dag = zoo[model],
                                 .num_stages = stages,
                                 .engine = engine};
  };
  std::map<std::string, int> owner_uniques;  // member -> unique keys owned
  std::vector<int> unique_models;            // first-seen order
  {
    std::map<int, bool> seen;
    for (const int model : stream) {
      if (seen.emplace(model, true).second) {
        unique_models.push_back(model);
        owner_uniques[ring.OwnerOf(
            key_service.KeyFor(make_request(model)).lo)]++;
      }
    }
  }
  const std::size_t unique_keys = unique_models.size();

  std::vector<std::unique_ptr<net::FleetClient>> clients(fleet_n);
  int valid = 0;
  int typed = 0;
  int untyped = 0;
  const auto send_one = [&](int start, int model) {
    try {
      serve::CompileRequest request = make_request(model);
      // Mint the trace id client-side: every hop this request takes —
      // entry shard, forward to owner, peer fetch — shares it, which is
      // what makes the merged fleet trace coherent across pid tracks.
      if (obs::Armed()) {
        request.trace_id = obs::Tracer::Global().MintTraceId();
      }
      const obs::ScopedTraceId trace_scope(request.trace_id);
      const serve::CompileResponse response =
          FleetCompile(clients, members, start, request);
      if (response.result != nullptr) {
        ++valid;
      } else {
        ++untyped;
      }
    } catch (const serve::DeadlineExceeded&) {
      ++typed;
    } catch (const serve::Overloaded&) {
      ++typed;
    } catch (const std::invalid_argument&) {
      ++typed;
    } catch (const net::RemoteError&) {
      ++typed;
    } catch (const std::exception& e) {
      ++untyped;
      std::fprintf(stderr, "untyped failure: %s\n", e.what());
    }
  };
  const auto drive = [&](int at_shard_or_rr, bool round_robin,
                         int kill_at_index, int victim) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (kill_at_index >= 0 && static_cast<int>(i) == kill_at_index) {
        std::printf("fleet: SIGKILL shard %d (%s) mid-stream\n", victim,
                    members[victim].c_str());
        ::kill(pids[victim], SIGKILL);
        ::waitpid(pids[victim], nullptr, 0);
        pids[victim] = -1;
      }
      const int start = round_robin ? static_cast<int>(i) % fleet_n
                                    : at_shard_or_rr;
      send_one(start, stream[i]);
    }
  };
  const auto flush_all = [&] {
    for (int i = 0; i < fleet_n; ++i) {
      if (pids[i] <= 0) continue;
      try {
        if (clients[i] == nullptr) {
          clients[i] = std::make_unique<net::FleetClient>(members[i]);
        }
        clients[i]->Flush();
      } catch (const std::exception&) {
        clients[i].reset();
      }
    }
  };
  const auto stats_of = [&](int shard) {
    if (clients[shard] == nullptr) {
      clients[shard] = std::make_unique<net::FleetClient>(members[shard]);
    }
    return clients[shard]->Stats();
  };

  int exit_code = 0;

  // Phase 1 — healthy fleet.
  std::printf("fleet phase 1: %zu requests (%zu unique) round-robin over "
              "%d shards\n",
              stream.size(), unique_keys, fleet_n);
  drive(0, /*round_robin=*/true, /*kill_at_index=*/-1, -1);
  flush_all();
  std::uint64_t total_solves = 0;
  for (int i = 0; i < fleet_n; ++i) {
    try {
      const net::FleetStats stats = stats_of(i);
      std::printf("  shard %d: requests %llu  solves %llu  hits %llu  "
                  "forwarded %llu\n",
                  i, static_cast<unsigned long long>(stats.requests),
                  static_cast<unsigned long long>(stats.engine_solves),
                  static_cast<unsigned long long>(stats.cache_hits),
                  static_cast<unsigned long long>(stats.forwarded));
      total_solves += stats.engine_solves;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: stats from shard %d failed: %s\n", i,
                   e.what());
      kill_all();
      return 1;
    }
  }
  const double solves_per_unique =
      unique_keys == 0 ? 0.0
                       : static_cast<double>(total_solves) /
                             static_cast<double>(unique_keys);
  std::printf("fleet phase 1: %llu engine solves / %zu unique graphs = "
              "%.3f solves-per-unique\n",
              static_cast<unsigned long long>(total_solves), unique_keys,
              solves_per_unique);
  if (solves_per_unique > 1.1) {
    std::fprintf(stderr, "error: fleet solved duplicates (%.3f > 1.1) — "
                 "forward-to-owner dedup is broken\n",
                 solves_per_unique);
    exit_code = 1;
  }

  // Phase 2 — kill the busiest owner mid-stream.
  int victim = 0;
  for (int i = 1; i < fleet_n; ++i) {
    if (owner_uniques[members[i]] > owner_uniques[members[victim]]) {
      victim = i;
    }
  }
  std::printf("fleet phase 2: replay with shard %d (owner of %d unique "
              "keys) killed mid-stream\n",
              victim, owner_uniques[members[victim]]);
  const int before_valid = valid;
  const int before_typed = typed;
  drive(0, /*round_robin=*/true,
        /*kill_at_index=*/static_cast<int>(stream.size()) / 3, victim);
  clients[victim].reset();
  // Settle pass: with the victim down, touch every unique key once more so
  // a surviving shard solves-and-spills any key only the victim had served
  // before the kill.  Without this, a victim-owned key whose stream
  // occurrences all landed pre-kill would exist in no survivor's store —
  // and phase 3's peer warm-up would have nowhere to fetch it from.
  for (std::size_t u = 0; u < unique_models.size(); ++u) {
    send_one(static_cast<int>(u) % fleet_n, unique_models[u]);
  }
  flush_all();
  std::printf("fleet phase 2: %d valid, %d typed, %d untyped after the "
              "kill\n",
              valid - before_valid, typed - before_typed, untyped);
  if (untyped > 0) {
    std::fprintf(stderr, "error: %d request(s) failed without a typed "
                 "error during the kill\n",
                 untyped);
    exit_code = 1;
  }

  // Phase 3 — restart the victim on its old port with a fresh cache dir.
  std::printf("fleet phase 3: restart shard %d on port %d with an empty "
              "cache (epoch 2)\n",
              victim, ports[victim]);
  pids[victim] = SpawnShard(dir.string(), victim, /*epoch=*/2,
                            ports[victim], tracing);
  const fs::path addr2 =
      dir / ("addr-" + std::to_string(victim) + ".e2");
  if (!WaitForFile(addr2, 15000) ||
      !WaitForFile(dir / ("ready-" + std::to_string(victim) + ".e2"),
                   15000)) {
    std::fprintf(stderr, "error: restarted shard %d never came back\n",
                 victim);
    kill_all();
    return 1;
  }
  drive(victim, /*round_robin=*/false, /*kill_at_index=*/-1, -1);
  try {
    const net::FleetStats stats = stats_of(victim);
    std::printf("fleet phase 3: restarted shard solves %llu  peer-hits "
                "%llu  peer-fetches %llu\n",
                static_cast<unsigned long long>(stats.engine_solves),
                static_cast<unsigned long long>(stats.peer_hits),
                static_cast<unsigned long long>(stats.peer_fetches));
    if (stats.engine_solves != 0) {
      std::fprintf(stderr, "error: restarted shard re-solved %llu already-"
                   "solved graphs instead of peer-warming\n",
                   static_cast<unsigned long long>(stats.engine_solves));
      exit_code = 1;
    }
    if (stats.peer_hits == 0) {
      std::fprintf(stderr,
                   "error: restarted shard never peer-warm fetched\n");
      exit_code = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: stats from restarted shard failed: %s\n",
                 e.what());
    exit_code = 1;
  }
  if (untyped > 0) exit_code = 1;

  // Drain every live shard's trace ring over the wire and merge the
  // fragments (plus the parent's own client-side spans) into one trace
  // file — one pid track per shard, pid 0 for the parent.
  if (tracing) {
    std::vector<std::string> fragments;
    fragments.emplace_back();
    obs::AppendChromeTraceEvents(fragments.back(),
                                 obs::Tracer::Global().Drain(), /*pid=*/0);
    for (int i = 0; i < fleet_n; ++i) {
      if (pids[i] <= 0) continue;
      try {
        if (clients[i] == nullptr) {
          clients[i] = std::make_unique<net::FleetClient>(members[i]);
        }
        fragments.push_back(clients[i]->TraceDumpFetch().events_json);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: trace dump from shard %d failed: %s\n",
                     i, e.what());
        clients[i].reset();
      }
    }
    std::ofstream trace_file(trace_out, std::ios::trunc);
    obs::WriteChromeTraceFragments(trace_file, fragments);
    if (trace_file) {
      std::printf("fleet: merged chrometrace written to %s\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      exit_code = 1;
    }
  }

  // Orderly teardown: stop file, bounded wait, SIGKILL stragglers.
  WriteFileAtomic(dir / "stop", "stop\n");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  for (int i = 0; i < fleet_n; ++i) {
    if (pids[i] <= 0) continue;
    while (std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pids[i], nullptr, WNOHANG) != 0) {
        pids[i] = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  kill_all();
  if (exit_code == 0) {
    std::printf("fleet: all invariants held (dedup <= 1.1, valid-or-typed "
                "under kill, peer warm restart)\n");
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 200;
  int num_models = 6;
  int stages = 4;
  std::string engine = "anneal";
  serve::Priority priority = serve::Priority::kNormal;
  int deadline_ms = 0;  // 0 = no deadline
  int threads = 0;      // 0 = ThreadPool::DefaultThreadCount
  bool mixed = false;
  int max_batch_inflight = 0;  // 0 = uncapped
  std::string cache_dir;       // empty = no persistent tier
  int cache_ttl_s = 0;         // 0 = no expiry
  int fleet_n = 0;          // > 0: parent of a --fleet multi-process run
  bool fleet_serve = false;  // hidden: this process is a fleet shard
  std::string fleet_dir;
  int fleet_id = 0;
  int fleet_epoch = 1;
  int fleet_port = 0;
  int budget_ms = 0;        // 0 = no per-attempt solve budget
  std::string failpoints;   // "site=action;..." spec, armed before serving
  std::string profile;  // empty = the default device profile
  std::string tenant;   // empty = the shared default tenant
  std::string trace_out;      // empty = tracing disarmed
  std::string metrics_out;    // Prometheus text; "-" = stdout
  std::string sim_trace_out;  // simulated timeline chrometrace
  bool fleet_trace = false;   // hidden: arm tracing in a fleet shard
  constexpr int kMaxInt = std::numeric_limits<int>::max();

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--priority=", 11) == 0) {
      const auto parsed = serve::ParsePriority(arg + 11);
      if (!parsed) {
        std::fprintf(stderr, "error: bad --priority '%s'\n", arg + 11);
        return Usage(argv[0]);
      }
      priority = *parsed;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      if (!examples::ParseIntInRange(arg + 14, 1, kMaxInt, deadline_ms)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!examples::ParseIntInRange(arg + 10, 1, 1024, threads)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--mixed") == 0) {
      mixed = true;
    } else if (std::strncmp(arg, "--max-batch-inflight=", 21) == 0) {
      if (!examples::ParseIntInRange(arg + 21, 1, 1024,
                                     max_batch_inflight)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      cache_dir = arg + 12;
      if (cache_dir.empty()) {
        std::fprintf(stderr, "error: --cache-dir needs a path\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--cache-ttl-s=", 14) == 0) {
      if (!examples::ParseIntInRange(arg + 14, 1, kMaxInt, cache_ttl_s)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      profile = arg + 10;
      if (!tpu::FindProfile(profile)) {
        std::fprintf(stderr, "error: unknown device profile '%s'\n",
                     profile.c_str());
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--tenant=", 9) == 0) {
      tenant = arg + 9;
    } else if (std::strcmp(arg, "--fleet") == 0) {
      fleet_n = 3;
    } else if (std::strncmp(arg, "--fleet=", 8) == 0) {
      if (!examples::ParseIntInRange(arg + 8, 2, 8, fleet_n)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--fleet-serve") == 0) {
      fleet_serve = true;
    } else if (std::strncmp(arg, "--fleet-dir=", 12) == 0) {
      fleet_dir = arg + 12;
    } else if (std::strncmp(arg, "--fleet-id=", 11) == 0) {
      if (!examples::ParseIntInRange(arg + 11, 0, 255, fleet_id)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fleet-epoch=", 14) == 0) {
      if (!examples::ParseIntInRange(arg + 14, 1, kMaxInt, fleet_epoch)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--fleet-port=", 13) == 0) {
      if (!examples::ParseIntInRange(arg + 13, 1, 65535, fleet_port)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--failpoint=", 12) == 0) {
      failpoints = arg + 12;
      if (failpoints.empty()) {
        std::fprintf(stderr, "error: --failpoint needs a site=action spec\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--budget-ms=", 12) == 0) {
      if (!examples::ParseIntInRange(arg + 12, 1, kMaxInt, budget_ms)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
      if (trace_out.empty()) {
        std::fprintf(stderr, "error: --trace-out needs a path\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out = arg + 14;
      if (metrics_out.empty()) {
        std::fprintf(stderr, "error: --metrics-out needs a path or '-'\n");
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--sim-trace-out=", 16) == 0) {
      sim_trace_out = arg + 16;
      if (sim_trace_out.empty()) {
        std::fprintf(stderr, "error: --sim-trace-out needs a path\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--fleet-trace") == 0) {
      fleet_trace = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    } else {
      switch (positional++) {
        case 0:
          if (!examples::ParseIntInRange(arg, 1, kMaxInt, requests)) {
            return Usage(argv[0]);
          }
          break;
        case 1:
          if (!examples::ParseIntInRange(arg, 1, kMaxInt, num_models)) {
            return Usage(argv[0]);
          }
          break;
        case 2:
          // The sampled DAGs have 40 nodes; the stage cap keeps every
          // request satisfiable (beyond kMaxStages it would fail to pack).
          if (!examples::ParseIntInRange(arg, 1, examples::kMaxStages,
                                         stages)) {
            return Usage(argv[0]);
          }
          break;
        case 3:
          engine = arg;
          break;
        default:
          return Usage(argv[0]);
      }
    }
  }
  if (!engines::EngineRegistry::Global().Contains(engine)) {
    std::fprintf(stderr, "error: unknown engine '%s' (see compiler_cli "
                 "--help for the registry)\n",
                 engine.c_str());
    return Usage(argv[0]);
  }

  std::mt19937_64 rng(97);
  std::vector<graph::Dag> zoo;
  zoo.reserve(num_models);
  for (int i = 0; i < num_models; ++i) {
    zoo.push_back(graph::SampleTrainingDag(40, rng));
    zoo.back().SetName("model-" + std::to_string(i));
  }

  CompilerOptions options;
  options.net.hidden_dim = 32;
  options.exact_max_expansions = 50'000;
  options.exact_time_limit_seconds = 0.2;
  serve::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.max_batch_inflight = max_batch_inflight;
  service_options.cache_dir = cache_dir;
  service_options.cache_ttl_seconds = cache_ttl_s;
  service_options.default_solve_budget_seconds = budget_ms * 1e-3;

  if (fleet_serve) {
    // Hidden shard mode, exec'd by the --fleet parent.  It runs the exact
    // same option/zoo construction as the parent above, so cache keys and
    // ring placement agree across all processes.
    if (fleet_dir.empty()) {
      std::fprintf(stderr, "error: --fleet-serve requires --fleet-dir\n");
      return 2;
    }
    try {
      return RunFleetShard(options, service_options, fleet_dir, fleet_id,
                           fleet_epoch, fleet_port, fleet_trace);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[shard %d] fatal: %s\n", fleet_id, e.what());
      return 1;
    }
  }

  if (!failpoints.empty()) {
#if defined(RESPECT_FAILPOINTS) && RESPECT_FAILPOINTS
    if (!respect::core::failpoint::ConfigureFromSpec(failpoints)) {
      std::fprintf(stderr, "error: malformed --failpoint spec '%s'\n",
                   failpoints.c_str());
      return Usage(argv[0]);
    }
    std::printf("failpoints armed: %s\n", failpoints.c_str());
#else
    std::fprintf(stderr, "error: --failpoint requires a build with "
                 "RESPECT_FAILPOINTS=ON\n");
    return 1;
#endif
  }

  // Arm the tracer before any service exists so admission mints trace ids
  // from the very first request.  (Fleet shards arm their own rings via the
  // hidden --fleet-trace flag; the parent's ring records the client side.)
  if (!trace_out.empty()) obs::Tracer::Global().Start();

  if (fleet_n > 0) {
    try {
      return RunFleet(options, zoo, requests, stages, engine, fleet_n,
                      cache_dir, trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: fleet run failed: %s\n", e.what());
      return 1;
    }
  }

  // Construction can fail when --cache-dir is unusable (DiskStore throws).
  std::unique_ptr<serve::CompileService> service_holder;
  try {
    service_holder =
        std::make_unique<serve::CompileService>(options, service_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot start service: %s\n", e.what());
    return 1;
  }
  serve::CompileService& service = *service_holder;

  const auto deadline_for = [&](bool apply) {
    return apply && deadline_ms > 0
               ? std::optional<std::chrono::steady_clock::time_point>(
                     serve::DeadlineIn(deadline_ms * 1e-3))
               : std::nullopt;
  };

  std::vector<std::pair<serve::Priority, serve::CompileService::Ticket>>
      tickets;
  tickets.reserve(requests);
  std::vector<LaneSamples> lanes(serve::kNumPriorityLanes);
  const auto start = std::chrono::steady_clock::now();

  const auto submit_mixed = [&] {
    // Batch flood + interactive trickle.  The flood bypasses the cache so
    // every batch request really occupies a worker — the interactive lane
    // has a backlog to overtake.
    std::printf("mixed traffic: %d requests over %d models, %d stages, "
                "engine %s (3:1 batch:interactive%s)\n",
                requests, num_models, stages, engine.c_str(),
                deadline_ms > 0 ? ", interactive deadline applied" : "");
    for (int r = 0; r < requests; ++r) {
      const bool interactive = r % 4 == 3;
      const std::size_t pick =
          std::min(rng() % zoo.size(), rng() % zoo.size());
      serve::CompileRequest request{
          .dag = zoo[pick],
          .num_stages = stages,
          .engine = engine,
          .priority = interactive ? serve::Priority::kInteractive
                                  : serve::Priority::kBatch,
          .deadline = deadline_for(interactive),
          .cache_policy = interactive ? serve::CachePolicy::kUse
                                      : serve::CachePolicy::kBypass,
          .profile = profile,
          .tenant = tenant};
      tickets.emplace_back(request.priority,
                           service.Submit(std::move(request)));
    }
  };

  const auto submit_stream = [&] {
    std::printf("serving %d requests over %d models, %d stages, engine %s, "
                "%s lane (1 in 4 requests uses the RL engine)\n",
                requests, num_models, stages, engine.c_str(),
                std::string(PriorityName(priority)).c_str());
    for (int r = 0; r < requests; ++r) {
      if (r == requests / 2) {
        // Mid-stream weight rollout: RL-engine entries invalidate, every
        // deterministic-engine entry stays warm.
        for (auto& [lane, ticket] : tickets) {
          try {
            (void)ticket.Wait();
          } catch (const serve::DeadlineExceeded&) {
          }
        }
        service.ReplaceRl(std::make_shared<rl::RlScheduler>(options.net));
        std::printf("  ... ReplaceRl at request %d (invalidations so far: "
                    "%llu)\n",
                    r,
                    static_cast<unsigned long long>(
                        service.Metrics().invalidations));
      }
      // Skewed popularity: the minimum of two uniform draws favours the
      // first (hot) models, approximating serving traffic.
      const std::size_t pick =
          std::min(rng() % zoo.size(), rng() % zoo.size());
      serve::CompileRequest request{
          .dag = zoo[pick],
          .num_stages = stages,
          .engine = (r % 4 == 3) ? std::string("respect") : engine,
          .priority = priority,
          .deadline = deadline_for(true),
          .profile = profile,
          .tenant = tenant};
      tickets.emplace_back(request.priority,
                           service.Submit(std::move(request)));
    }
  };

  // One try around submission and draining: a non-deadline failure anywhere
  // in the stream (solve failure mid-rollout, unsatisfiable request) reports
  // and exits instead of escaping main.
  try {
    if (mixed) {
      submit_mixed();
    } else {
      submit_stream();
    }
    for (auto& [lane, ticket] : tickets) {
      LaneSamples& samples = lanes[static_cast<std::size_t>(lane)];
      try {
        const serve::CompileResponse& response = ticket.WaitResponse();
        samples.wait_seconds.push_back(response.queue_wait_seconds);
        samples.total_seconds.push_back(response.queue_wait_seconds +
                                        response.solve_seconds);
        ++samples.completed;
      } catch (const serve::DeadlineExceeded&) {
        ++samples.expired;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: compile request failed: %s\n", e.what());
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("done in %.3f s (%.0f requests/s)\n", seconds,
              requests / seconds);
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    if (lanes[lane].completed == 0 && lanes[lane].expired == 0) continue;
    PrintLane(
        std::string(PriorityName(static_cast<serve::Priority>(lane))).c_str(),
        lanes[lane]);
  }
  PrintServiceMetrics(service);

  if (!trace_out.empty()) {
    std::ofstream trace_file(trace_out, std::ios::trunc);
    obs::WriteChromeTrace(trace_file, obs::Tracer::Global().Drain(),
                          /*pid=*/0);
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("chrometrace written to %s (dropped events: %llu)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::Global().Dropped()));
  }
  if (!metrics_out.empty() &&
      !examples::WritePrometheusMetrics(service, metrics_out)) {
    return 1;
  }
  if (!sim_trace_out.empty()) {
    // A schedule this run actually served (warm by now), simulated with the
    // per-(inference, stage) timeline recorded, exported as its own trace:
    // one tid track per pipeline stage, transfer/compute sub-events nested.
    try {
      const serve::CompileResponse sampled = service.Compile(
          serve::CompileRequest{.dag = zoo[0],
                                .num_stages = stages,
                                .engine = engine});
      tpu::SimConfig sim_config;
      sim_config.num_inferences = 64;
      sim_config.record_timeline = true;
      const tpu::SimResult sim =
          tpu::SimulatePipeline(sampled.result->package, sim_config);
      const std::vector<tpu::StageCost> costs = tpu::ProfilePackage(
          sampled.result->package, sim_config.device, sim_config.link);
      std::ofstream sim_file(sim_trace_out, std::ios::trunc);
      obs::WriteSimChromeTrace(sim_file, sim.timeline, costs);
      if (!sim_file) {
        std::fprintf(stderr, "error: cannot write sim trace to %s\n",
                     sim_trace_out.c_str());
        return 1;
      }
      std::printf("sim chrometrace written to %s (%zu intervals, "
                  "%.0f us total)\n",
                  sim_trace_out.c_str(), sim.timeline.size(), sim.total_us);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: sim trace export failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}

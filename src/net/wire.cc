#include "net/wire.h"

#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "core/respect.h"
#include "deploy/pod_io.h"
#include "engines/registry.h"
#include "graph/serialize.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "serve/store/spill_codec.h"

namespace respect::net {
namespace {

using deploy::ReadPod;
using deploy::WritePod;

void WriteString(std::ostream& os, std::string_view text) {
  WritePod(os, static_cast<std::uint64_t>(text.size()));
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string ReadString(std::istream& is, std::uint64_t max_bytes,
                       const char* what) {
  std::uint64_t size = 0;
  ReadPod(is, size);
  if (!is || size > max_bytes) {
    throw WireError(std::string("wire: implausible ") + what + " length");
  }
  std::string text(static_cast<std::size_t>(size), '\0');
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (!is) throw WireError(std::string("wire: truncated ") + what);
  return text;
}

std::uint32_t ReadPayloadVersion(std::istream& is, const char* what) {
  std::uint32_t version = 0;
  ReadPod(is, version);
  if (!is || version < 1) {
    throw WireError(std::string("wire: bad ") + what + " payload version");
  }
  return version;
}

/// Engine names arriving off the wire become process-lifetime
/// string_views: known names borrow the registry's canonical storage;
/// unknown ones (a peer running a newer build) are interned here so a
/// CompileResponse never carries a dangling view.
std::string_view InternEngineName(std::string name) {
  if (name.empty()) return {};
  if (const engines::EngineRegistration* known =
          engines::EngineRegistry::Global().Find(name)) {
    return known->name;
  }
  static std::mutex mutex;
  static std::set<std::string>* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return *pool->insert(std::move(name)).first;
}

/// Decoders promise WireError (or a bad_alloc-class failure) and nothing
/// else; this folds the inner parsers' std::runtime_error and friends into
/// that contract.
template <typename Fn>
auto WrapDecode(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    throw WireError(std::string("wire: malformed ") + what + ": " + e.what());
  }
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kCompileRequest: return "compile-request";
    case FrameType::kCompileResponse: return "compile-response";
    case FrameType::kError: return "error";
    case FrameType::kSpillGet: return "spill-get";
    case FrameType::kSpillData: return "spill-data";
    case FrameType::kSpillMiss: return "spill-miss";
    case FrameType::kStatsGet: return "stats-get";
    case FrameType::kStatsData: return "stats-data";
    case FrameType::kFlush: return "flush";
    case FrameType::kFlushOk: return "flush-ok";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kTraceDump: return "trace-dump";
    case FrameType::kTraceData: return "trace-data";
  }
  return "unknown";
}

std::string EncodeFrameHeader(FrameType type, std::string_view payload) {
  const graph::CanonicalHash checksum =
      serve::store::SpillChecksum(payload);  // same digest as the spill tier
  std::ostringstream os(std::ios::binary);
  WritePod(os, kWireMagic);
  WritePod(os, static_cast<std::uint32_t>(type));
  WritePod(os, static_cast<std::uint64_t>(payload.size()));
  WritePod(os, checksum.hi);
  WritePod(os, checksum.lo);
  return std::move(os).str();
}

FrameHeader DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw WireError("wire: truncated frame header");
  }
  std::istringstream is(std::string(bytes.substr(0, kFrameHeaderBytes)),
                        std::ios::binary);
  std::uint32_t magic = 0;
  std::uint32_t raw_type = 0;
  FrameHeader header;
  ReadPod(is, magic);
  ReadPod(is, raw_type);
  ReadPod(is, header.payload_size);
  ReadPod(is, header.checksum.hi);
  ReadPod(is, header.checksum.lo);
  if (!is || magic != kWireMagic) throw WireError("wire: bad frame magic");
  if (raw_type < static_cast<std::uint32_t>(FrameType::kCompileRequest) ||
      raw_type > static_cast<std::uint32_t>(FrameType::kTraceData)) {
    throw WireError("wire: unknown frame type " + std::to_string(raw_type));
  }
  header.type = static_cast<FrameType>(raw_type);
  if (header.payload_size > kMaxFramePayloadBytes) {
    throw WireError("wire: implausible frame payload size");
  }
  return header;
}

void VerifyFramePayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_size) {
    throw WireError("wire: frame payload size mismatch");
  }
  if (serve::store::SpillChecksum(payload) != header.checksum) {
    throw WireError("wire: frame checksum mismatch");
  }
}

void SendFrame(Socket& socket, FrameType type, std::string_view payload) {
  const std::string_view frame_name = FrameTypeName(type);
  OBS_SPAN_DETAIL("net.send_frame", frame_name.data(),
                  static_cast<std::uint32_t>(frame_name.size()));
  std::string frame = EncodeFrameHeader(type, payload);
  frame.append(payload);
  socket.SendAll(frame);
}

std::pair<FrameType, std::string> RecvFrame(Socket& socket) {
  char header_bytes[kFrameHeaderBytes];
  socket.RecvExact(header_bytes, sizeof(header_bytes));
  const FrameHeader header =
      DecodeFrameHeader(std::string_view(header_bytes, sizeof(header_bytes)));
  // The span opens only once the header has landed: a server connection
  // sits in the RecvExact above for its whole idle life, and an idle wait
  // is not frame-decode work.
  const std::string_view frame_name = FrameTypeName(header.type);
  OBS_SPAN_DETAIL("net.recv_frame", frame_name.data(),
                  static_cast<std::uint32_t>(frame_name.size()));
  std::string payload(static_cast<std::size_t>(header.payload_size), '\0');
  if (!payload.empty()) socket.RecvExact(payload.data(), payload.size());
  VerifyFramePayload(header, payload);
  return {header.type, std::move(payload)};
}

std::string EncodeCompileRequest(const serve::CompileRequest& request,
                                 bool no_forward) {
  std::ostringstream os(std::ios::binary);
  WritePod(os, kWireVersion);
  {
    std::ostringstream dag_text;
    graph::WriteDag(request.dag, dag_text);
    WriteString(os, std::move(dag_text).str());
  }
  WritePod(os, static_cast<std::int32_t>(request.num_stages));
  // The engine travels as spelled; an empty or unknown name fails the
  // service's invalid_argument contract on the serving side, same as a
  // local call.
  WriteString(os, request.engine);
  WritePod(os, static_cast<std::uint8_t>(request.priority));
  const bool has_deadline = request.deadline.has_value();
  WritePod(os, static_cast<std::uint8_t>(has_deadline));
  std::int64_t remaining_ms = 0;
  if (has_deadline) {
    // Relative on the wire: steady_clock points are process-local.  An
    // already-expired deadline stays expired (negative remaining).
    remaining_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       *request.deadline - std::chrono::steady_clock::now())
                       .count();
  }
  WritePod(os, remaining_ms);
  WritePod(os, static_cast<std::uint8_t>(request.cache_policy));
  WriteString(os, request.profile);
  WriteString(os, request.tenant);
  WritePod(os, request.solve_budget_seconds);
  WritePod(os, static_cast<std::uint8_t>(no_forward));
  // Appended after the v1 fields (old readers skip it as trailing bytes):
  // the observability trace id, so a forwarded request's spans on the owner
  // shard join the client-minted trace.
  WritePod(os, request.trace_id);
  return std::move(os).str();
}

WireCompileRequest DecodeCompileRequest(std::string_view payload) {
  return WrapDecode("compile request", [&] {
    std::istringstream is(std::string(payload), std::ios::binary);
    ReadPayloadVersion(is, "compile request");
    WireCompileRequest decoded;
    serve::CompileRequest& request = decoded.request;
    {
      const std::string dag_text = ReadString(is, kMaxWireDagBytes, "dag");
      std::istringstream dag_stream(dag_text);
      request.dag = graph::ReadDag(dag_stream);  // throws on malformed text
    }
    std::int32_t num_stages = 0;
    ReadPod(is, num_stages);
    request.num_stages = num_stages;
    request.engine = ReadString(is, kMaxWireStringBytes, "engine name");
    std::uint8_t priority = 0;
    ReadPod(is, priority);
    if (priority >= serve::kNumPriorityLanes) {
      throw WireError("wire: out-of-range priority");
    }
    request.priority = static_cast<serve::Priority>(priority);
    std::uint8_t has_deadline = 0;
    ReadPod(is, has_deadline);
    std::int64_t remaining_ms = 0;
    ReadPod(is, remaining_ms);
    if (has_deadline != 0) {
      request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(remaining_ms);
    }
    std::uint8_t cache_policy = 0;
    ReadPod(is, cache_policy);
    if (cache_policy > static_cast<std::uint8_t>(serve::CachePolicy::kRefresh)) {
      throw WireError("wire: out-of-range cache policy");
    }
    request.cache_policy = static_cast<serve::CachePolicy>(cache_policy);
    request.profile = ReadString(is, kMaxWireStringBytes, "profile");
    request.tenant = ReadString(is, kMaxWireStringBytes, "tenant");
    ReadPod(is, request.solve_budget_seconds);
    std::uint8_t no_forward = 0;
    ReadPod(is, no_forward);
    if (!is) throw WireError("wire: truncated compile request");
    decoded.no_forward = no_forward != 0;
    // Post-v1 appended field: absent from an old writer's frames, in which
    // case the read fails cleanly and the id stays 0 (no trace).
    std::uint64_t trace_id = 0;
    ReadPod(is, trace_id);
    if (is) request.trace_id = trace_id;
    // Trailing bytes are a newer writer's appended fields: ignored by
    // design (the checksum already vouched for them).
    return decoded;
  });
}

std::string EncodeCompileResponse(const serve::CompileResponse& response) {
  std::ostringstream os(std::ios::binary);
  WritePod(os, kWireVersion);
  WritePod(os, static_cast<std::uint8_t>(response.outcome));
  WritePod(os, response.queue_wait_seconds);
  WritePod(os, response.solve_seconds);
  WriteString(os, response.engine_name);
  WriteString(os, response.key_hex);
  WritePod(os, static_cast<std::uint8_t>(response.degraded));
  WriteString(os, response.requested_engine);
  const bool has_result = response.result != nullptr;
  WritePod(os, static_cast<std::uint8_t>(has_result));
  if (has_result) {
    serve::store::WriteResultBody(os, *response.result);
  }
  return std::move(os).str();
}

serve::CompileResponse DecodeCompileResponse(std::string_view payload) {
  return WrapDecode("compile response", [&] {
    std::istringstream is(std::string(payload), std::ios::binary);
    ReadPayloadVersion(is, "compile response");
    serve::CompileResponse response;
    std::uint8_t outcome = 0;
    ReadPod(is, outcome);
    if (outcome > static_cast<std::uint8_t>(serve::CacheOutcome::kPeerHit)) {
      throw WireError("wire: out-of-range cache outcome");
    }
    response.outcome = static_cast<serve::CacheOutcome>(outcome);
    ReadPod(is, response.queue_wait_seconds);
    ReadPod(is, response.solve_seconds);
    response.engine_name =
        InternEngineName(ReadString(is, kMaxWireStringBytes, "engine name"));
    response.key_hex = ReadString(is, kMaxWireStringBytes, "key hex");
    std::uint8_t degraded = 0;
    ReadPod(is, degraded);
    response.degraded = degraded != 0;
    response.requested_engine = InternEngineName(
        ReadString(is, kMaxWireStringBytes, "requested engine"));
    std::uint8_t has_result = 0;
    ReadPod(is, has_result);
    if (!is) throw WireError("wire: truncated compile response");
    if (has_result != 0) {
      response.result = serve::store::ReadResultBody(is);
    }
    return response;
  });
}

std::string EncodeErrorPayload(WireErrorKind kind, std::string_view message) {
  std::ostringstream os(std::ios::binary);
  WritePod(os, kWireVersion);
  WritePod(os, static_cast<std::uint8_t>(kind));
  WriteString(os, message);
  return std::move(os).str();
}

std::pair<WireErrorKind, std::string> DecodeErrorPayload(
    std::string_view payload) {
  return WrapDecode("error payload", [&] {
    std::istringstream is(std::string(payload), std::ios::binary);
    ReadPayloadVersion(is, "error");
    std::uint8_t kind = 0;
    ReadPod(is, kind);
    if (!is || kind > static_cast<std::uint8_t>(WireErrorKind::kInternal)) {
      throw WireError("wire: out-of-range error kind");
    }
    std::string message = ReadString(is, kMaxWireStringBytes, "error message");
    return std::pair<WireErrorKind, std::string>(
        static_cast<WireErrorKind>(kind), std::move(message));
  });
}

void ThrowDecodedError(WireErrorKind kind, const std::string& message) {
  switch (kind) {
    case WireErrorKind::kInvalidArgument:
      throw std::invalid_argument(message);
    case WireErrorKind::kDeadlineExceeded:
      throw serve::DeadlineExceeded(message);
    case WireErrorKind::kOverloaded:
      throw serve::Overloaded(message);
    case WireErrorKind::kInternal:
      break;
  }
  throw RemoteError(message);
}

std::string EncodeFleetStats(const FleetStats& stats) {
  std::ostringstream os(std::ios::binary);
  WritePod(os, kWireVersion);
  WritePod(os, stats.requests);
  WritePod(os, stats.engine_solves);
  WritePod(os, stats.cache_hits);
  WritePod(os, stats.disk_hits);
  WritePod(os, stats.peer_hits);
  WritePod(os, stats.peer_fetches);
  WritePod(os, stats.forwarded);
  WritePod(os, stats.forward_failures);
  WritePod(os, stats.spill_served);
  WritePod(os, stats.spill_missed);
  return std::move(os).str();
}

FleetStats DecodeFleetStats(std::string_view payload) {
  return WrapDecode("fleet stats", [&] {
    std::istringstream is(std::string(payload), std::ios::binary);
    ReadPayloadVersion(is, "fleet stats");
    FleetStats stats;
    ReadPod(is, stats.requests);
    ReadPod(is, stats.engine_solves);
    ReadPod(is, stats.cache_hits);
    ReadPod(is, stats.disk_hits);
    ReadPod(is, stats.peer_hits);
    ReadPod(is, stats.peer_fetches);
    ReadPod(is, stats.forwarded);
    ReadPod(is, stats.forward_failures);
    ReadPod(is, stats.spill_served);
    ReadPod(is, stats.spill_missed);
    if (!is) throw WireError("wire: truncated fleet stats");
    return stats;
  });
}

std::string EncodeTraceDump(const TraceDump& dump) {
  std::ostringstream os(std::ios::binary);
  WritePod(os, kWireVersion);
  WritePod(os, dump.shard_id);
  WriteString(os, dump.events_json);
  return std::move(os).str();
}

TraceDump DecodeTraceDump(std::string_view payload) {
  return WrapDecode("trace dump", [&] {
    std::istringstream is(std::string(payload), std::ios::binary);
    ReadPayloadVersion(is, "trace dump");
    TraceDump dump;
    ReadPod(is, dump.shard_id);
    if (!is) throw WireError("wire: truncated trace dump");
    // The fragment is bounded by the frame payload cap, not the generic
    // string cap: a busy shard's ring drains to well over a megabyte.
    dump.events_json =
        ReadString(is, kMaxFramePayloadBytes, "trace events json");
    return dump;
  });
}

}  // namespace respect::net

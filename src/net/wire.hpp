// ehdoe/net/wire.hpp
//
// The evaluation wire protocol: one frame codec shared by every process
// boundary the toolkit crosses —
//
//  * core::SubprocessBackend's forked worker pipes (AF_UNIX socketpair),
//  * net::EvalServer's forked worker pipes, and
//  * the TCP connections of net::RemoteBackend, the farm monitors and
//    store::StoreClient.
//
// Every message on every transport is one frame:
//
//   frame := u32 kind, u64 body_len, body_len bytes of body
//
// A reader checks body_len against kMaxFrameBody before it allocates
// anything; that is the only size budget the protocol needs. A blocking
// reader does two reads per frame (header, then body into a reused buffer);
// EvalServer decodes whole frames straight out of its epoll buffers. Bodies
// are host-endian fields read through core/codec.hpp's bounds-checked
// Reader, with str := u64 len, bytes and responses := u64 n, n x { str
// name, f64 value }:
//
//   Hello           u32 version, str fingerprint, u64 replicates
//   StatsRequest    u32 version
//   StoreHello      u32 version
//   Welcome         u64 server_now_us — the server's monotonic telemetry
//                   clock sampled at encode time, the anchor ehdoe-trace
//                   uses to merge client and server traces
//   Error           str message — a refusal or a failure; the sender closes
//                   the connection after it
//   StatsReply      u64 points_served, points_failed, handshakes_rejected,
//                   worker_respawns, points_timed_out, in_flight,
//                   connections_accepted, f64 uptime_seconds,
//                   u64 n, n x { u64 bucket_index, u64 count },
//                   f64 p50_us, p95_us, p99_us, ring
//   BatchRequest    u64 count, u64 dim, count*dim x f64 (points, row-major)
//   BatchResult     u64 count, count x result (request order), where
//                   result := u64 status; 0: responses; 1: str error
//   StoreGet        u64 count, count x str key
//   StorePut        u64 count, count x { str key, responses }
//   StoreStats      (empty)
//   StoreGetReply   u64 count, count x { u64 found, found: responses }
//   StorePutReply   u64 appended (records newly written; a duplicate key
//                   with bitwise-identical responses is acknowledged
//                   without re-appending)
//   StoreStatsReply u64 keys, segments, quarantined_segments, gets_served,
//                   get_hits, puts_received, records_appended,
//                   connections_accepted, f64 uptime_seconds, ring
//
//   ring := u64 interval_us, u64 first_seq, u64 n_series, n_series x str,
//           u64 n_rows, n_rows x { u64 t_us, n_series x f64 }
//           (core/metrics.hpp snapshots, oldest first; empty when the
//           server samples no metrics)
//
// A TCP connection's first frame picks its kind: Hello opens an eval
// connection (Welcome, then pipelined BatchRequest/BatchResult pairs in
// FIFO order), StatsRequest gets one StatsReply and the connection closes,
// StoreHello opens a store connection (Welcome, then StoreGet/StorePut/
// StoreStats requests answered in order). Any other first frame is an alien
// peer and is dropped without a reply. The opening frame's version must be
// exactly kProtocolVersion: the client and the daemons are built from the
// same tree, so there is no negotiation and no downgrade — any other
// version is answered with an Error frame naming both versions.
//
// Forked pipe workers skip the handshake — fork() guarantees both ends run
// the same binary with the same closure — and speak BatchRequest/
// BatchResult frames of one point. Closing the client side of any transport
// is the shutdown signal; eval_worker_loop() _exits cleanly on EOF.
//
// Determinism note: values travel as raw f64 bits, so a response is bitwise
// identical no matter which process or host (same binary, same libm)
// produced it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/eval_backend.hpp"
#include "core/metrics.hpp"

namespace ehdoe::net {

using core::ResponseMap;
using core::Simulation;
using core::codec::ByteView;
using num::Vector;

// ---------------------------------------------------------------------------
// Protocol constants
// ---------------------------------------------------------------------------

/// The one protocol version. v8 put every message into a length-prefixed
/// frame; both ends of a connection must speak exactly this version.
inline constexpr std::uint32_t kProtocolVersion = 8;

/// The cap on any frame body, checked before allocation.
inline constexpr std::uint64_t kMaxFrameBody = core::codec::kMaxBody;
inline constexpr std::size_t kFrameHeaderBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);

enum class FrameKind : std::uint32_t {
    Hello = 1,
    StatsRequest = 2,
    StoreHello = 3,
    Welcome = 4,
    Error = 5,
    StatsReply = 6,
    BatchRequest = 7,
    BatchResult = 8,
    StoreGet = 9,
    StorePut = 10,
    StoreStats = 11,
    StoreGetReply = 12,
    StorePutReply = 13,
    StoreStatsReply = 14,
};

/// Per-point status inside a BatchResult.
inline constexpr std::uint64_t kStatusOk = 0;
inline constexpr std::uint64_t kStatusError = 1;

/// Upper bound on the stats-reply histogram: bucket count and every bucket
/// index must stay below this (the telemetry histogram has 976 buckets; a
/// frame claiming more is corrupt).
inline constexpr std::uint64_t kMaxHistogramBuckets = 1024;

/// Caps on the metrics ring: a server samples a handful of series into a
/// ring of at most ~120 rows, so a frame claiming more is corrupt, not
/// large.
inline constexpr std::uint64_t kMaxMetricSeries = 64;
inline constexpr std::uint64_t kMaxMetricNameLen = 256;
inline constexpr std::uint64_t kMaxMetricSamples = 1024;

/// The refusal every server sends an opening frame at another version.
std::string version_mismatch_message(std::uint32_t client_version);

// ---------------------------------------------------------------------------
// Blocking I/O. recv/send loop until the full buffer moved (false on EOF or
// a hard error), with MSG_NOSIGNAL so a dead peer surfaces as an error,
// never as SIGPIPE. Works on any SOCK_STREAM fd (socketpair and TCP alike).
// ---------------------------------------------------------------------------

bool read_exact(int fd, void* buf, std::size_t len);
bool write_all(int fd, const void* buf, std::size_t len);
inline bool write_all(int fd, const std::vector<unsigned char>& bytes) {
    return write_all(fd, bytes.data(), bytes.size());
}

/// Split a frame header (kFrameHeaderBytes at `p`).
void decode_frame_header(const unsigned char* p, FrameKind& kind, std::uint64_t& body_len);

/// Read one whole frame: the header, then the body into `body` (storage
/// reused). False on EOF, a transport error, or a body_len over the cap.
bool read_frame(int fd, FrameKind& kind, std::vector<unsigned char>& body);

/// Read the answer to a request: true with the body of a `want` frame in
/// `body`. False otherwise, with the peer's message in `refusal` when it
/// answered an Error frame, and `refusal` empty when the connection dropped
/// or carried anything else.
bool read_reply(int fd, FrameKind want, std::vector<unsigned char>& body,
                std::string& refusal);

// ---------------------------------------------------------------------------
// Messages. Every encode_* appends one whole frame to `out`, so hot paths
// reuse one buffer and send a frame with a single write; each throws
// std::length_error rather than encode a body over kMaxFrameBody. Every
// decode_* parses one frame body and returns false on anything malformed,
// including trailing bytes.
// ---------------------------------------------------------------------------

struct Hello {
    std::uint32_t version = kProtocolVersion;
    std::string fingerprint;
    std::uint64_t replicates = 1;
};

/// One decoded evaluator response: a result or a simulation error message.
struct EvalResult {
    bool ok = false;
    ResponseMap responses;
    std::string error;
};

/// One shard's monitoring counters as carried by the stats reply.
struct ShardStats {
    std::uint64_t points_served = 0;  ///< result frames answered
    std::uint64_t points_failed = 0;  ///< error frames answered
    std::uint64_t handshakes_rejected = 0;
    /// Crashed subprocess workers replaced / exec simulators relaunched.
    std::uint64_t worker_respawns = 0;
    /// Points whose simulator hit the exec recipe's wall-clock timeout.
    std::uint64_t points_timed_out = 0;
    /// Points being evaluated right now (worker occupancy; display-only,
    /// deliberately outside the determinism contract).
    std::uint64_t in_flight = 0;
    std::uint64_t connections_accepted = 0;
    double uptime_seconds = 0.0;  ///< since the server start()ed
    /// The server's lifetime eval-latency histogram as sparse
    /// (bucket_index, count) pairs (core::telemetry::LatencyHistogram log
    /// buckets, microseconds) plus exact-rank percentiles.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> latency_buckets;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
    /// The server's metrics ring (core/metrics.hpp); empty when the server
    /// samples no metrics.
    core::metrics::RingSnapshot metrics;
};

/// One key → responses pair as carried by a put-batch frame. Keys are
/// opaque byte strings (in practice the cache identity + hexfloat-exact
/// point, see store/store_backend.hpp).
struct StoreEntry {
    std::string key;
    ResponseMap responses;
};

/// One get-batch lookup result; `responses` is meaningful iff `found`.
struct StoreLookup {
    bool found = false;
    ResponseMap responses;
};

/// The store server's monitoring counters as carried by its stats reply.
struct StoreStats {
    std::uint64_t keys = 0;                  ///< distinct keys in the index
    std::uint64_t segments = 0;              ///< live segment files
    std::uint64_t quarantined_segments = 0;  ///< corrupt segments set aside
    std::uint64_t gets_served = 0;           ///< lookups answered (lifetime)
    std::uint64_t get_hits = 0;              ///< lookups answered found
    std::uint64_t puts_received = 0;         ///< put entries received
    std::uint64_t records_appended = 0;      ///< entries newly appended
    std::uint64_t connections_accepted = 0;
    double uptime_seconds = 0.0;  ///< since the server start()ed
    /// The store's metrics ring (empty when sampling is off).
    core::metrics::RingSnapshot metrics;
};

/// The two opening frames whose body is the version alone. Only tests
/// send a version other than kProtocolVersion.
void encode_stats_request(std::vector<unsigned char>& out,
                          std::uint32_t version = kProtocolVersion);
void encode_store_hello(std::vector<unsigned char>& out, std::uint32_t version = kProtocolVersion);
/// A StatsRequest or StoreHello body: the version and nothing else.
bool decode_version(ByteView body, std::uint32_t& version);
/// The version every opening frame's body starts with.
bool decode_version_prefix(ByteView body, std::uint32_t& version);

void encode_hello(std::vector<unsigned char>& out, const Hello& hello);
bool decode_hello(ByteView body, Hello& hello);

void encode_welcome(std::vector<unsigned char>& out, std::uint64_t server_now_us);
bool decode_welcome(ByteView body, std::uint64_t& server_now_us);

void encode_error(std::vector<unsigned char>& out, const std::string& message);
bool decode_error(ByteView body, std::string& message);

void encode_stats_reply(std::vector<unsigned char>& out, const ShardStats& stats);
bool decode_stats_reply(ByteView body, ShardStats& stats);

/// A BatchRequest carrying points[indices[0..k)] (all of one dimension).
void encode_batch_request(std::vector<unsigned char>& out, const std::vector<Vector>& points,
                          const std::vector<std::size_t>& indices);
bool decode_batch_request(ByteView body, std::vector<Vector>& points);

void encode_batch_result(std::vector<unsigned char>& out,
                         const std::vector<EvalResult>& results);
/// The caller knows how many responses its request frame is owed; a frame
/// whose count differs is a broken peer.
bool decode_batch_result(ByteView body, std::size_t expected, std::vector<EvalResult>& results);

void encode_store_get(std::vector<unsigned char>& out, const std::vector<std::string>& keys);
bool decode_store_get(ByteView body, std::vector<std::string>& keys);

void encode_store_put(std::vector<unsigned char>& out, const std::vector<StoreEntry>& entries);
bool decode_store_put(ByteView body, std::vector<StoreEntry>& entries);

void encode_store_get_reply(std::vector<unsigned char>& out,
                            const std::vector<StoreLookup>& lookups);
bool decode_store_get_reply(ByteView body, std::size_t expected,
                            std::vector<StoreLookup>& lookups);

void encode_store_put_reply(std::vector<unsigned char>& out, std::uint64_t appended);
bool decode_store_put_reply(ByteView body, std::uint64_t& appended);

void encode_store_stats_request(std::vector<unsigned char>& out);
void encode_store_stats_reply(std::vector<unsigned char>& out, const StoreStats& stats);
bool decode_store_stats_reply(ByteView body, StoreStats& stats);

// ---------------------------------------------------------------------------
// The worker side of the protocol: serve BatchRequest frames until EOF.
// Shared by every forked pipe worker (SubprocessBackend and EvalServer).
// Never returns; _exit(0) on clean shutdown, _exit(2) when the parent
// vanishes mid-frame.
// ---------------------------------------------------------------------------

[[noreturn]] void eval_worker_loop(int fd, const Simulation& sim, std::size_t replicates);

/// One synchronous round trip of `point` through a pipe worker's fd
/// (`scratch` is reused across calls). False when the worker died or
/// broke the frame; a point too large to frame is answered with an error
/// result.
bool pipe_evaluate(int fd, const Vector& point, EvalResult& result,
                   std::vector<unsigned char>& scratch);

/// Fork one pipe worker running eval_worker_loop over a fresh socketpair.
/// Returns the parent side (already registered with the fork-hygiene
/// registry below); the child never returns. Throws on socketpair/fork
/// failure. Fork early, before the embedding application spawns threads.
/// The crash-respawn paths do fork from an already-threaded process; that
/// is safe on glibc (malloc registers atfork handlers, and the child only
/// closes fds and enters the worker loop) but relies on the Simulation
/// closure not sharing locks with other threads — keep simulations pure,
/// as the backend contract already demands.
struct ForkedWorker {
    pid_t pid = -1;
    int fd = -1;  ///< parent side of the socketpair
};
ForkedWorker fork_eval_worker(const Simulation& sim, std::size_t replicates);

// ---------------------------------------------------------------------------
// Fork hygiene: parent-side fds (command sockets, TCP listeners, accepted
// connections) that a freshly forked worker must close so unrelated
// transports see EOF when their own parent end closes. Registered by every
// component that owns such an fd; snapshot_parent_fds() is taken in the
// parent immediately before fork() and closed in the child lock-free.
// ---------------------------------------------------------------------------

void register_parent_fd(int fd);
void unregister_parent_fd(int fd);
std::vector<int> snapshot_parent_fds();

}  // namespace ehdoe::net

#include "net/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>

namespace ehdoe::net {

using core::codec::Reader;
using core::codec::Writer;

namespace {

std::mutex g_parent_fds_mutex;
std::set<int> g_parent_fds;

/// Append one `kind` frame whose body `write_body(Writer&)` produces; the
/// body length is patched in afterwards. A body over the cap is refused
/// before it can reach a transport.
template <class WriteBody>
void encode_frame(std::vector<unsigned char>& out, FrameKind kind, WriteBody&& write_body) {
    const std::size_t start = out.size();
    out.resize(start + kFrameHeaderBytes);
    const auto k = static_cast<std::uint32_t>(kind);
    std::memcpy(out.data() + start, &k, sizeof k);
    Writer w(out);
    write_body(w);
    const std::uint64_t len = out.size() - start - kFrameHeaderBytes;
    if (len > kMaxFrameBody) {
        out.resize(start);
        throw std::length_error("wire: a frame body of " + std::to_string(len) +
                                " bytes exceeds the " + std::to_string(kMaxFrameBody) +
                                "-byte frame cap");
    }
    std::memcpy(out.data() + start + sizeof k, &len, sizeof len);
}

/// The metrics-ring block shared by the eval and store stats replies.
/// Encoding clamps to the wire caps (a correctly configured server never
/// hits them: the caps exist for the reader).
void write_ring(Writer& w, const core::metrics::RingSnapshot& ring) {
    if (ring.series.size() > kMaxMetricSeries) {
        // Misconfigured registry: send an empty ring rather than a frame
        // every honest reader must reject.
        w.u64(ring.interval_us);
        w.u64(ring.first_seq);
        w.u64(0);
        w.u64(0);
        return;
    }
    const std::size_t skip =
        ring.rows.size() > kMaxMetricSamples ? ring.rows.size() - kMaxMetricSamples : 0;
    w.u64(ring.interval_us);
    w.u64(ring.first_seq + skip);
    w.u64(ring.series.size());
    for (const std::string& name : ring.series) {
        const std::size_t len = std::min<std::size_t>(name.size(), kMaxMetricNameLen);
        w.u64(len);
        w.bytes(name.data(), len);
    }
    w.u64(ring.rows.size() - skip);
    for (std::size_t r = skip; r < ring.rows.size(); ++r) {
        const core::metrics::RingSnapshot::Row& row = ring.rows[r];
        w.u64(row.t_us);
        for (std::size_t c = 0; c < ring.series.size(); ++c)
            w.f64(c < row.values.size() ? row.values[c] : 0.0);
    }
}

/// Decode a metrics-ring block; every count is checked against its domain
/// cap and the remaining bytes before any allocation.
bool read_ring(Reader& r, core::metrics::RingSnapshot& ring) {
    ring = core::metrics::RingSnapshot{};
    std::uint64_t n_series = 0;
    if (!r.u64(ring.interval_us) || !r.u64(ring.first_seq) ||
        !r.count(n_series, sizeof(std::uint64_t)) || n_series > kMaxMetricSeries)
        return false;
    ring.series.resize(static_cast<std::size_t>(n_series));
    for (std::string& name : ring.series) {
        if (!r.str(name) || name.size() > kMaxMetricNameLen) return false;
    }
    const std::size_t row_bytes = sizeof(std::uint64_t) * (1 + ring.series.size());
    std::uint64_t n_rows = 0;
    if (!r.count(n_rows, row_bytes) || n_rows > kMaxMetricSamples) return false;
    ring.rows.resize(static_cast<std::size_t>(n_rows));
    for (core::metrics::RingSnapshot::Row& row : ring.rows) {
        row.values.resize(ring.series.size());
        if (!r.u64(row.t_us) ||
            !r.bytes(row.values.data(), sizeof(double) * row.values.size()))
            return false;
    }
    return true;
}

bool decode_result(Reader& r, EvalResult& result) {
    std::uint64_t status = kStatusError;
    if (!r.u64(status)) return false;
    result.ok = status == kStatusOk;
    result.responses.clear();
    result.error.clear();
    if (status == kStatusOk) return r.responses(result.responses);
    return status == kStatusError && r.str(result.error);
}

}  // namespace

std::string version_mismatch_message(std::uint32_t client_version) {
    return "protocol version mismatch: server speaks " + std::to_string(kProtocolVersion) +
           ", client sent " + std::to_string(client_version);
}

// ---------------------------------------------------------------------------
// Blocking I/O
// ---------------------------------------------------------------------------

bool read_exact(int fd, void* buf, std::size_t len) {
    auto* p = static_cast<unsigned char*>(buf);
    while (len > 0) {
        const ssize_t r = ::recv(fd, p, len, 0);
        if (r > 0) {
            p += r;
            len -= static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR) continue;
        return false;  // EOF or hard error: the peer is gone
    }
    return true;
}

bool write_all(int fd, const void* buf, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(buf);
    while (len > 0) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
        const ssize_t w = ::send(fd, p, len, MSG_NOSIGNAL);
        if (w > 0) {
            p += w;
            len -= static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

void decode_frame_header(const unsigned char* p, FrameKind& kind, std::uint64_t& body_len) {
    std::uint32_t k = 0;
    std::memcpy(&k, p, sizeof k);
    std::memcpy(&body_len, p + sizeof k, sizeof body_len);
    kind = static_cast<FrameKind>(k);
}

bool read_frame(int fd, FrameKind& kind, std::vector<unsigned char>& body) {
    unsigned char header[kFrameHeaderBytes];
    std::uint64_t len = 0;
    if (!read_exact(fd, header, sizeof header)) return false;
    decode_frame_header(header, kind, len);
    if (len > kMaxFrameBody) return false;
    body.resize(static_cast<std::size_t>(len));
    return read_exact(fd, body.data(), body.size());
}

bool read_reply(int fd, FrameKind want, std::vector<unsigned char>& body,
                std::string& refusal) {
    refusal.clear();
    FrameKind kind{};
    if (!read_frame(fd, kind, body)) return false;
    if (kind == want) return true;
    if (kind != FrameKind::Error) return false;
    if (!decode_error(body, refusal)) refusal.clear();  // a garbled refusal: a broken peer
    else if (refusal.empty()) refusal = "(no message)";
    return false;
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

void encode_stats_request(std::vector<unsigned char>& out, std::uint32_t version) {
    encode_frame(out, FrameKind::StatsRequest, [&](Writer& w) { w.u32(version); });
}

void encode_store_hello(std::vector<unsigned char>& out, std::uint32_t version) {
    encode_frame(out, FrameKind::StoreHello, [&](Writer& w) { w.u32(version); });
}

bool decode_version(ByteView body, std::uint32_t& version) {
    Reader r(body);
    return r.u32(version) && r.done();
}

bool decode_version_prefix(ByteView body, std::uint32_t& version) {
    return Reader(body).u32(version);
}

void encode_hello(std::vector<unsigned char>& out, const Hello& hello) {
    encode_frame(out, FrameKind::Hello, [&](Writer& w) {
        w.u32(hello.version);
        w.str(hello.fingerprint);
        w.u64(hello.replicates);
    });
}

bool decode_hello(ByteView body, Hello& hello) {
    Reader r(body);
    return r.u32(hello.version) && r.str(hello.fingerprint) && r.u64(hello.replicates) &&
           r.done();
}

void encode_welcome(std::vector<unsigned char>& out, std::uint64_t server_now_us) {
    encode_frame(out, FrameKind::Welcome, [&](Writer& w) { w.u64(server_now_us); });
}

bool decode_welcome(ByteView body, std::uint64_t& server_now_us) {
    Reader r(body);
    return r.u64(server_now_us) && r.done();
}

void encode_error(std::vector<unsigned char>& out, const std::string& message) {
    encode_frame(out, FrameKind::Error, [&](Writer& w) { w.str(message); });
}

bool decode_error(ByteView body, std::string& message) {
    Reader r(body);
    return r.str(message) && r.done();
}

void encode_stats_reply(std::vector<unsigned char>& out, const ShardStats& stats) {
    encode_frame(out, FrameKind::StatsReply, [&](Writer& w) {
        w.u64(stats.points_served);
        w.u64(stats.points_failed);
        w.u64(stats.handshakes_rejected);
        w.u64(stats.worker_respawns);
        w.u64(stats.points_timed_out);
        w.u64(stats.in_flight);
        w.u64(stats.connections_accepted);
        w.f64(stats.uptime_seconds);
        w.u64(stats.latency_buckets.size());
        for (const auto& [index, count] : stats.latency_buckets) {
            w.u64(index);
            w.u64(count);
        }
        w.f64(stats.latency_p50_us);
        w.f64(stats.latency_p95_us);
        w.f64(stats.latency_p99_us);
        write_ring(w, stats.metrics);
    });
}

bool decode_stats_reply(ByteView body, ShardStats& stats) {
    stats = ShardStats{};
    Reader r(body);
    if (!(r.u64(stats.points_served) && r.u64(stats.points_failed) &&
          r.u64(stats.handshakes_rejected) && r.u64(stats.worker_respawns) &&
          r.u64(stats.points_timed_out) && r.u64(stats.in_flight) &&
          r.u64(stats.connections_accepted) && r.f64(stats.uptime_seconds)))
        return false;
    // A bucket count beyond the telemetry histogram's own resolution is
    // corrupt, not large; so is any index past it.
    std::uint64_t n = 0;
    if (!r.count(n, 2 * sizeof(std::uint64_t)) || n > kMaxHistogramBuckets) return false;
    stats.latency_buckets.resize(static_cast<std::size_t>(n));
    for (auto& [index, count] : stats.latency_buckets) {
        if (!r.u64(index) || index >= kMaxHistogramBuckets || !r.u64(count)) return false;
    }
    return r.f64(stats.latency_p50_us) && r.f64(stats.latency_p95_us) &&
           r.f64(stats.latency_p99_us) && read_ring(r, stats.metrics) && r.done();
}

void encode_batch_request(std::vector<unsigned char>& out, const std::vector<Vector>& points,
                          const std::vector<std::size_t>& indices) {
    const std::size_t dim = indices.empty() ? 0 : points[indices.front()].size();
    encode_frame(out, FrameKind::BatchRequest, [&](Writer& w) {
        w.u64(indices.size());
        w.u64(dim);
        for (const std::size_t idx : indices) w.bytes(points[idx].data(), dim * sizeof(double));
    });
}

bool decode_batch_request(ByteView body, std::vector<Vector>& points) {
    Reader r(body);
    std::uint64_t count = 0;
    std::uint64_t dim = 0;
    if (!r.u64(count) || !r.u64(dim) || count == 0 || dim == 0) return false;
    // count x dim must be exactly the coordinates the body carries.
    const std::size_t coords = r.remaining() / sizeof(double);
    if (dim > coords || count > coords / dim || count * dim * sizeof(double) != r.remaining())
        return false;
    points.assign(static_cast<std::size_t>(count), Vector(static_cast<std::size_t>(dim)));
    for (Vector& p : points) r.bytes(p.data(), sizeof(double) * p.size());
    return r.done();
}

void encode_batch_result(std::vector<unsigned char>& out,
                         const std::vector<EvalResult>& results) {
    encode_frame(out, FrameKind::BatchResult, [&](Writer& w) {
        w.u64(results.size());
        for (const EvalResult& result : results) {
            if (result.ok) {
                w.u64(kStatusOk);
                w.responses(result.responses);
            } else {
                w.u64(kStatusError);
                w.str(result.error);
            }
        }
    });
}

bool decode_batch_result(ByteView body, std::size_t expected, std::vector<EvalResult>& results) {
    Reader r(body);
    std::uint64_t count = 0;
    if (!r.count(count, 2 * sizeof(std::uint64_t)) || count != expected) return false;
    results.resize(static_cast<std::size_t>(count));
    for (EvalResult& result : results) {
        if (!decode_result(r, result)) return false;
    }
    return r.done();
}

void encode_store_get(std::vector<unsigned char>& out, const std::vector<std::string>& keys) {
    encode_frame(out, FrameKind::StoreGet, [&](Writer& w) {
        w.u64(keys.size());
        for (const std::string& key : keys) w.str(key);
    });
}

bool decode_store_get(ByteView body, std::vector<std::string>& keys) {
    Reader r(body);
    std::uint64_t count = 0;
    if (!r.count(count, sizeof(std::uint64_t)) || count == 0) return false;
    keys.resize(static_cast<std::size_t>(count));
    for (std::string& key : keys) {
        if (!r.str(key)) return false;
    }
    return r.done();
}

void encode_store_put(std::vector<unsigned char>& out, const std::vector<StoreEntry>& entries) {
    encode_frame(out, FrameKind::StorePut, [&](Writer& w) {
        w.u64(entries.size());
        for (const StoreEntry& e : entries) {
            w.str(e.key);
            w.responses(e.responses);
        }
    });
}

bool decode_store_put(ByteView body, std::vector<StoreEntry>& entries) {
    Reader r(body);
    std::uint64_t count = 0;
    if (!r.count(count, 2 * sizeof(std::uint64_t)) || count == 0) return false;
    entries.resize(static_cast<std::size_t>(count));
    for (StoreEntry& e : entries) {
        if (!r.str(e.key) || !r.responses(e.responses)) return false;
    }
    return r.done();
}

void encode_store_get_reply(std::vector<unsigned char>& out,
                            const std::vector<StoreLookup>& lookups) {
    encode_frame(out, FrameKind::StoreGetReply, [&](Writer& w) {
        w.u64(lookups.size());
        for (const StoreLookup& l : lookups) {
            w.u64(l.found ? 1 : 0);
            if (l.found) w.responses(l.responses);
        }
    });
}

bool decode_store_get_reply(ByteView body, std::size_t expected,
                            std::vector<StoreLookup>& lookups) {
    Reader r(body);
    std::uint64_t count = 0;
    if (!r.count(count, sizeof(std::uint64_t)) || count != expected) return false;
    lookups.resize(static_cast<std::size_t>(count));
    for (StoreLookup& l : lookups) {
        std::uint64_t found = 0;
        if (!r.u64(found) || found > 1) return false;
        l.found = found != 0;
        l.responses.clear();
        if (l.found && !r.responses(l.responses)) return false;
    }
    return r.done();
}

void encode_store_put_reply(std::vector<unsigned char>& out, std::uint64_t appended) {
    encode_frame(out, FrameKind::StorePutReply, [&](Writer& w) { w.u64(appended); });
}

bool decode_store_put_reply(ByteView body, std::uint64_t& appended) {
    Reader r(body);
    return r.u64(appended) && r.done();
}

void encode_store_stats_request(std::vector<unsigned char>& out) {
    encode_frame(out, FrameKind::StoreStats, [](Writer&) {});
}

void encode_store_stats_reply(std::vector<unsigned char>& out, const StoreStats& stats) {
    encode_frame(out, FrameKind::StoreStatsReply, [&](Writer& w) {
        w.u64(stats.keys);
        w.u64(stats.segments);
        w.u64(stats.quarantined_segments);
        w.u64(stats.gets_served);
        w.u64(stats.get_hits);
        w.u64(stats.puts_received);
        w.u64(stats.records_appended);
        w.u64(stats.connections_accepted);
        w.f64(stats.uptime_seconds);
        write_ring(w, stats.metrics);
    });
}

bool decode_store_stats_reply(ByteView body, StoreStats& stats) {
    stats = StoreStats{};
    Reader r(body);
    return r.u64(stats.keys) && r.u64(stats.segments) && r.u64(stats.quarantined_segments) &&
           r.u64(stats.gets_served) && r.u64(stats.get_hits) && r.u64(stats.puts_received) &&
           r.u64(stats.records_appended) && r.u64(stats.connections_accepted) &&
           r.f64(stats.uptime_seconds) && read_ring(r, stats.metrics) && r.done();
}

// ---------------------------------------------------------------------------
// Pipe workers
// ---------------------------------------------------------------------------

[[noreturn]] void eval_worker_loop(int fd, const Simulation& sim, std::size_t replicates) {
    std::vector<unsigned char> buf;
    std::vector<Vector> points;
    std::vector<EvalResult> results;
    for (;;) {
        FrameKind kind{};
        if (!read_frame(fd, kind, buf)) ::_exit(0);  // parent closed: clean shutdown
        if (kind != FrameKind::BatchRequest || !decode_batch_request(buf, points)) ::_exit(2);

        results.assign(points.size(), EvalResult{});
        for (std::size_t i = 0; i < points.size(); ++i) {
            try {
                results[i].responses = core::simulate_replicated(sim, points[i], replicates);
                results[i].ok = true;
            } catch (const std::exception& e) {
                results[i].error = e.what();
            } catch (...) {
                results[i].error = "unknown exception in worker simulation";
            }
        }
        buf.clear();
        try {
            encode_batch_result(buf, results);
        } catch (const std::length_error&) {
            ::_exit(2);  // an unencodable result: the parent sees a dead worker
        }
        if (!write_all(fd, buf)) ::_exit(2);  // parent vanished mid-frame
    }
}

bool pipe_evaluate(int fd, const Vector& point, EvalResult& result,
                   std::vector<unsigned char>& scratch) {
    scratch.clear();
    try {
        encode_frame(scratch, FrameKind::BatchRequest, [&](Writer& w) {
            w.u64(1);
            w.u64(point.size());
            w.bytes(point.data(), point.size() * sizeof(double));
        });
    } catch (const std::length_error& e) {
        result = EvalResult{};  // the worker never saw the point and lives on
        result.error = e.what();
        return true;
    }
    FrameKind kind{};
    std::vector<EvalResult> results;
    if (!write_all(fd, scratch) || !read_frame(fd, kind, scratch) ||
        kind != FrameKind::BatchResult || !decode_batch_result(scratch, 1, results))
        return false;
    result = std::move(results.front());
    return true;
}

ForkedWorker fork_eval_worker(const Simulation& sim, std::size_t replicates) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("fork_eval_worker: socketpair failed");

    // Snapshot every parent-side transport fd in the process *before*
    // forking: the child closes them lock-free (taking a mutex after fork
    // could deadlock if another thread held it at fork time).
    const std::vector<int> parent_fds = snapshot_parent_fds();

    // Flush stdio so the child does not replay buffered output.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fork_eval_worker: fork failed");
    }
    if (pid == 0) {
        // Child: drop every parent-side transport in the process (its own
        // pair's parent end included), keep only its worker end.
        for (const int fd : parent_fds) ::close(fd);
        ::close(fds[0]);
        eval_worker_loop(fds[1], sim, replicates);
    }

    // Parent.
    ::close(fds[1]);
    register_parent_fd(fds[0]);
    ForkedWorker w;
    w.pid = pid;
    w.fd = fds[0];
    return w;
}

// ---------------------------------------------------------------------------
// Fork hygiene
// ---------------------------------------------------------------------------

void register_parent_fd(int fd) {
    std::lock_guard<std::mutex> lock(g_parent_fds_mutex);
    g_parent_fds.insert(fd);
}

void unregister_parent_fd(int fd) {
    std::lock_guard<std::mutex> lock(g_parent_fds_mutex);
    g_parent_fds.erase(fd);
}

std::vector<int> snapshot_parent_fds() {
    std::lock_guard<std::mutex> lock(g_parent_fds_mutex);
    return std::vector<int>(g_parent_fds.begin(), g_parent_fds.end());
}

}  // namespace ehdoe::net

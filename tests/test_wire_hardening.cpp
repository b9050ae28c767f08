// Malformed-frame hardening: a peer sending an oversized length prefix, a
// body that disagrees with its own length, or a frame truncated mid-payload
// must fail its connection cleanly — no allocation blow-up, no hang, no
// collateral damage to other connections. Covers both directions: hostile
// clients against EvalServer, and hostile (fake) servers against
// RemoteBackend and the stats poll.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "doe/batch_runner.hpp"
#include "doe/factorial.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"
#include "net/wire.hpp"
#include "net_test_utils.hpp"

using namespace ehdoe;
using namespace ehdoe::doe;
using namespace ehdoe::net_test;
using ehdoe::net::FrameKind;
using ehdoe::num::Vector;

namespace {

const DesignSpace kSpace({{"x", 0.0, 10.0, false}, {"y", -5.0, 5.0, false}});

Simulation identity_sim() {
    return [](const Vector& nat) -> std::map<std::string, double> {
        return {{"f", nat[0]}};
    };
}

/// True when the peer closed: recv() returns 0 (EOF) or a hard error, and
/// never blocks forever (the fd has a receive timeout armed).
bool peer_closed(int fd) {
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    char byte = 0;
    return ::recv(fd, &byte, 1, 0) <= 0;
}

/// Host-endian u64 / f64 appended raw (the wire is host-endian).
void push_u64(std::vector<unsigned char>& bytes, std::uint64_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
}

void push_f64(std::vector<unsigned char>& bytes, double v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
}

/// A hand-built frame header claiming `body_len` body bytes.
std::vector<unsigned char> header(FrameKind kind, std::uint64_t body_len) {
    std::vector<unsigned char> bytes(sizeof(std::uint32_t));
    const auto k = static_cast<std::uint32_t>(kind);
    std::memcpy(bytes.data(), &k, sizeof k);
    push_u64(bytes, body_len);
    return bytes;
}

/// A hand-built frame whose header honestly states the body's length, so
/// only the body's own fields can fail the decode.
std::vector<unsigned char> frame(FrameKind kind, const std::vector<unsigned char>& body) {
    std::vector<unsigned char> bytes = header(kind, body.size());
    bytes.insert(bytes.end(), body.begin(), body.end());
    return bytes;
}

/// Complete an eval handshake on a raw socket; returns the accepted fd.
int handshaken_connect(const net::EvalServer& server, const std::string& fingerprint) {
    const int fd = raw_connect(server.port());
    net::Hello hello;
    hello.fingerprint = fingerprint;
    std::vector<unsigned char> buf;
    net::encode_hello(buf, hello);
    EXPECT_TRUE(net::write_all(fd, buf));
    std::string refusal;
    std::uint64_t server_now_us = 0;
    EXPECT_TRUE(net::read_reply(fd, FrameKind::Welcome, buf, refusal)) << refusal;
    EXPECT_TRUE(net::decode_welcome(buf, server_now_us));
    return fd;
}

std::unique_ptr<net::EvalServer> start_y_server() {
    return start_server([](const Vector& nat) { return core::ResponseMap{{"y", nat[0]}}; },
                        "sim-id");
}

/// An honest client is still served after a hostile one was dropped.
void expect_serves_honest_client(const net::EvalServer& server) {
    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(server))};
    ro.fingerprint = "sim-id";
    net::RemoteBackend remote(ro);
    const auto got = remote.evaluate({Vector{2.0}, Vector{3.0}});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].at("y"), 2.0);
    EXPECT_EQ(got[1].at("y"), 3.0);
}

/// A loopback listener for fake servers.
class FakeListener {
public:
    FakeListener() {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
        EXPECT_EQ(::listen(fd_, 4), 0);
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len);
        port_ = ntohs(bound.sin_port);
    }
    ~FakeListener() { ::close(fd_); }

    int fd() const { return fd_; }
    net::Endpoint endpoint() const {
        return net::parse_endpoint("127.0.0.1:" + std::to_string(port_));
    }

private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// A fake eval-server speaking just enough protocol to hand the client one
/// poisoned response. Accepts one connection, answers the handshake, reads
/// one request frame, writes `poison` raw bytes, then closes.
class PoisonServer {
public:
    explicit PoisonServer(std::vector<unsigned char> poison) : poison_(std::move(poison)) {
        thread_ = std::thread([this] { serve(); });
    }

    ~PoisonServer() {
        ::shutdown(listener_.fd(), SHUT_RDWR);
        if (thread_.joinable()) thread_.join();
    }

    net::Endpoint endpoint() const { return listener_.endpoint(); }

private:
    void serve() {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) return;
        FrameKind kind{};
        std::vector<unsigned char> buf;
        if (net::read_frame(fd, kind, buf) && kind == FrameKind::Hello) {
            buf.clear();
            net::encode_welcome(buf, 0);
            if (net::write_all(fd, buf) && net::read_frame(fd, kind, buf))
                net::write_all(fd, poison_);
        }
        ::close(fd);
    }

    FakeListener listener_;
    std::vector<unsigned char> poison_;
    std::thread thread_;
};

}  // namespace

// ---------------------------------------------------------------------------
// EvalServer side.
// ---------------------------------------------------------------------------
TEST(WireHardening, ServerDropsOversizedRequestBodyLengthWithoutAllocating) {
    auto server = start_server(identity_sim(), "sim-id");

    // A request claiming a 2^60-byte body: the frame cap must fail the
    // connection on the header alone, before any allocation is attempted.
    const int fd = handshaken_connect(*server, "sim-id");
    ASSERT_TRUE(net::write_all(fd, header(FrameKind::BatchRequest, std::uint64_t{1} << 60)));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);

    // The server survives and keeps serving honest clients.
    BatchRunner runner(identity_sim(), remote_options({endpoint_of(*server)}, "sim-id"));
    EXPECT_EQ(runner.run_design(kSpace, doe::full_factorial(2, 2)).simulations, 4u);
    EXPECT_EQ(server->points_served(), 4u);
}

TEST(WireHardening, ServerDropsRequestTruncatedMidFrame) {
    auto server = start_server(identity_sim(), "sim-id");

    // Claim two 1-dim points, deliver the count and a torso, vanish.
    const int fd = handshaken_connect(*server, "sim-id");
    std::vector<unsigned char> bytes = header(FrameKind::BatchRequest, 32);
    push_u64(bytes, 2);
    push_f64(bytes, 1.0);
    ASSERT_TRUE(net::write_all(fd, bytes));
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);

    EXPECT_EQ(server->points_served(), 0u);  // the torso never reached a worker
    EXPECT_TRUE(server->running());
}

TEST(WireHardening, ServerRejectsOversizedHelloFingerprintLength) {
    auto server = start_y_server();

    // A hello whose fingerprint claims more bytes than the frame carries.
    std::vector<unsigned char> body(sizeof(std::uint32_t));
    const std::uint32_t version = net::kProtocolVersion;
    std::memcpy(body.data(), &version, sizeof version);
    push_u64(body, std::uint64_t{1} << 58);
    push_u64(body, 1);
    const int fd = raw_connect(server->port());
    ASSERT_TRUE(net::write_all(fd, frame(FrameKind::Hello, body)));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);

    // And a hello whose header claims a body over the cap.
    const int fd2 = raw_connect(server->port());
    ASSERT_TRUE(net::write_all(fd2, header(FrameKind::Hello, net::kMaxFrameBody + 1)));
    EXPECT_TRUE(peer_closed(fd2));
    ::close(fd2);

    EXPECT_EQ(server->handshakes_rejected(), 2u);
    expect_serves_honest_client(*server);
}

TEST(WireHardening, ServerRejectsAlienOpeningKindButNotASilentProbe) {
    auto server = start_y_server();

    // A liveness probe that connects and closes is not a rejection.
    ::close(raw_connect(server->port()));
    // A first frame of a kind no connection opens with is an alien peer:
    // dropped as soon as its kind arrives.
    for (const FrameKind kind : {FrameKind::BatchRequest, FrameKind::StoreHello}) {
        const int fd = raw_connect(server->port());
        ASSERT_TRUE(net::write_all(fd, header(kind, 0).data(), sizeof(std::uint32_t)));
        EXPECT_TRUE(peer_closed(fd));
        ::close(fd);
    }
    EXPECT_EQ(server->handshakes_rejected(), 2u);
    expect_serves_honest_client(*server);
}

TEST(WireHardening, OversizedBatchPointCountDropsConnection) {
    auto server = start_y_server();

    // A batch claiming 2^50 points in a 16-byte body: count x dim disagrees
    // with body_len, so the frame dies before anything is allocated.
    const int fd = handshaken_connect(*server, "sim-id");
    std::vector<unsigned char> body;
    push_u64(body, std::uint64_t{1} << 50);
    push_u64(body, 1);
    ASSERT_TRUE(net::write_all(fd, frame(FrameKind::BatchRequest, body)));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    EXPECT_EQ(server->points_served(), 0u);

    expect_serves_honest_client(*server);
    EXPECT_EQ(server->points_served(), 2u);
}

TEST(WireHardening, OversizedBatchAreaDropsConnection) {
    auto server = start_y_server();

    // count and dim are each modest, but their product would demand a
    // gigabyte-scale allocation the 8-byte body cannot back.
    const int fd = handshaken_connect(*server, "sim-id");
    std::vector<unsigned char> body;
    push_u64(body, std::uint64_t{1} << 20);
    push_u64(body, std::uint64_t{1} << 20);
    push_f64(body, 1.0);
    ASSERT_TRUE(net::write_all(fd, frame(FrameKind::BatchRequest, body)));
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    EXPECT_EQ(server->points_served(), 0u);
}

TEST(WireHardening, TruncatedMidSubBatchDropsConnection) {
    auto server = start_y_server();

    // Claim three 2-dim points, deliver a point and a half, vanish.
    const int fd = handshaken_connect(*server, "sim-id");
    std::vector<unsigned char> bytes = header(FrameKind::BatchRequest, 16 + 6 * 8);
    push_u64(bytes, 3);
    push_u64(bytes, 2);
    for (const double c : {1.0, 2.0, 3.0}) push_f64(bytes, c);
    ASSERT_TRUE(net::write_all(fd, bytes));
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
    // Nothing of the truncated sub-batch reached the workers.
    EXPECT_EQ(server->points_served(), 0u);
    EXPECT_EQ(server->points_failed(), 0u);
}

// The stats reply carries the shard's eval-latency histogram and
// percentiles once it has served points.
TEST(WireHardening, StatsReplyCarriesLatencyHistogram) {
    auto server = start_y_server();
    net::RemoteBackendOptions ro;
    ro.endpoints = {net::parse_endpoint(endpoint_of(*server))};
    ro.fingerprint = "sim-id";
    net::RemoteBackend remote(ro);
    ASSERT_EQ(remote.evaluate({Vector{2.0}, Vector{3.0}, Vector{4.0}}).size(), 3u);

    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(net::parse_endpoint(endpoint_of(*server)), stats, error))
        << error;
    EXPECT_EQ(stats.points_served, 3u);
    ASSERT_FALSE(stats.latency_buckets.empty());
    std::uint64_t total = 0;
    for (const auto& [index, count] : stats.latency_buckets) {
        EXPECT_LT(index, net::kMaxHistogramBuckets);
        total += count;
    }
    EXPECT_EQ(total, 3u);  // one sample per served point
    // Percentiles are bucket floors: a sub-microsecond eval legitimately
    // reports 0, so only the ordering is asserted.
    EXPECT_GE(stats.latency_p95_us, stats.latency_p50_us);
    EXPECT_GE(stats.latency_p99_us, stats.latency_p95_us);
}

// ---------------------------------------------------------------------------
// RemoteBackend side.
// ---------------------------------------------------------------------------
namespace {

/// Drive one 3-point batch into a PoisonServer and expect the poisoned
/// connection to surface as a clean dead-endpoint error (all shards dead →
/// stranded points error in design order), never a hang or a bad_alloc.
void expect_clean_death(std::vector<unsigned char> poison) {
    PoisonServer server(std::move(poison));
    net::RemoteBackendOptions ro;
    ro.endpoints = {server.endpoint()};
    ro.fingerprint = "";
    ro.redial_seconds = -1.0;
    net::RemoteBackend backend(ro);

    std::vector<Vector> points(3, Vector(2));
    try {
        backend.evaluate(points);
        FAIL() << "expected the poisoned endpoint to fail the batch";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("no live endpoints remain"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(backend.live_endpoints(), 0u);
}

/// A BatchResult answering the 3-point batch: its count, then `results`.
std::vector<unsigned char> result_frame(const std::vector<unsigned char>& results) {
    std::vector<unsigned char> body;
    push_u64(body, 3);
    body.insert(body.end(), results.begin(), results.end());
    return frame(FrameKind::BatchResult, body);
}

}  // namespace

TEST(WireHardening, ClientDropsResultWithOversizedBodyLength) {
    expect_clean_death(header(FrameKind::BatchResult, std::uint64_t{1} << 59));
}

TEST(WireHardening, ClientDropsResultWithOversizedResponseCount) {
    std::vector<unsigned char> results;
    push_u64(results, net::kStatusOk);
    push_u64(results, std::uint64_t{1} << 59);  // "this many named responses"
    expect_clean_death(result_frame(results));
}

TEST(WireHardening, ClientDropsResultWithOversizedNameLength) {
    std::vector<unsigned char> results;
    push_u64(results, net::kStatusOk);
    push_u64(results, 1);                       // one response...
    push_u64(results, std::uint64_t{1} << 59);  // ...whose name "fills" memory
    expect_clean_death(result_frame(results));
}

TEST(WireHardening, ClientDropsResultTruncatedMidFrame) {
    std::vector<unsigned char> poison = header(FrameKind::BatchResult, 64);
    push_u64(poison, 3);
    push_u64(poison, net::kStatusOk);
    push_u64(poison, 1);
    push_u64(poison, 3);
    poison.push_back('a');  // name cut short; the server closes after this
    expect_clean_death(std::move(poison));
}

TEST(WireHardening, ClientDropsResultWithUnknownStatus) {
    std::vector<unsigned char> results;
    push_u64(results, 42);  // neither ok nor error
    expect_clean_death(result_frame(results));
}

namespace {

/// Serve one stats connection with a StatsReply frame: the counter block
/// followed by `tail` (a poisoned histogram or ring section), its header
/// stating the body's true length, then close. Expects query_shard_stats to
/// fail cleanly — no allocation blow-up, no hang.
void expect_stats_reply_failure(std::vector<unsigned char> reply) {
    FakeListener listener;
    std::thread fake([&] {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd < 0) return;
        FrameKind kind{};
        std::vector<unsigned char> request;
        if (net::read_frame(fd, kind, request) && kind == FrameKind::StatsRequest)
            net::write_all(fd, reply);
        ::close(fd);
    });

    net::ShardStats stats;
    std::string error;
    EXPECT_FALSE(net::query_shard_stats(listener.endpoint(), stats, error));
    EXPECT_FALSE(error.empty());
    fake.join();
}

void expect_stats_tail_failure(const std::vector<unsigned char>& tail) {
    std::vector<unsigned char> body;
    for (int c = 0; c < 7; ++c) push_u64(body, 0);  // the counters
    push_f64(body, 1.0);                            // uptime
    body.insert(body.end(), tail.begin(), tail.end());
    expect_stats_reply_failure(frame(FrameKind::StatsReply, body));
}

/// A valid-but-empty histogram section (0 buckets, 3 percentiles): the
/// ring poisons below must get *past* it to prove the ring fields
/// themselves are validated.
std::vector<unsigned char> empty_histogram_block() {
    std::vector<unsigned char> bytes;
    bytes.reserve(32);   // 4 fields; also quiets GCC 12's overflow false positive
    push_u64(bytes, 0);  // no histogram buckets
    push_f64(bytes, 0.0);
    push_f64(bytes, 0.0);
    push_f64(bytes, 0.0);
    return bytes;
}

}  // namespace

// A stats reply claiming 2^59 histogram buckets: the bucket-count limit
// must fail the read before any allocation is attempted.
TEST(WireHardening, StatsReplyWithOversizedHistogramCountFailsCleanly) {
    std::vector<unsigned char> tail;
    push_u64(tail, std::uint64_t{1} << 59);
    expect_stats_tail_failure(tail);
}

// A bucket index beyond the histogram's own resolution is corrupt, not
// large — rejected on the index field itself.
TEST(WireHardening, StatsReplyWithOutOfRangeBucketIndexFailsCleanly) {
    std::vector<unsigned char> tail;
    push_u64(tail, 1);                          // one bucket...
    push_u64(tail, net::kMaxHistogramBuckets);  // ...at an impossible index
    push_u64(tail, 7);
    expect_stats_tail_failure(tail);
}

// A histogram section cut short mid-entry fails the read, never hangs.
TEST(WireHardening, StatsReplyTruncatedMidHistogramFailsCleanly) {
    std::vector<unsigned char> tail;
    push_u64(tail, 3);  // claim three buckets, deliver one
    push_u64(tail, 2);
    push_u64(tail, 5);
    expect_stats_tail_failure(tail);
}

// A stats reply claiming 2^40 metric series: kMaxMetricSeries must fail
// the read before any allocation.
TEST(WireHardening, StatsReplyWithOversizedMetricSeriesCountFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);  // interval_us
    push_u64(tail, 0);          // first_seq
    push_u64(tail, std::uint64_t{1} << 40);
    expect_stats_tail_failure(tail);
}

// A series name longer than kMaxMetricNameLen is corrupt, not verbose.
TEST(WireHardening, StatsReplyWithOversizedMetricNameFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);
    push_u64(tail, 0);
    push_u64(tail, 1);                       // one series...
    push_u64(tail, std::uint64_t{1} << 50);  // ...with an absurd name
    expect_stats_tail_failure(tail);
}

// More ring rows than kMaxMetricSamples is corrupt — the ring is bounded
// by design.
TEST(WireHardening, StatsReplyWithOversizedMetricRowCountFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);
    push_u64(tail, 0);
    push_u64(tail, 1);  // one series, named "s"
    push_u64(tail, 1);
    tail.push_back('s');
    push_u64(tail, net::kMaxMetricSamples + 1);
    expect_stats_tail_failure(tail);
}

// A ring cut short mid-row fails the read, never hangs.
TEST(WireHardening, StatsReplyTruncatedMidMetricRowFailsCleanly) {
    std::vector<unsigned char> tail = empty_histogram_block();
    push_u64(tail, 1'000'000);
    push_u64(tail, 0);
    push_u64(tail, 1);
    push_u64(tail, 1);
    tail.push_back('s');
    push_u64(tail, 3);    // claim three rows...
    push_u64(tail, 555);  // ...deliver one timestamp
    expect_stats_tail_failure(tail);
}

// The store stats reply shares the ring codec; its decoder must apply the
// same caps.
TEST(WireHardening, StoreStatsReplyWithOversizedRingFailsCleanly) {
    std::vector<unsigned char> body;
    for (int c = 0; c < 8; ++c) push_u64(body, 0);  // the store counters
    push_f64(body, 1.0);                            // uptime
    push_u64(body, 1'000'000);                      // ring interval_us
    push_u64(body, 0);                              // first_seq
    push_u64(body, std::uint64_t{1} << 40);         // absurd series count
    net::StoreStats stats;
    EXPECT_FALSE(net::decode_store_stats_reply(body, stats));
}

TEST(WireHardening, StatsQueryFailsCleanlyOnOversizedRejectionMessage) {
    // An Error frame whose message length is absurd: query_shard_stats must
    // return false, not allocate or hang.
    std::vector<unsigned char> body;
    push_u64(body, std::uint64_t{1} << 59);
    expect_stats_reply_failure(frame(FrameKind::Error, body));
    // The same refusal with an over-cap body_len dies on the header.
    expect_stats_reply_failure(header(FrameKind::Error, std::uint64_t{1} << 59));
}

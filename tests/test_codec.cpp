// The shared byte codec (core/codec.hpp) and every pure decoder built on it:
//
//  * golden bytes — a segment-log file and a cache snapshot written by the
//    previous, hand-rolled encoders load and re-encode to the identical
//    bytes, so the on-disk formats did not move when they joined the codec;
//  * deterministic mutation — valid frames of every wire kind, a segment
//    record body and a snapshot file are truncated at every length, flipped
//    at random bytes (fixed seeds) and have every 8-byte window overwritten
//    with the hostile lengths 0, cap-1, cap, cap+1 and 2^63. Each decode
//    must return false or a value, never crash, and allocate at most a
//    fixed multiple of the bytes it was given.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/inprocess_backend.hpp"
#include "core/persistent_cache.hpp"
#include "net/wire.hpp"
#include "store/segment_log.hpp"

// ---------------------------------------------------------------------------
// Allocation accounting: every operator new in this binary is counted while
// a decode under test runs on this thread.
// ---------------------------------------------------------------------------
namespace {
thread_local bool g_counting = false;
thread_local std::size_t g_allocated = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc with an
// inlined free across a container's allocate/deallocate.
__attribute__((noinline)) void* operator new(std::size_t n) {
    if (g_counting) g_allocated += n;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace ehdoe;
using core::codec::ByteView;
using net::FrameKind;

namespace {

std::vector<unsigned char> from_hex(const std::string& hex) {
    std::vector<unsigned char> bytes;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        bytes.push_back(static_cast<unsigned char>(std::stoul(hex.substr(i, 2), nullptr, 16)));
    return bytes;
}

std::vector<unsigned char> read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const std::vector<unsigned char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

class TempDir {
public:
    explicit TempDir(const std::string& stem)
        : path_(std::filesystem::temp_directory_path() /
                (stem + "-" + std::to_string(::getpid()))) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::filesystem::path& path() const { return path_; }

private:
    std::filesystem::path path_;
};

// Two records appended to a fresh store by the segment-log encoder that
// predates the shared codec.
const char* const kGoldenSegment =
    "4548525381bd4fa35100000000000000160000000000000053317c72317c3078"
    "31702b302c2d3078312e38702b3102000000000000000600000000000000455f"
    "68617276000000000000c03f0500000000000000565f6d696e00000000000006"
    "404548525356fdb31f5000000000000000150000000000000053317c72317c30"
    "78312e34702b322c307830702b3002000000000000000600000000000000455f"
    "686172760000000000000cc00500000000000000565f6d696e59f3f8c21f6ea5"
    "01";

// A two-entry snapshot (fingerprint "fp-golden", f = 0.1 x0, g = -x1 at
// (1, 2) and (-0.5, 3.25)) saved by the snapshot writer that predates the
// shared codec.
const char* const kGoldenSnapshot =
    "4548444f45430001090000000000000066702d676f6c64656e02000000000000"
    "000200000000000000000000000000e0bf0000000000000a4002000000000000"
    "000100000000000000669a9999999999a9bf0100000000000000670000000000"
    "000ac00200000000000000000000000000f03f00000000000000400200000000"
    "0000000100000000000000669a9999999999b93f010000000000000067000000"
    "00000000c0";

const std::string kKey1 = "S1|r1|0x1p+0,-0x1.8p+1";
const std::string kKey2 = "S1|r1|0x1.4p+2,0x0p+0";
const core::ResponseMap kValue1{{"E_harv", 0.125}, {"V_min", 2.75}};
const core::ResponseMap kValue2{{"E_harv", -3.5}, {"V_min", 1e-300}};

core::SnapshotTable golden_table() {
    const auto sim = [](const std::vector<double>& x) {
        return core::ResponseMap{{"f", x[0] * 0.1}, {"g", -x[1]}};
    };
    core::SnapshotTable table;
    for (const std::vector<double>& x : {std::vector<double>{1.0, 2.0}, {-0.5, 3.25}})
        table[x] = sim(x);
    return table;
}

}  // namespace

TEST(CodecGolden, SegmentFileLoadsAndReencodesToTheSameBytes) {
    TempDir dir("ehdoe-codec-segment");
    const std::vector<unsigned char> golden = from_hex(kGoldenSegment);
    write_file(dir.path() / "segment-000001.log", golden);

    {
        store::SegmentLogOptions o;
        o.verbose = false;
        store::SegmentLog log(dir.path().string(), o);
        EXPECT_EQ(log.size(), 2u);
        EXPECT_EQ(log.counters().quarantined_segments, 0u);
        core::ResponseMap got;
        ASSERT_TRUE(log.get(kKey1, got));
        EXPECT_EQ(got, kValue1);
        ASSERT_TRUE(log.get(kKey2, got));
        EXPECT_EQ(got, kValue2);
    }
    // Appending reopened the segment without rewriting a byte of it.
    EXPECT_EQ(read_file(dir.path() / "segment-000001.log"), golden);

    std::vector<unsigned char> reencoded;
    store::encode_record(reencoded, kKey1, kValue1);
    store::encode_record(reencoded, kKey2, kValue2);
    EXPECT_EQ(reencoded, golden);
}

TEST(CodecGolden, SnapshotLoadsAndReencodesToTheSameBytes) {
    const std::vector<unsigned char> golden = from_hex(kGoldenSnapshot);
    core::SnapshotTable table;
    ASSERT_TRUE(core::decode_snapshot(golden, "fp-golden", table));
    EXPECT_EQ(table, golden_table());
    std::vector<unsigned char> reencoded;
    core::encode_snapshot(reencoded, "fp-golden", table);
    EXPECT_EQ(reencoded, golden);

    // Through the cache itself: restored without a simulation, and saved
    // back byte for byte.
    TempDir dir("ehdoe-codec-snapshot");
    const std::filesystem::path path = dir.path() / "golden.ehcache";
    write_file(path, golden);
    auto inner = std::make_shared<core::InProcessBackend>(
        [](const num::Vector&) -> core::ResponseMap { throw std::logic_error("simulated"); },
        core::BackendOptions{});
    core::PersistentCache cache(inner, path.string(), "fp-golden", /*autosave=*/false);
    EXPECT_TRUE(cache.restored());
    EXPECT_EQ(cache.size(), 2u);
    const auto got = cache.evaluate({num::Vector{1.0, 2.0}});
    EXPECT_EQ(got[0], golden_table().at({1.0, 2.0}));
    ASSERT_TRUE(cache.save());
    EXPECT_EQ(read_file(path), golden);

    // A different simulation's snapshot is a cold cache, not an error.
    EXPECT_FALSE(core::decode_snapshot(golden, "fp-other", table));
}

TEST(CodecFrames, WritersRefuseABodyOverTheCapAndLeaveTheBufferIntact) {
    std::vector<unsigned char> out;
    net::encode_welcome(out, 7);
    const std::vector<unsigned char> before = out;
    // str := u64 length + bytes, so this message fills the body exactly...
    const std::string fits(static_cast<std::size_t>(net::kMaxFrameBody) - 8, 'x');
    net::encode_error(out, fits);
    EXPECT_EQ(out.size(), before.size() + net::kFrameHeaderBytes + net::kMaxFrameBody);
    // ...and one byte more is refused with a clear error, nothing appended.
    out = before;
    try {
        net::encode_error(out, fits + "x");
        FAIL() << "expected the over-cap frame to be refused";
    } catch (const std::length_error& e) {
        EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos) << e.what();
    }
    EXPECT_EQ(out, before);
}

// ---------------------------------------------------------------------------
// Deterministic mutation of every pure decoder.
// ---------------------------------------------------------------------------
namespace {

/// Random one-to-four-byte flips per decoder (~1.5 M decodes in all with
/// the truncations and hostile lengths; well under a second in Release).
constexpr int kFlipIterations = 100000;
/// Decoded containers may cost more than the bytes they came from (a map
/// node per 16-byte response, a 56-byte lookup per 8-byte flag), but only
/// by a constant factor: a hostile count can never multiply it.
constexpr std::size_t kAllocPerByte = 8;
constexpr std::size_t kAllocSlack = 1024;

struct Case {
    std::string name;
    std::vector<unsigned char> valid;
    std::function<bool(ByteView)> decode;
};

/// Wrap a frame-body decoder into a whole-frame decoder: the header's
/// kind and body_len are checked exactly as read_frame and EvalServer do.
template <class Decode>
std::function<bool(ByteView)> whole_frame(FrameKind want, Decode decode) {
    return [want, decode](ByteView bytes) {
        if (bytes.size < net::kFrameHeaderBytes) return false;
        FrameKind kind{};
        std::uint64_t len = 0;
        net::decode_frame_header(bytes.data, kind, len);
        if (kind != want || len > net::kMaxFrameBody ||
            len != bytes.size - net::kFrameHeaderBytes)
            return false;
        return decode(ByteView(bytes.data + net::kFrameHeaderBytes, static_cast<std::size_t>(len)));
    };
}

core::metrics::RingSnapshot sample_ring() {
    core::metrics::RingSnapshot ring;
    ring.interval_us = 250'000;
    ring.first_seq = 17;
    ring.series = {"served", "p99_us"};
    ring.rows = {{100, {3.0, 0.0}}, {200, {8.0, 120.5}}, {300, {21.0, 99.0}}};
    return ring;
}

std::vector<Case> all_cases() {
    std::vector<Case> cases;
    const auto add = [&](std::string name, std::vector<unsigned char> valid,
                         std::function<bool(ByteView)> decode) {
        cases.push_back({std::move(name), std::move(valid), std::move(decode)});
    };
    std::vector<unsigned char> b;

    net::Hello hello;
    hello.fingerprint = "S1:duration=30";
    hello.replicates = 3;
    net::encode_hello(b, hello);
    add("Hello", b, whole_frame(FrameKind::Hello, [](ByteView v) {
            net::Hello h;
            return net::decode_hello(v, h);
        }));

    const auto version = [](ByteView v) {
        std::uint32_t ver = 0;
        return net::decode_version(v, ver);
    };
    b.clear();
    net::encode_stats_request(b);
    add("StatsRequest", b, whole_frame(FrameKind::StatsRequest, version));
    b.clear();
    net::encode_store_hello(b);
    add("StoreHello", b, whole_frame(FrameKind::StoreHello, version));

    b.clear();
    net::encode_welcome(b, 123456789);
    add("Welcome", b, whole_frame(FrameKind::Welcome, [](ByteView v) {
            std::uint64_t t = 0;
            return net::decode_welcome(v, t);
        }));

    b.clear();
    net::encode_error(b, "scenario fingerprint mismatch: server evaluates 'a', client wants 'b'");
    add("Error", b, whole_frame(FrameKind::Error, [](ByteView v) {
            std::string m;
            return net::decode_error(v, m);
        }));

    net::ShardStats stats;
    stats.points_served = 45;
    stats.latency_buckets = {{10, 3}, {11, 1}, {400, 2}};
    stats.latency_p50_us = 120.0;
    stats.latency_p95_us = 450.0;
    stats.latency_p99_us = 900.0;
    stats.metrics = sample_ring();
    b.clear();
    net::encode_stats_reply(b, stats);
    add("StatsReply", b, whole_frame(FrameKind::StatsReply, [](ByteView v) {
            net::ShardStats s;
            return net::decode_stats_reply(v, s);
        }));

    const std::vector<num::Vector> points{{1.0, -2.0}, {0.5, 3.25}, {7.0, 0.0}};
    b.clear();
    net::encode_batch_request(b, points, {0, 1, 2});
    add("BatchRequest", b, whole_frame(FrameKind::BatchRequest, [](ByteView v) {
            std::vector<num::Vector> p;
            return net::decode_batch_request(v, p);
        }));

    std::vector<net::EvalResult> results(2);
    results[0].ok = true;
    results[0].responses = {{"E_harv", 0.125}, {"V_min", 2.75}};
    results[1].error = "simulation diverged";
    b.clear();
    net::encode_batch_result(b, results);
    add("BatchResult", b, whole_frame(FrameKind::BatchResult, [](ByteView v) {
            std::vector<net::EvalResult> r;
            return net::decode_batch_result(v, 2, r);
        }));

    b.clear();
    net::encode_store_get(b, {"S1|0x1p+0", "S1|0x1.8p+1", ""});
    add("StoreGet", b, whole_frame(FrameKind::StoreGet, [](ByteView v) {
            std::vector<std::string> k;
            return net::decode_store_get(v, k);
        }));

    b.clear();
    net::encode_store_put(b, {{"S1|0x1p+0", {{"f", 1.0}, {"g", -2.0}}}, {"S1|0x0p+0", {}}});
    add("StorePut", b, whole_frame(FrameKind::StorePut, [](ByteView v) {
            std::vector<net::StoreEntry> e;
            return net::decode_store_put(v, e);
        }));

    b.clear();
    net::encode_store_get_reply(b, {{true, {{"f", 1.0}, {"g", -2.0}}}, {false, {}}});
    add("StoreGetReply", b, whole_frame(FrameKind::StoreGetReply, [](ByteView v) {
            std::vector<net::StoreLookup> l;
            return net::decode_store_get_reply(v, 2, l);
        }));

    b.clear();
    net::encode_store_put_reply(b, 5);
    add("StorePutReply", b, whole_frame(FrameKind::StorePutReply, [](ByteView v) {
            std::uint64_t n = 0;
            return net::decode_store_put_reply(v, n);
        }));

    net::StoreStats store_stats;
    store_stats.keys = 46;
    store_stats.metrics = sample_ring();
    b.clear();
    net::encode_store_stats_reply(b, store_stats);
    add("StoreStatsReply", b, whole_frame(FrameKind::StoreStatsReply, [](ByteView v) {
            net::StoreStats s;
            return net::decode_store_stats_reply(v, s);
        }));

    // The segment header is read field by field off the file; its body is
    // the pure decode.
    const std::vector<unsigned char> segment = from_hex(kGoldenSegment);
    const std::uint64_t first_len = 0x51;
    add("SegmentRecordBody",
        std::vector<unsigned char>(segment.begin() + 16, segment.begin() + 16 + first_len),
        [](ByteView v) {
            std::string key;
            core::ResponseMap responses;
            return store::decode_record_body(v, key, responses);
        });

    add("Snapshot", from_hex(kGoldenSnapshot), [](ByteView v) {
        core::SnapshotTable table;
        return core::decode_snapshot(v, "fp-golden", table);
    });
    return cases;
}

/// Run one decode with allocation accounting; false when it allocated more
/// than the bound allows.
bool decode_within_budget(const Case& c, const std::vector<unsigned char>& input) {
    g_allocated = 0;
    g_counting = true;
    c.decode(ByteView(input));
    g_counting = false;
    return g_allocated <= kAllocPerByte * input.size() + kAllocSlack;
}

}  // namespace

TEST(CodecMutation, ValidInputsDecode) {
    for (const Case& c : all_cases()) EXPECT_TRUE(c.decode(ByteView(c.valid))) << c.name;
}

TEST(CodecMutation, EveryTruncationFails) {
    for (const Case& c : all_cases()) {
        for (std::size_t len = 0; len < c.valid.size(); ++len) {
            const std::vector<unsigned char> cut(c.valid.begin(), c.valid.begin() + len);
            EXPECT_TRUE(decode_within_budget(c, cut)) << c.name << " cut at " << len;
            EXPECT_FALSE(c.decode(ByteView(cut))) << c.name << " accepted a cut at " << len;
        }
    }
}

TEST(CodecMutation, HostileLengthsAtEveryOffsetStayWithinBudget) {
    const std::uint64_t cap = net::kMaxFrameBody;
    const std::uint64_t hostile[] = {0, cap - 1, cap, cap + 1, std::uint64_t{1} << 63};
    for (const Case& c : all_cases()) {
        for (std::size_t at = 0; at + sizeof(std::uint64_t) <= c.valid.size(); ++at) {
            for (const std::uint64_t v : hostile) {
                std::vector<unsigned char> m = c.valid;
                std::memcpy(m.data() + at, &v, sizeof v);
                EXPECT_TRUE(decode_within_budget(c, m)) << c.name << " offset " << at << " = " << v;
            }
        }
    }
}

TEST(CodecMutation, RandomByteFlipsStayWithinBudget) {
    std::uint64_t seed = 0x5eed;
    for (const Case& c : all_cases()) {
        std::mt19937_64 rng(++seed);
        std::uniform_int_distribution<std::size_t> at(0, c.valid.size() - 1);
        std::uniform_int_distribution<int> byte(0, 255);
        std::uniform_int_distribution<int> flips(1, 4);
        for (int i = 0; i < kFlipIterations; ++i) {
            std::vector<unsigned char> m = c.valid;
            for (int f = flips(rng); f > 0; --f) m[at(rng)] = static_cast<unsigned char>(byte(rng));
            ASSERT_TRUE(decode_within_budget(c, m)) << c.name << " seed " << seed << " iteration " << i;
        }
    }
}

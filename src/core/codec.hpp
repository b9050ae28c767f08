// ehdoe/core/codec.hpp
//
// The one byte codec behind every binary format the toolkit reads or
// writes: wire frames (net/wire.hpp), segment-log records
// (store/segment_log.hpp) and cache snapshots (core/persistent_cache.hpp).
// A Writer appends host-endian fields to a caller-owned buffer; a Reader
// walks a byte range with a bounds check on every field.
//
// The Reader never trusts a length or a count it has not checked against
// the bytes that remain: a string longer than the rest of its input, or a
// count of items that could not fit in it, fails the decode before any
// allocation. Its decodes therefore allocate in proportion to the bytes
// they were given, whatever those bytes claim.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace ehdoe::core::codec {

/// The one size cap: the largest body a wire frame or an on-disk record may
/// carry. A larger length is damage or hostility, never data.
inline constexpr std::uint64_t kMaxBody = std::uint64_t{1} << 24;

/// A read-only view of bytes (a buffer, or a frame inside a larger one).
struct ByteView {
    const unsigned char* data = nullptr;
    std::size_t size = 0;

    ByteView() = default;
    ByteView(const unsigned char* d, std::size_t n) : data(d), size(n) {}
    ByteView(const std::vector<unsigned char>& v) : data(v.data()), size(v.size()) {}
};

class Writer {
  public:
    explicit Writer(std::vector<unsigned char>& out) : out_(out) {}

    void bytes(const void* data, std::size_t len) {
        const auto* p = static_cast<const unsigned char*>(data);
        out_.insert(out_.end(), p, p + len);
    }
    void u32(std::uint32_t v) { bytes(&v, sizeof v); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    /// u64 length, then the bytes.
    void str(const std::string& s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    /// u64 n, n x { str name, f64 value } — the response map every format
    /// carries.
    void responses(const std::map<std::string, double>& m) {
        u64(m.size());
        for (const auto& [name, value] : m) {
            str(name);
            f64(value);
        }
    }

  private:
    std::vector<unsigned char>& out_;
};

class Reader {
  public:
    explicit Reader(ByteView in) : p_(in.data), end_(in.data + in.size) {}

    std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
    bool done() const { return p_ == end_; }

    bool bytes(void* dst, std::size_t len) {
        if (remaining() < len) return false;
        if (len > 0) std::memcpy(dst, p_, len);
        p_ += len;
        return true;
    }
    bool u32(std::uint32_t& v) { return bytes(&v, sizeof v); }
    bool u64(std::uint64_t& v) { return bytes(&v, sizeof v); }
    bool f64(double& v) { return bytes(&v, sizeof v); }
    /// A count of items each at least `min_item_bytes` long; false unless
    /// that many items could still fit in the remaining bytes.
    bool count(std::uint64_t& n, std::size_t min_item_bytes) {
        return u64(n) && n <= remaining() / min_item_bytes;
    }
    bool str(std::string& s) {
        std::uint64_t len = 0;
        if (!u64(len) || len > remaining()) return false;
        s.assign(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(len));
        p_ += len;
        return true;
    }
    bool responses(std::map<std::string, double>& m) {
        m.clear();
        std::uint64_t n = 0;
        if (!count(n, 2 * sizeof(std::uint64_t))) return false;
        for (std::uint64_t j = 0; j < n; ++j) {
            std::string name;
            double value = 0.0;
            if (!str(name) || !f64(value)) return false;
            m.emplace_hint(m.end(), std::move(name), value);
        }
        return true;
    }

  private:
    const unsigned char* p_;
    const unsigned char* end_;
};

}  // namespace ehdoe::core::codec

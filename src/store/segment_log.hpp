// ehdoe/store/segment_log.hpp
//
// The result store's storage engine: an append-only log of CRC-framed
// records sharded into fixed-size segment files, with the full key → value
// table held in an in-memory index that is rebuilt by scanning the
// segments on open. The design follows the append-only hash-keyed
// chain-state idiom: writes only ever append, so a crash can at worst
// leave a torn record at the tail of the *last* segment — never corrupt
// history — and recovery is a forward scan that stops believing the file
// at the first frame that fails its checksum.
//
// On-disk layout (all integers host-endian, matching the wire codec):
//
//   <dir>/segment-000001.log, segment-000002.log, ...   (append-only)
//   <dir>/segment-NNNNNN.log.quarantined                (set aside, never read)
//   <dir>/compact.tmp                                   (compaction scratch)
//
//   record := u32 magic "EHRS", u32 crc32(body), u64 body_len, body
//   body   := u64 key_len, key bytes,
//             u64 n, n x { u64 name_len, bytes, f64 value }
//
// Bodies are written and read through core/codec.hpp, the codec the wire
// frames use; a body_len over its cap is damage, not data.
//
// Recovery semantics, per segment in sequence order:
//  * a clean scan loads every record into the index;
//  * a torn tail (truncated header or body) on the *newest* segment is the
//    expected crash signature — the file is truncated back to its last
//    whole record and appending resumes after it;
//  * anything else — a CRC mismatch, a bad magic, an insane length, or a
//    torn tail on a sealed (non-newest) segment — quarantines the segment:
//    it is renamed to `<name>.quarantined`, the records that scanned clean
//    before the damage stay in the index, the event is logged to stderr,
//    and reads simply miss whatever was lost (the store tier above falls
//    through to simulation, so corruption degrades cost, never answers).
//
// Appends rotate to a fresh segment once the active file passes
// `max_segment_bytes`, so quarantine loss is bounded by one segment.
// compact() rewrites the live table into a single fresh segment chain
// offline (crash-safe via compact.tmp + rename; an orphaned compact.tmp is
// adopted on open iff the crash already deleted the old segments).
//
// A duplicate put — a key that is already indexed with bitwise-identical
// responses — is acknowledged without re-appending, so replayed batches
// from racing farm clients do not grow the log. A key re-put with
// *different* bits is appended and last-writer-wins on rebuild; with
// deterministic simulations this only happens when fingerprints collide
// across incompatible binaries, which the key prefix exists to prevent.
//
// Thread safety: every public method locks the one internal mutex, so a
// multi-connection server serializes appends here — this is the property
// that retires the PersistentCache racing-writers caveat for farm use.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/eval_backend.hpp"

namespace ehdoe::store {

struct SegmentLogOptions {
    /// Rotation threshold: an append that would push the active segment
    /// past this many bytes seals it and opens the next one.
    std::size_t max_segment_bytes = 8u << 20;
    /// Log recovery events (torn-tail truncation, quarantine) to stderr.
    bool verbose = true;
};

/// Lifetime counters (this process; recovery counters from the open scan).
struct SegmentLogCounters {
    std::uint64_t records_restored = 0;      ///< loaded by the open scan
    std::uint64_t torn_tails_truncated = 0;  ///< crash tails cut on open
    std::uint64_t quarantined_segments = 0;  ///< corrupt segments set aside
    std::uint64_t records_appended = 0;      ///< new records this process
    std::uint64_t duplicate_puts = 0;        ///< acknowledged, not appended
};

class SegmentLog {
  public:
    /// Opens (creating the directory if needed), scans every segment in
    /// sequence order, rebuilds the index and opens the newest segment for
    /// appending. Throws std::runtime_error when the directory cannot be
    /// created or the active segment cannot be opened for writing.
    explicit SegmentLog(std::string dir, SegmentLogOptions options = {});
    ~SegmentLog();

    SegmentLog(const SegmentLog&) = delete;
    SegmentLog& operator=(const SegmentLog&) = delete;

    /// True and fills `out` when `key` is indexed.
    bool get(const std::string& key, core::ResponseMap& out) const;

    /// Appends (or acknowledges a bitwise duplicate of) one record.
    /// Returns true when a record was newly appended. Throws
    /// std::runtime_error on I/O failure.
    bool put(const std::string& key, const core::ResponseMap& responses);

    /// Offline compaction: rewrite the live table into one fresh segment
    /// chain, dropping superseded records and deleting quarantined files.
    /// Callers must ensure no server is appending concurrently (the lock
    /// only covers this process). Throws std::runtime_error on I/O failure.
    void compact();

    std::size_t size() const;           ///< distinct keys indexed
    std::size_t segment_count() const;  ///< live (non-quarantined) segments
    SegmentLogCounters counters() const;
    const std::string& dir() const { return dir_; }

  private:
    void open_active_locked(std::size_t seq, std::size_t resume_bytes);
    void scan_locked();
    void append_record_locked(const std::string& key, const core::ResponseMap& responses);

    mutable std::mutex mutex_;
    std::string dir_;
    SegmentLogOptions options_;
    std::map<std::string, core::ResponseMap> index_;
    SegmentLogCounters counters_;
    std::size_t live_segments_ = 0;
    std::FILE* active_ = nullptr;
    std::string active_path_;
    std::size_t active_seq_ = 0;
    std::size_t active_bytes_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes — the record
/// framing checksum, exposed for tests that forge corrupt segments.
std::uint32_t crc32_ieee(const void* data, std::size_t len);

/// Append one whole record (header + body) to `out`.
void encode_record(std::vector<unsigned char>& out, const std::string& key,
                   const core::ResponseMap& responses);
/// Decode one record body; false on anything malformed, trailing bytes
/// included.
bool decode_record_body(core::codec::ByteView body, std::string& key,
                        core::ResponseMap& responses);

}  // namespace ehdoe::store

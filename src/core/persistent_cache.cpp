#include "core/persistent_cache.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>

#include "core/telemetry.hpp"

namespace ehdoe::core {

namespace {

constexpr char kMagic[7] = {'E', 'H', 'D', 'O', 'E', 'C', '\0'};
constexpr std::uint8_t kFormatVersion = 1;

}  // namespace

void encode_snapshot(std::vector<unsigned char>& out, const std::string& fingerprint,
                     const SnapshotTable& table) {
    codec::Writer w(out);
    w.bytes(kMagic, sizeof kMagic);
    w.bytes(&kFormatVersion, 1);
    w.str(fingerprint);
    w.u64(table.size());
    for (const auto& [key, responses] : table) {
        w.u64(key.size());
        w.bytes(key.data(), sizeof(double) * key.size());
        w.responses(responses);
    }
}

bool decode_snapshot(codec::ByteView file, const std::string& fingerprint, SnapshotTable& table) {
    codec::Reader r(file);
    char magic[sizeof kMagic];
    std::uint8_t version = 0;
    std::string fp;
    std::uint64_t n_entries = 0;
    if (!r.bytes(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0 ||
        !r.bytes(&version, 1) || version != kFormatVersion || !r.str(fp) || fp != fingerprint ||
        !r.count(n_entries, 2 * sizeof(std::uint64_t)))
        return false;  // a different simulation's file invalidates too

    // Parse into a local table: a truncated or corrupt tail must not leave
    // a half-restored cache behind.
    SnapshotTable parsed;
    for (std::uint64_t e = 0; e < n_entries; ++e) {
        std::uint64_t dim = 0;
        if (!r.count(dim, sizeof(double))) return false;
        std::vector<double> key(static_cast<std::size_t>(dim));
        ResponseMap responses;
        if (!r.bytes(key.data(), sizeof(double) * key.size()) || !r.responses(responses))
            return false;
        parsed.emplace(std::move(key), std::move(responses));
    }
    if (!r.done()) return false;
    table = std::move(parsed);
    return true;
}

PersistentCache::PersistentCache(std::shared_ptr<EvalBackend> inner, std::string path,
                                 std::string fingerprint, bool autosave)
    : inner_(std::move(inner)),
      path_(std::move(path)),
      fingerprint_(std::move(fingerprint)),
      autosave_(autosave) {
    if (!inner_) throw std::invalid_argument("PersistentCache: inner backend required");
    if (path_.empty()) throw std::invalid_argument("PersistentCache: cache path required");
    load();
}

PersistentCache::~PersistentCache() {
    if (autosave_) save();  // best effort; a failed snapshot only costs warmth
}

namespace {

/// Read and decode the snapshot at `path`; false for a missing file and
/// for every failure decode_snapshot() names — the caller treats each as a
/// cold cache.
bool load_snapshot(const std::string& path, const std::string& fingerprint,
                   SnapshotTable& staged) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;  // no snapshot yet: cold cache
    const std::vector<unsigned char> file((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    return !in.bad() && decode_snapshot(file, fingerprint, staged);
}

/// Remove '<path>.<pid>.tmp' orphans whose writer is gone — a process
/// killed between open and rename leaves its pid-unique temporary behind,
/// and no later save would ever touch it. Best effort; never throws.
void reap_stale_temporaries(const std::string& path) {
    try {
        const std::filesystem::path snapshot(path);
        const std::string prefix = snapshot.filename().string() + ".";
        const std::filesystem::path dir =
            snapshot.has_parent_path() ? snapshot.parent_path() : ".";
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name.size() <= prefix.size() + 4 || name.compare(0, prefix.size(), prefix) != 0 ||
                name.compare(name.size() - 4, 4, ".tmp") != 0)
                continue;
            const std::string pid_part = name.substr(prefix.size(), name.size() - prefix.size() - 4);
            if (pid_part.empty() ||
                pid_part.find_first_not_of("0123456789") != std::string::npos)
                continue;
            const pid_t pid = static_cast<pid_t>(std::strtol(pid_part.c_str(), nullptr, 10));
            if (pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH) {
                std::error_code ec;
                std::filesystem::remove(entry.path(), ec);
            }
        }
    } catch (...) {
        // Directory races or permissions: cleanliness is not worth failing a load.
    }
}

/// Advisory flock on '<path>.lock' held for the duration of one save, so
/// concurrent savers serialize their read-merge-write cycles instead of
/// both loading the same on-disk state and the slower rename dropping the
/// faster writer's fresh entries. The lock file is a *sibling* — locking
/// the snapshot itself would not survive the rename (the inode the lock
/// lives on is replaced) — and is deliberately never unlinked: removing it
/// would let a latecomer lock a fresh inode while an existing holder still
/// owns the old one, silently re-admitting the race. Best effort: where
/// the lock cannot be taken (read-only dir, exotic filesystem) the save
/// degrades to the old merge-without-lock behaviour instead of failing.
class SaveLock {
  public:
    explicit SaveLock(const std::string& snapshot_path) {
        const std::string lock_path = snapshot_path + ".lock";
        fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~SaveLock() {
        if (fd_ >= 0) ::close(fd_);  // closing releases the flock
    }
    SaveLock(const SaveLock&) = delete;
    SaveLock& operator=(const SaveLock&) = delete;

  private:
    int fd_ = -1;
};

}  // namespace

void PersistentCache::load() {
    reap_stale_temporaries(path_);
    SnapshotTable staged;
    if (!load_snapshot(path_, fingerprint_, staged)) return;
    table_ = std::move(staged);
    restored_ = true;
}

bool PersistentCache::save() const {
    telemetry::Span span("cache-save", "cache");
    span.arg("entries", static_cast<std::uint64_t>(table_.size()));
    // Concurrent writers (several flows sharing one snapshot as their
    // result store): under the advisory save lock, fold in whatever a
    // compatible snapshot on disk holds beyond our own table, so racing
    // savers converge on the union — each one reads the previous writer's
    // complete file before renaming its own. In-memory entries win ties;
    // the atomic tmp+rename below guarantees readers (which never take the
    // lock) only ever see a complete file.
    const SaveLock lock(path_);
    SnapshotTable merged;
    if (load_snapshot(path_, fingerprint_, merged)) {
        for (const auto& [key, responses] : table_) merged[key] = responses;
    } else {
        merged = table_;
    }

    // The tmp path carries the pid so two processes saving at once cannot
    // interleave writes into one half-written temporary.
    const std::string tmp = path_ + "." + std::to_string(::getpid()) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;  // never opened: nothing to clean up
        std::vector<unsigned char> file;
        encode_snapshot(file, fingerprint_, merged);
        out.write(reinterpret_cast<const char*>(file.data()),
                  static_cast<std::streamsize>(file.size()));
        if (!out) {
            // A failed write (disk full, ...) must not leave the pid-unique
            // temporary behind to accumulate across runs.
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::vector<ResponseMap> PersistentCache::evaluate(const std::vector<Vector>& points) {
    const std::size_t n = points.size();
    std::vector<ResponseMap> out(n);

    telemetry::Span span("cache-evaluate", "cache");

    std::vector<Vector> misses;
    std::vector<std::size_t> miss_index;
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<double> key(points[i].begin(), points[i].end());
        if (const auto hit = table_.find(key); hit != table_.end()) {
            out[i] = hit->second;
            ++hits_;
        } else {
            misses.push_back(points[i]);
            miss_index.push_back(i);
        }
    }
    span.arg("points", static_cast<std::uint64_t>(n));
    span.arg("hits", static_cast<std::uint64_t>(n - misses.size()));
    span.arg("misses", static_cast<std::uint64_t>(misses.size()));

    if (!misses.empty()) {
        // A throwing inner backend commits nothing: the table keeps only
        // results that were actually produced.
        std::vector<ResponseMap> fresh = inner_->evaluate(misses);
        for (std::size_t m = 0; m < misses.size(); ++m) {
            table_[std::vector<double>(misses[m].begin(), misses[m].end())] = fresh[m];
            out[miss_index[m]] = std::move(fresh[m]);
        }
    }
    return out;
}

}  // namespace ehdoe::core

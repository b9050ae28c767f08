// In-memory span recorder of the traced mode, and the interval algebra that
// folds its spans into per-layer self time.
//
// Spans are recorded only from outside the library: around calls into its
// public functions (DesignFlow phases, BatchRunner::evaluate, EvalBackend
// decorators, the simulation closure) and from its public progress
// callback. Nothing inside src/ is instrumented. A disabled recorder costs
// one relaxed atomic load per call site and reads no clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What a span covers. Each workload documents which kinds nest in which.
enum Kind : int {
    kOp,         ///< one timed operation
    kConstruct,  ///< DesignFlow construction (batch engine + backend stack)
    kCcd,        ///< DesignFlow::run_ccd
    kFit,        ///< DesignFlow::fit_all
    kValidate,   ///< DesignFlow::validate
    kOptimize,   ///< DesignFlow::optimize
    kQuery,      ///< DesignFlow::sweep / predict_all
    kEvaluate,   ///< BatchRunner::evaluate
    kWindow,     ///< executing-backend call, rebuilt from its on_batch reports
    kNet,        ///< RemoteBackend::evaluate
    kStore,      ///< StoreBackend::evaluate
    kInner,      ///< the in-process backend under StoreBackend
    kSim,        ///< one call of the simulation closure (tag = shard)
    kKindCount
};

struct Span {
    int kind = 0;
    int tag = 0;
    double t0 = 0.0;  ///< ms since the recorder's epoch
    double t1 = 0.0;
    double length() const { return t1 - t0; }
};

class Recorder {
public:
    Recorder() : epoch_(Clock::now()) {}

    void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    double now() const { return ms_between(epoch_, Clock::now()); }

    void add(int kind, double t0, double t1, int tag = 0) {
        if (!enabled()) return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{kind, tag, t0, t1});
    }

    /// Hand over every span recorded so far and start afresh.
    std::vector<Span> take() {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Span> out;
        out.swap(spans_);
        return out;
    }

private:
    Clock::time_point epoch_;
    std::atomic<bool> on_{false};
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span; reads no clock when the recorder is off at construction.
class Scoped {
public:
    Scoped(Recorder& rec, int kind, int tag = 0)
        : rec_(rec), kind_(kind), tag_(tag), live_(rec.enabled()), t0_(live_ ? rec.now() : 0.0) {}
    ~Scoped() {
        if (live_) rec_.add(kind_, t0_, rec_.now(), tag_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    Recorder& rec_;
    int kind_;
    int tag_;
    bool live_;
    double t0_;
};

// ---- interval algebra --------------------------------------------------

using Interval = std::pair<double, double>;

/// Length of the union of intervals (overlaps counted once).
inline double union_length(std::vector<Interval> iv) {
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double lo = 0.0, hi = 0.0;
    bool open = false;
    for (const Interval& i : iv) {
        if (i.second <= i.first) continue;
        if (!open || i.first > hi) {
            if (open) total += hi - lo;
            lo = i.first;
            hi = i.second;
            open = true;
        } else {
            hi = std::max(hi, i.second);
        }
    }
    if (open) total += hi - lo;
    return total;
}

/// Intervals of every span of `kind`.
inline std::vector<Interval> intervals_of(const std::vector<Span>& spans, int kind) {
    std::vector<Interval> out;
    for (const Span& s : spans) {
        if (s.kind == kind) out.emplace_back(s.t0, s.t1);
    }
    return out;
}

/// Summed length of every span of `kind`.
inline double total_of(const std::vector<Span>& spans, int kind) {
    double t = 0.0;
    for (const Span& s : spans) {
        if (s.kind == kind) t += s.length();
    }
    return t;
}

inline std::size_t count_of(const std::vector<Span>& spans, int kind) {
    return static_cast<std::size_t>(std::count_if(
        spans.begin(), spans.end(), [kind](const Span& s) { return s.kind == kind; }));
}

}  // namespace perfbench

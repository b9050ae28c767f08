// One benchmark run: the session loop, operation timing, set-up accounting,
// correctness bookkeeping and the result line.
//
// A run is a series of sessions; each session sets itself up, then performs
// a fixed number of operations. Sessions start while the run is younger
// than --seconds or has timed fewer than kMinOpsForP10 operations, so every
// run attempts whole sessions and at least enough operations for a 10th
// percentile.
//
// The end-to-end metrics resist the host's slow phases: setup_s is the
// median session set-up, points_per_s counts the
// fastest quarter of the operations, and op_p10_ms is the 10th percentile.
//
// With --trace 1 the run alternates traced and untraced operations: even
// operations record spans, odd ones do not. Span-derived layer times are
// normalised per traced operation, counter-derived counts per operation,
// and the traced/untraced latency difference is the recorder's overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "recorder.hpp"
#include "stats.hpp"

namespace perfbench {

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;   ///< scratch space inside the checkout
    std::string mock_sim;  ///< path of the mock co-simulator binary
};

/// SplitMix64: derives independent, reproducible seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}
inline std::uint64_t derive_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
    return mix_seed(mix_seed(mix_seed(a) ^ b) ^ c);
}

/// An operation threw; the session it belongs to ends there.
struct OpFailed : std::exception {
    const char* what() const noexcept override { return "operation failed"; }
};

/// Every per-layer metric a traced run reports, with its unit. Each workload
/// reports all of them; a layer the workload does not run reads 0.
struct LayerMetric {
    const char* name;
    const char* unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

class Run {
public:
    /// Latency slots are allocated and touched up front, so the run's
    /// resident memory does not grow with its operation count.
    static constexpr std::size_t kOpCapacity = std::size_t{1} << 19;

    explicit Run(Config config);

    const Config& config() const { return config_; }
    Recorder& rec() { return rec_; }
    std::size_t sessions() const { return sessions_; }

    /// Whether to start another session of `ops_per_session` operations;
    /// counts the session when it answers yes.
    bool another_session(std::size_t ops_per_session);

    /// One session's set-up, by component.
    void add_session_setup(double scenario_ms, double stack_ms, double warmup_ms);

    /// Time one operation. `body` returns the design points it answered.
    /// Spans are recorded inside it when the operation is a traced one. A
    /// throwing body counts as failed and raises OpFailed.
    template <class Body>
    void op(Body&& body) {
        const bool traced = config_.trace && (attempted_ % 2 == 0);
        ++attempted_;
        rec_.set_enabled(traced);
        const double s0 = traced ? rec_.now() : 0.0;
        const Clock::time_point t0 = Clock::now();
        std::size_t points = 0;
        try {
            points = body();
        } catch (const std::exception& e) {
            rec_.set_enabled(false);
            ++failed_;
            note("operation failed: " + std::string(e.what()));
            throw OpFailed{};
        }
        const Clock::time_point t1 = Clock::now();
        if (traced) rec_.add(kOp, s0, rec_.now());
        rec_.set_enabled(false);
        record_latency(ms_between(t0, t1), traced, points);
    }

    /// Whether the most recent operation recorded spans.
    bool last_op_traced() const { return last_traced_; }
    /// Wall time of the most recent operation.
    double last_op_ms() const { return last_ms_; }

    /// A correctness check's verdict: empty passes, text fails the run.
    void check(const std::string& verdict, const std::string& where);
    bool correct() const { return check_failures_ == 0; }

    /// Accumulate a per-layer quantity (summed over the run).
    void add(const std::string& name, double value) { sums_[name] += value; }
    double sum(const std::string& name) const;

    /// Set a per-layer metric of the result (one of kLayerMetrics).
    void layer(const std::string& name, double value);
    /// Per traced operation / per operation / per session averages of a sum.
    double per_traced_op(const std::string& name) const;
    double per_op(const std::string& name) const;
    double per_session(const std::string& name) const;

    /// Print the detail line and the result line; returns the exit code.
    int finish();

private:
    void record_latency(double ms, bool traced, std::size_t points);
    void note(const std::string& text);

    Config config_;
    Recorder rec_;
    Clock::time_point started_;
    std::vector<double> latency_;       ///< per operation, ms
    std::vector<std::uint32_t> points_; ///< per operation, design points answered
    std::vector<unsigned char> traced_; ///< per operation, whether it recorded spans
    std::vector<double> session_setup_ms_;
    std::size_t ops_ = 0;
    std::size_t traced_ops_ = 0;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t sessions_ = 0;
    bool last_traced_ = false;
    double last_ms_ = 0.0;
    std::size_t check_failures_ = 0;
    std::size_t notes_ = 0;
    std::map<std::string, double> sums_;
    std::map<std::string, double> layers_;
};

}  // namespace perfbench

#include "run.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Full-precision JSON number.
std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double peak_rss_mib() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

const std::vector<LayerMetric> kLayerMetrics = {
    {"setup.scenario_ms", "ms"},       {"setup.stack_ms", "ms"},
    {"setup.warmup_ms", "ms"},         {"sim.calls", "count/op"},
    {"sim.busy_ms", "ms/op"},          {"sim.call_mean_us", "us"},
    {"doe.points", "count/op"},        {"doe.simulations", "count/op"},
    {"doe.memo_hits", "count/op"},     {"doe.batches", "count/op"},
    {"doe.evaluate_ms", "ms/op"},      {"doe.self_ms", "ms/op"},
    {"inproc.self_ms", "ms/op"},       {"rsm.fit_ms", "ms/op"},
    {"rsm.validate_ms", "ms/op"},      {"rsm.query_ms", "ms/op"},
    {"rsm.queries", "count/op"},       {"opt.search_ms", "ms/op"},
    {"opt.rsm_evals", "count/op"},     {"opt.anneal_self_ms", "ms/op"},
    {"net.batches", "count/op"},       {"net.batch_ms", "ms/op"},
    {"net.shard_busy_ms", "ms/op"},    {"net.overhead_ms", "ms/op"},
    {"net.points_served", "count/op"}, {"store.gets", "count/op"},
    {"store.get_hits", "count/op"},    {"store.puts", "count/op"},
    {"store.keys", "count"},           {"store.self_ms", "ms/op"},
    {"exec.launches", "count/op"},     {"exec.relaunches", "count/op"},
    {"exec.busy_ms", "ms/op"},         {"exec.launch_p50_us", "us"},
    {"unattributed_ms", "ms/op"},      {"trace_overhead_ms", "ms/op"},
};

Run::Run(Config config)
    : config_(std::move(config)),
      started_(Clock::now()),
      latency_(kOpCapacity, 0.0),
      points_(kOpCapacity, 0),
      traced_(kOpCapacity, 0) {}

bool Run::another_session(std::size_t ops_per_session) {
    if (ops_ + ops_per_session > kOpCapacity) return false;
    const double elapsed_s = ms_between(started_, Clock::now()) / 1000.0;
    const bool go = sessions_ == 0 || elapsed_s < config_.seconds || ops_ < kMinOpsForP10;
    if (go) ++sessions_;
    return go;
}

void Run::add_session_setup(double scenario_ms, double stack_ms, double warmup_ms) {
    sums_["setup.scenario_ms"] += scenario_ms;
    sums_["setup.stack_ms"] += stack_ms;
    sums_["setup.warmup_ms"] += warmup_ms;
    session_setup_ms_.push_back(scenario_ms + stack_ms + warmup_ms);
}

void Run::record_latency(double ms, bool traced, std::size_t points) {
    last_traced_ = traced;
    last_ms_ = ms;
    latency_[ops_] = ms;
    points_[ops_] = static_cast<std::uint32_t>(points);
    traced_[ops_] = traced ? 1 : 0;
    ++ops_;
    if (traced) ++traced_ops_;
}

void Run::note(const std::string& text) {
    // The first few diagnoses are enough to act on; the count says the rest.
    if (++notes_ <= 5) std::cerr << "perfbench: " << text << "\n";
}

void Run::check(const std::string& verdict, const std::string& where) {
    if (verdict.empty()) return;
    ++check_failures_;
    note("check failed (" + where + "): " + verdict);
}

double Run::sum(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
}

double Run::per_traced_op(const std::string& name) const {
    return traced_ops_ ? sum(name) / static_cast<double>(traced_ops_) : 0.0;
}
double Run::per_op(const std::string& name) const {
    return ops_ ? sum(name) / static_cast<double>(ops_) : 0.0;
}
double Run::per_session(const std::string& name) const {
    return sessions_ ? sum(name) / static_cast<double>(sessions_) : 0.0;
}

void Run::layer(const std::string& name, double value) {
    for (const LayerMetric& m : kLayerMetrics) {
        if (name == m.name) {
            layers_[name] = value;
            return;
        }
    }
    throw std::logic_error("unknown per-layer metric " + name);
}

int Run::finish() {
    const std::vector<double> all(latency_.begin(), latency_.begin() + ops_);
    const std::vector<std::uint32_t> points(points_.begin(), points_.begin() + ops_);
    std::vector<double> traced, untraced;
    for (std::size_t i = 0; i < ops_; ++i) (traced_[i] ? traced : untraced).push_back(latency_[i]);

    const std::optional<double> p = p10(all);
    const double setup_s = quantile(session_setup_ms_, 0.5) / 1000.0;

    // Reference figures: p50/p90 and the whole-run throughput say which speed
    // mode the run landed in; fast_share is the share of operations within
    // 1.25x the run's p10.
    std::cout << "detail {\"workload\": \"" << config_.workload << "\", \"seed\": " << config_.seed
              << ", \"sessions\": " << sessions_ << ", \"ops\": " << ops_
              << ", \"wall_s\": " << num(ms_between(started_, Clock::now()) / 1000.0)
              << ", \"op_p50_ms\": " << num(quantile(all, 0.5))
              << ", \"op_p90_ms\": " << num(quantile(all, 0.9))
              << ", \"whole_run_points_per_s\": " << num(throughput(all, points, 1.0))
              << ", \"fast_share\": " << num(p ? share_within(all, *p, 1.25) : 0.0) << "}\n";

    std::string metrics;
    auto put = [&metrics](const std::string& name, double value, const std::string& unit) {
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" + unit + "\"}";
    };
    bool ok = correct() && ops_ > 0;
    if (!config_.trace) {
        if (!p) {
            note("fewer than " + std::to_string(kMinOpsForP10) + " operations; no p10");
            ok = false;
        }
        put("setup_s", setup_s, "s");
        put("points_per_s", throughput(all, points, kFastShare), "1/s");
        put("op_p10_ms", p.value_or(0.0), "ms");
        put("peak_rss_mb", peak_rss_mib(), "MiB");
    } else {
        for (const char* s : {"setup.scenario_ms", "setup.stack_ms", "setup.warmup_ms"})
            layer(s, per_session(s));
        layer("unattributed_ms", per_traced_op("unattributed_ms"));
        layer("trace_overhead_ms", mean(traced) - mean(untraced));
        for (const LayerMetric& m : kLayerMetrics) {
            const auto it = layers_.find(m.name);
            put(m.name, it == layers_.end() ? 0.0 : it->second, m.unit);
        }
    }
    std::cout << "{\"correct\": " << (ok ? "true" : "false") << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {" << metrics << "}}" << std::endl;
    return ok ? 0 : 1;
}

}  // namespace perfbench

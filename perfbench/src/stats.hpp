// Order statistics of per-operation latencies.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Fewest operations a run must time before it may report a 10th
/// percentile: below this the percentile rests on fewer than ten samples.
inline constexpr std::size_t kMinOpsForP10 = 100;

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/// The 10th percentile, or nothing when fewer than kMinOpsForP10 values.
inline std::optional<double> p10(const std::vector<double>& v) {
    if (v.size() < kMinOpsForP10) return std::nullopt;
    return quantile(v, 0.10);
}

/// Share of values within `factor` times the reference (e.g. the run's p10):
/// how much of a run the host spent in its fast mode.
inline double share_within(const std::vector<double>& v, double reference, double factor) {
    if (v.empty()) return 0.0;
    const double limit = reference * factor;
    const auto n = std::count_if(v.begin(), v.end(), [limit](double x) { return x <= limit; });
    return static_cast<double>(n) / static_cast<double>(v.size());
}

/// Share of a run's operations points_per_s counts: the fastest quarter. On
/// a host whose speed shifts between modes, the slower operations measure
/// which mode held (see README, "Reference figures").
inline constexpr double kFastShare = 0.25;

/// Design points per second over the fastest `share` of operations (share 1
/// is the whole run): the summed points of those operations over their
/// summed time. `ms` and `points` are per operation.
inline double throughput(const std::vector<double>& ms, const std::vector<std::uint32_t>& points,
                         double share) {
    if (ms.empty()) return 0.0;
    std::vector<std::size_t> order(ms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&ms](std::size_t a, std::size_t b) {
        return ms[a] < ms[b];
    });
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(share * static_cast<double>(ms.size()))));
    double t = 0.0, p = 0.0;
    for (std::size_t i = 0; i < std::min(n, order.size()); ++i) {
        t += ms[order[i]];
        p += points[order[i]];
    }
    return t > 0.0 ? 1000.0 * p / t : 0.0;
}

inline double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

}  // namespace perfbench

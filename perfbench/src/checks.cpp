#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

namespace perfbench::checks {

namespace {

std::string fmt(const char* format, double a, double b) {
    char buf[160];
    std::snprintf(buf, sizeof buf, format, a, b);
    return buf;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::string same_responses(const ehdoe::core::ResponseMap& got,
                           const ehdoe::core::ResponseMap& want) {
    if (got.size() != want.size()) return "response count differs";
    for (const auto& [name, value] : want) {
        const auto it = got.find(name);
        if (it == got.end()) return "response " + name + " missing";
        if (!bits_equal(it->second, value))
            return name + fmt(": got %a, direct simulation %a", it->second, value);
    }
    return {};
}

std::string same_bits(const std::string& what, double got, double want) {
    if (bits_equal(got, want)) return {};
    return what + fmt(": got %a, expected %a", got, want);
}

std::string same_count(const std::string& what, std::size_t got, std::size_t want) {
    if (got == want) return {};
    return what + ": got " + std::to_string(got) + ", expected " + std::to_string(want);
}

std::size_t distinct_rows(const ehdoe::num::Matrix& points) {
    std::set<std::vector<double>> rows;
    for (std::size_t i = 0; i < points.rows(); ++i) {
        const double* r = points.row_ptr(i);
        rows.emplace(r, r + points.cols());
    }
    return rows.size();
}

std::string normal_equations(const ehdoe::rsm::FitResult& fit,
                             const ehdoe::num::Matrix& coded, const std::vector<double>& y) {
    const std::size_t n = coded.rows();
    const std::size_t k = coded.cols();
    const auto& terms = fit.model.terms();
    if (y.size() != n) return "response column length differs from the design";
    if (fit.coefficients.size() != terms.size()) return "coefficient count differs from the model";

    std::vector<double> r(n);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double pred = 0.0;
        for (std::size_t t = 0; t < terms.size(); ++t) {
            double term = 1.0;
            for (std::size_t f = 0; f < k; ++f) {
                for (unsigned e = 0; e < terms[t].exponents[f]; ++e) term *= coded(i, f);
            }
            pred += fit.coefficients[t] * term;
        }
        r[i] = y[i] - pred;
        scale += std::fabs(y[i]);
    }
    const double tol = kRoundOff * std::max(scale, 1e-300);

    double sum = 0.0;
    for (double v : r) sum += v;
    if (std::fabs(sum) > tol) return fmt("residuals sum to %.3g (allowance %.3g)", sum, tol);
    for (std::size_t f = 0; f < k; ++f) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += r[i] * coded(i, f);
        if (std::fabs(dot) > tol)
            return "factor " + std::to_string(f) +
                   fmt(": residuals not orthogonal (%.3g, allowance %.3g)", dot, tol);
    }

    double ybar = 0.0;
    for (double v : y) ybar += v;
    ybar /= static_cast<double>(n);
    double sse = 0.0, sst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sse += r[i] * r[i];
        sst += (y[i] - ybar) * (y[i] - ybar);
    }
    const double r2 = sst > 0.0 ? 1.0 - sse / sst : 1.0;
    if (std::fabs(r2 - fit.r_squared()) > kRoundOff)
        return fmt("R^2 computed here %.17g, fit reports %.17g", r2, fit.r_squared());
    return {};
}

std::string optimum_on_surface(const ehdoe::core::OptimizationOutcome& out,
                               const ehdoe::rsm::ResponseSurface& objective) {
    for (std::size_t f = 0; f < out.coded.size(); ++f) {
        if (!(out.coded[f] >= -1.0 && out.coded[f] <= 1.0))
            return "optimum leaves the coded cube at factor " + std::to_string(f);
    }
    return same_bits("optimum prediction", out.predicted, objective.value(out.coded));
}

std::string validation_floor(const ehdoe::rsm::ValidationReport& report,
                             ehdoe::core::ScenarioId scenario) {
    const double floor = kValidationR2Floor[static_cast<int>(scenario)];
    if (report.r_squared >= floor) return {};
    return fmt("held-out R^2 %.4f below the floor %.2f", report.r_squared, floor);
}

}  // namespace perfbench::checks

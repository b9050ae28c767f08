// Self-tests of the benchmark's own code: the p10 minimum, the interval
// algebra of the fold, and every correctness check
// failing on the smallest perturbation it exists to catch (one ulp for the
// bit-exact checks, one for the counts, just past the allowance for the
// round-off checks). Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/scenario.hpp"
#include "doe/composite.hpp"
#include "recorder.hpp"
#include "rsm/fit.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAILED: %s\n", what);
    }
}
void passes(const std::string& verdict, const char* what) {
    if (!verdict.empty()) std::fprintf(stderr, "  (%s)\n", verdict.c_str());
    expect(verdict.empty(), what);
}
void fails(const std::string& verdict, const char* what) { expect(!verdict.empty(), what); }

double ulp_up(double x) { return std::nextafter(x, std::numeric_limits<double>::infinity()); }

using namespace perfbench;
namespace core = ehdoe::core;

void test_p10() {
    std::vector<double> v;
    for (int i = 0; i < 99; ++i) v.push_back(100.0 - i);
    expect(!p10(v).has_value(), "no p10 under 100 operations");
    v.push_back(0.5);
    expect(p10(v).has_value(), "p10 from 100 operations");
    // 100 values 0.5, 2..100: rank 9.9 lies between 10 and 11.
    expect(std::fabs(*p10(v) - 10.9) < 1e-12, "p10 interpolates between order statistics");
    expect(share_within({1.0, 1.2, 1.3, 2.0}, 1.0, 1.25) == 0.5, "fast share");
    // Faster half of {2 ms: 4 points, 1 ms: 4, 10 ms: 4, 3 ms: 4} = 8 points in 3 ms.
    const std::vector<double> ms = {2.0, 1.0, 10.0, 3.0};
    const std::vector<std::uint32_t> pts = {4, 4, 4, 4};
    expect(std::fabs(throughput(ms, pts, 0.5) - 8000.0 / 3.0) < 1e-9, "faster-half throughput");
    expect(std::fabs(throughput(ms, pts, 1.0) - 1000.0) < 1e-9, "whole-run throughput");
}

void test_interval_algebra() {
    expect(union_length({{0, 2}, {1, 3}, {5, 6}}) == 4.0, "union merges overlaps");
    expect(union_length({{0, 1}, {0, 1}}) == 1.0, "union counts repeats once");
    std::vector<Span> spans = {{kSim, 0, 0.0, 1.0}, {kSim, 1, 0.5, 2.0}, {kNet, 0, 0.0, 3.0}};
    expect(total_of(spans, kSim) == 2.5, "total sums span lengths");
    expect(count_of(spans, kNet) == 1, "count of a kind");
    expect(union_length(intervals_of(spans, kSim)) == 2.0, "overlapping simulations count once");

    Recorder rec;
    {
        Scoped s(rec, kOp);
    }
    expect(rec.take().empty(), "a disabled recorder records nothing");
    rec.set_enabled(true);
    {
        Scoped s(rec, kOp);
    }
    expect(rec.take().size() == 1, "an enabled recorder records the span");
}

void test_exact_checks() {
    const core::ResponseMap want = {{"E_harv", 0.125}, {"packets", 12.0}};
    passes(checks::same_responses(want, want), "identical responses pass");
    core::ResponseMap bumped = want;
    bumped["packets"] = ulp_up(12.0);
    fails(checks::same_responses(bumped, want), "one ulp in one response fails");
    core::ResponseMap missing = want;
    missing.erase("E_harv");
    fails(checks::same_responses(missing, want), "a missing response fails");

    passes(checks::same_bits("x", 0.1, 0.1), "equal bits pass");
    fails(checks::same_bits("x", ulp_up(0.1), 0.1), "one ulp fails");
    fails(checks::same_bits("x", -0.0, 0.0), "signed zero differs in bits");

    passes(checks::same_count("n", 45, 45), "equal counts pass");
    fails(checks::same_count("n", 46, 45), "a count off by one fails");
    fails(checks::same_count("n", 44, 45), "a count off by minus one fails");

    const ehdoe::doe::Design ccd = ehdoe::doe::central_composite(
        6, {ehdoe::doe::CcdVariant::FaceCentred, ehdoe::doe::CcdAlpha::Rotatable, 4, true});
    expect(checks::distinct_rows(ccd.points) + 3 == ccd.runs(),
           "the face-centred CCD's four centre runs are one distinct row");
}

void test_least_squares_checks() {
    const ehdoe::doe::Design ccd = ehdoe::doe::central_composite(
        6, {ehdoe::doe::CcdVariant::FaceCentred, ehdoe::doe::CcdAlpha::Rotatable, 4, true});
    std::vector<double> y;
    for (std::size_t i = 0; i < ccd.runs(); ++i) {
        double v = 3.0;
        for (std::size_t f = 0; f < 6; ++f) {
            const double x = ccd.points(i, f);
            v += 0.3 * x - 0.2 * x * x + 0.05 * std::sin(7.0 * i + f);
        }
        y.push_back(v);
    }
    const ehdoe::rsm::ModelSpec model(6, ehdoe::rsm::ModelOrder::Quadratic);
    ehdoe::rsm::FitResult fit = ehdoe::rsm::fit_ols(model, ccd.points, y);
    passes(checks::normal_equations(fit, ccd.points, y), "an OLS fit meets its normal equations");

    double scale = 0.0;
    for (double v : y) scale += std::fabs(v);
    const double past_allowance = 2.0 * checks::kRoundOff * scale;
    std::vector<double> y2 = y;
    y2[7] += past_allowance;
    fails(checks::normal_equations(fit, ccd.points, y2),
          "a response moved just past the allowance breaks the normal equations");

    ehdoe::rsm::FitResult shifted = fit;
    shifted.coefficients[1] += past_allowance;
    fails(checks::normal_equations(shifted, ccd.points, y), "a moved coefficient fails");

    ehdoe::rsm::FitResult bad_r2 = fit;
    bad_r2.sse += 2.0 * checks::kRoundOff * fit.sst;
    fails(checks::normal_equations(bad_r2, ccd.points, y), "a misreported R^2 fails");

    // Optimum checks on the surface fitted above.
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 20.0);
    const ehdoe::rsm::ResponseSurface surface(fit, sc.design_space(), "y");
    core::OptimizationOutcome out;
    out.coded = ehdoe::num::Vector(6);
    out.coded[0] = 0.25;
    out.predicted = surface.value(out.coded);
    passes(checks::optimum_on_surface(out, surface), "a prediction on the surface passes");
    core::OptimizationOutcome off = out;
    off.predicted = ulp_up(out.predicted);
    fails(checks::optimum_on_surface(off, surface), "a prediction one ulp off fails");
    core::OptimizationOutcome outside = out;
    outside.coded[2] = ulp_up(1.0);
    outside.predicted = surface.value(outside.coded);
    fails(checks::optimum_on_surface(outside, surface), "an optimum one ulp outside the cube fails");

    for (const core::ScenarioId id : {core::ScenarioId::OfficeHvac, core::ScenarioId::Industrial,
                                      core::ScenarioId::Transport}) {
        const double floor = checks::kValidationR2Floor[static_cast<int>(id)];
        ehdoe::rsm::ValidationReport report;
        report.r_squared = floor;
        passes(checks::validation_floor(report, id), "validation at the floor passes");
        report.r_squared = std::nextafter(floor, 0.0);
        fails(checks::validation_floor(report, id), "validation one ulp under the floor fails");
    }
}

}  // namespace

int main() {
    test_p10();
    test_interval_algebra();
    test_exact_checks();
    test_least_squares_checks();
    if (failures) {
        std::fprintf(stderr, "%d self-test expectation(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-tests passed\n");
    return 0;
}

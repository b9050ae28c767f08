// ResponseSurface analytic calculus + canonical analysis tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "doe/composite.hpp"
#include "doe/factorial.hpp"
#include "numerics/stats.hpp"
#include "rsm/stepwise.hpp"
#include "rsm/surface.hpp"

using namespace ehdoe::rsm;
using ehdoe::doe::DesignSpace;
using ehdoe::num::Vector;

namespace {

ResponseSurface make_surface(const std::function<double(const Vector&)>& truth,
                             std::size_t k = 2) {
    const auto d = ehdoe::doe::central_composite(k, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = truth(d.points.row(i));
    std::vector<ehdoe::doe::Factor> factors;
    for (std::size_t i = 0; i < k; ++i) {
        factors.push_back({"f" + std::to_string(i), 0.0, 10.0, false});
    }
    DesignSpace space(factors);
    return ResponseSurface(fit_ols(ModelSpec(k, ModelOrder::Quadratic), d.points, y), space,
                           "resp");
}

// Bowl with minimum at (0.5, -0.25).
double bowl(const Vector& x) {
    return 3.0 + (x[0] - 0.5) * (x[0] - 0.5) + 2.0 * (x[1] + 0.25) * (x[1] + 0.25);
}

// Dome with maximum at (0.2, 0.4).
double dome(const Vector& x) {
    return 5.0 - 2.0 * (x[0] - 0.2) * (x[0] - 0.2) - (x[1] - 0.4) * (x[1] - 0.4);
}

double saddle(const Vector& x) { return x[0] * x[0] - x[1] * x[1]; }

}  // namespace

TEST(Surface, GradientAnalytic) {
    const ResponseSurface s = make_surface(bowl);
    const Vector x{0.1, 0.3};
    const Vector g = s.gradient(x);
    EXPECT_NEAR(g[0], 2.0 * (0.1 - 0.5), 1e-9);
    EXPECT_NEAR(g[1], 4.0 * (0.3 + 0.25), 1e-9);
}

TEST(Surface, HessianAnalytic) {
    const ResponseSurface s = make_surface(bowl);
    const auto h = s.hessian(Vector{0.0, 0.0});
    EXPECT_NEAR(h(0, 0), 2.0, 1e-9);
    EXPECT_NEAR(h(1, 1), 4.0, 1e-9);
    EXPECT_NEAR(h(0, 1), 0.0, 1e-9);
}

TEST(Surface, StationaryPointMinimum) {
    const ResponseSurface s = make_surface(bowl);
    const auto sp = s.stationary_point();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->kind, StationaryKind::Minimum);
    EXPECT_NEAR(sp->coded[0], 0.5, 1e-8);
    EXPECT_NEAR(sp->coded[1], -0.25, 1e-8);
    EXPECT_NEAR(sp->value, 3.0, 1e-8);
    EXPECT_TRUE(sp->inside_region);
    EXPECT_GT(sp->eigenvalues[0], 0.0);
}

TEST(Surface, StationaryPointMaximum) {
    const auto sp = make_surface(dome).stationary_point();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->kind, StationaryKind::Maximum);
    EXPECT_NEAR(sp->coded[0], 0.2, 1e-8);
    EXPECT_NEAR(sp->value, 5.0, 1e-8);
}

TEST(Surface, StationaryPointSaddle) {
    const auto sp = make_surface(saddle).stationary_point();
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(sp->kind, StationaryKind::Saddle);
    EXPECT_LT(sp->eigenvalues[0], 0.0);
    EXPECT_GT(sp->eigenvalues[1], 0.0);
}

TEST(Surface, NoStationaryPointForLinearModel) {
    const auto d = ehdoe::doe::central_composite(2, {});
    std::vector<double> y(d.runs());
    for (std::size_t i = 0; i < d.runs(); ++i) y[i] = 1.0 + d.points(i, 0);
    DesignSpace space({{"a", 0.0, 1.0, false}, {"b", 0.0, 1.0, false}});
    ResponseSurface s(fit_ols(ModelSpec(2, ModelOrder::Linear), d.points, y), space, "lin");
    EXPECT_FALSE(s.stationary_point().has_value());
}

TEST(Surface, NaturalUnitsEvaluation) {
    const ResponseSurface s = make_surface(bowl);
    // Natural 5.0 maps to coded 0.0 on [0, 10].
    EXPECT_NEAR(s.value_natural(Vector{5.0, 5.0}), bowl(Vector{0.0, 0.0}), 1e-8);
}

TEST(Surface, SliceGrid) {
    const ResponseSurface s = make_surface(bowl);
    const auto grid = s.slice(0, 1, Vector{0.0, 0.0}, 5);
    EXPECT_EQ(grid.rows(), 5u);
    EXPECT_EQ(grid.cols(), 5u);
    EXPECT_NEAR(grid(0, 0), bowl(Vector{-1.0, -1.0}), 1e-8);
    EXPECT_NEAR(grid(4, 4), bowl(Vector{1.0, 1.0}), 1e-8);
    EXPECT_THROW(s.slice(0, 0, Vector{0.0, 0.0}, 5), std::invalid_argument);
    EXPECT_THROW(s.slice(0, 1, Vector{0.0, 0.0}, 1), std::invalid_argument);
}

TEST(Surface, GridBestFindsExtremes) {
    const ResponseSurface s = make_surface(dome);
    const auto best = s.grid_best(21, true);
    EXPECT_NEAR(best.coded[0], 0.2, 0.1);
    EXPECT_NEAR(best.coded[1], 0.4, 0.1);
    EXPECT_NEAR(best.value, 5.0, 0.05);
    const auto worst = s.grid_best(21, false);
    EXPECT_LT(worst.value, best.value);
}

TEST(Surface, GradientMatchesFiniteDifference) {
    const ResponseSurface s = make_surface(dome);
    const Vector x{0.11, -0.37};
    const Vector g = s.gradient(x);
    const double h = 1e-6;
    for (std::size_t j = 0; j < 2; ++j) {
        Vector xp = x, xm = x;
        xp[j] += h;
        xm[j] -= h;
        EXPECT_NEAR(g[j], (s.value(xp) - s.value(xm)) / (2.0 * h), 1e-5);
    }
}

// ---- predictions against the Monomial reference, bit for bit ---------------

namespace {

std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// The independent reference: sum of coefficients[t] * terms[t].evaluate(x)
// in term order, accumulated from 0.0.
double reference(const FitResult& f, const Vector& x) {
    double s = 0.0;
    for (std::size_t t = 0; t < f.model.num_terms(); ++t)
        s += f.coefficients[t] * f.model.terms()[t].evaluate(x);
    return s;
}

// A wiggly non-polynomial truth, so every fitted coefficient is nonzero.
double wiggle(const Vector& x) {
    double v = 1.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        v += std::sin(1.3 * x[i] + 0.2 * static_cast<double>(i)) * (1.0 + 0.5 * x[0]);
    return v;
}

ResponseSurface fitted(const ModelSpec& model, const ehdoe::num::Matrix& pts) {
    std::vector<double> y(pts.rows());
    for (std::size_t i = 0; i < pts.rows(); ++i) y[i] = wiggle(pts.row(i));
    std::vector<ehdoe::doe::Factor> factors;
    for (std::size_t i = 0; i < model.dimension(); ++i)
        factors.push_back({"f" + std::to_string(i), -2.0, 2.0, false});
    return ResponseSurface(fit_ols(model, pts, y), DesignSpace(factors), "wiggle");
}

std::vector<ResponseSurface> surfaces_of_every_order(std::size_t k) {
    const auto pts = ehdoe::doe::full_factorial(k, 4).points;
    std::vector<ResponseSurface> out;
    for (ModelOrder o : {ModelOrder::Linear, ModelOrder::Interaction, ModelOrder::Quadratic,
                         ModelOrder::Cubic})
        out.push_back(fitted(ModelSpec(k, o), pts));
    std::vector<double> y(pts.rows());
    for (std::size_t i = 0; i < pts.rows(); ++i) y[i] = wiggle(pts.row(i));
    StepwiseOptions so;
    so.p_to_remove = 0.5;
    const StepwiseResult pruned = backward_eliminate(ModelSpec(k, ModelOrder::Cubic), pts, y, so);
    EXPECT_GT(pruned.terms_removed, 0u);
    out.emplace_back(pruned.fit, out.front().space(), "pruned");
    return out;
}

}  // namespace

TEST(SurfaceBitwise, ValueAndPredictEqualTheMonomialReference) {
    ehdoe::num::Rng rng = ehdoe::num::make_rng(2024);
    for (const ResponseSurface& s : surfaces_of_every_order(3)) {
        const FitResult& f = s.fit();
        ehdoe::num::Matrix probes(400, 3);
        for (std::size_t p = 0; p < probes.rows(); ++p) {
            const double reach = p % 2 ? 1.0 : 4.0;  // inside and outside the cube
            for (std::size_t i = 0; i < 3; ++i)
                probes(p, i) = ehdoe::num::uniform(rng, -reach, reach);
        }
        const std::vector<double> batch = f.predict(probes);
        for (std::size_t p = 0; p < probes.rows(); ++p) {
            const Vector x = probes.row(p);
            const std::uint64_t want = bits(reference(f, x));
            ASSERT_EQ(bits(s.value(x)), want) << f.model.describe();
            ASSERT_EQ(bits(f.predict(x)), want);
            ASSERT_EQ(bits(batch[p]), want);
        }
    }
}

TEST(SurfaceBitwise, SliceAndGridBestEqualTheMonomialReference) {
    for (const ResponseSurface& s : surfaces_of_every_order(3)) {
        const Vector fixed{0.3, -1.7, 0.9};
        const auto grid = s.slice(0, 2, fixed, 7, -1.5, 1.5);
        Vector x = fixed;
        for (std::size_t r = 0; r < 7; ++r) {
            x[0] = -1.5 + 3.0 * static_cast<double>(r) / 6.0;
            for (std::size_t c = 0; c < 7; ++c) {
                x[2] = -1.5 + 3.0 * static_cast<double>(c) / 6.0;
                ASSERT_EQ(bits(grid(r, c)), bits(reference(s.fit(), x)));
            }
        }
        const auto best = s.grid_best(5, true);
        EXPECT_EQ(bits(best.value), bits(reference(s.fit(), best.coded)));
    }
}

TEST(SurfaceBitwise, BuildMatrixRowsAreBuildRows) {
    for (const ResponseSurface& s : surfaces_of_every_order(3)) {
        const ModelSpec& m = s.fit().model;
        const auto pts = ehdoe::doe::full_factorial(3, 5).points;
        const auto x = m.build_matrix(pts);
        for (std::size_t i = 0; i < pts.rows(); ++i) {
            const Vector row = m.build_row(pts.row(i));
            for (std::size_t t = 0; t < m.num_terms(); ++t) {
                ASSERT_EQ(bits(x(i, t)), bits(row[t]));
                ASSERT_EQ(bits(row[t]), bits(m.terms()[t].evaluate(pts.row(i))));
            }
        }
    }
}

TEST(SurfaceBitwise, DimensionMismatchThrows) {
    const ResponseSurface s = make_surface(bowl);
    EXPECT_THROW(s.value(Vector{0.1}), std::invalid_argument);
    EXPECT_THROW(s.fit().predict(ehdoe::num::Matrix(2, 3)), std::invalid_argument);
}

// Monomial / model-basis machinery tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "numerics/polynomial.hpp"
#include "numerics/stats.hpp"

using namespace ehdoe::num;

TEST(Monomial, EvaluateAndDegree) {
    Monomial m(std::vector<unsigned>{1, 0, 2});  // x0 * x2^2
    EXPECT_EQ(m.degree(), 3u);
    EXPECT_FALSE(m.is_constant());
    EXPECT_DOUBLE_EQ(m.evaluate(Vector{2.0, 5.0, 3.0}), 18.0);
}

TEST(Monomial, ConstantTerm) {
    Monomial c(3);
    EXPECT_TRUE(c.is_constant());
    EXPECT_DOUBLE_EQ(c.evaluate(Vector{9.0, 9.0, 9.0}), 1.0);
    EXPECT_EQ(c.to_string(), "1");
}

TEST(Monomial, FirstDerivative) {
    Monomial m(std::vector<unsigned>{2, 1});  // x0^2 x1
    const Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(m.derivative(x, 0), 2.0 * 3.0 * 4.0);  // 2 x0 x1
    EXPECT_DOUBLE_EQ(m.derivative(x, 1), 9.0);              // x0^2
}

TEST(Monomial, SecondDerivatives) {
    Monomial m(std::vector<unsigned>{2, 1});
    const Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(m.second_derivative(x, 0, 0), 2.0 * 4.0);  // 2 x1
    EXPECT_DOUBLE_EQ(m.second_derivative(x, 0, 1), 2.0 * 3.0);  // 2 x0
    EXPECT_DOUBLE_EQ(m.second_derivative(x, 1, 1), 0.0);
}

TEST(Monomial, DerivativeOfAbsentVariableIsZero) {
    Monomial m(std::vector<unsigned>{0, 3});
    EXPECT_DOUBLE_EQ(m.derivative(Vector{1.0, 2.0}, 0), 0.0);
}

TEST(Monomial, ToStringWithNames) {
    Monomial m(std::vector<unsigned>{1, 0, 2});
    EXPECT_EQ(m.to_string({"a", "b", "c"}), "a*c^2");
    EXPECT_EQ(m.to_string(), "x0*x2^2");
}

TEST(Bases, LinearBasisSize) {
    const auto b = linear_basis(4);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_TRUE(b[0].is_constant());
}

TEST(Bases, InteractionBasisSize) {
    // 1 + k + k(k-1)/2.
    EXPECT_EQ(interaction_basis(4).size(), 1u + 4u + 6u);
}

TEST(Bases, QuadraticBasisSize) {
    // 1 + 2k + k(k-1)/2.
    EXPECT_EQ(quadratic_basis(3).size(), 10u);
    EXPECT_EQ(quadratic_basis(6).size(), 28u);
}

TEST(Bases, UpToDegreeCountsBinomial) {
    // #monomials of degree <= d in k vars = C(k+d, d).
    EXPECT_EQ(monomials_up_to_degree(3, 2).size(), 10u);   // C(5,2)
    EXPECT_EQ(monomials_up_to_degree(2, 3).size(), 10u);   // C(5,3)
    EXPECT_EQ(monomials_up_to_degree(4, 1).size(), 5u);
}

TEST(Bases, OrderingStartsWithConstantThenLinear) {
    const auto b = monomials_up_to_degree(2, 2);
    EXPECT_TRUE(b[0].is_constant());
    EXPECT_EQ(b[1].degree(), 1u);
    EXPECT_EQ(b[2].degree(), 1u);
    EXPECT_EQ(b[3].degree(), 2u);
}

TEST(ModelMatrix, RowsMatchEvaluations) {
    const auto terms = quadratic_basis(2);
    Matrix pts{{0.5, -1.0}, {1.0, 1.0}};
    const Matrix m = model_matrix(terms, pts);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), terms.size());
    for (std::size_t j = 0; j < terms.size(); ++j) {
        EXPECT_DOUBLE_EQ(m(0, j), terms[j].evaluate(pts.row(0)));
    }
}

TEST(ModelRow, MatchesMatrix) {
    const auto terms = quadratic_basis(3);
    const Vector x{0.3, -0.7, 0.9};
    const Vector row = model_row(terms, x);
    for (std::size_t j = 0; j < terms.size(); ++j) {
        EXPECT_DOUBLE_EQ(row[j], terms[j].evaluate(x));
    }
}

TEST(Monomial, DimensionMismatchThrows) {
    Monomial m(std::vector<unsigned>{1, 1});
    EXPECT_THROW(m.evaluate(Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(m.derivative(Vector{1.0, 2.0}, 5), std::out_of_range);
}

// Property: derivative consistency with finite differences.
class MonomialFdP : public ::testing::TestWithParam<int> {};

TEST_P(MonomialFdP, DerivativeMatchesFiniteDifference) {
    const auto terms = monomials_up_to_degree(3, 3);
    const Vector x{0.4, -0.6, 0.8};
    const double h = 1e-6;
    const std::size_t j = static_cast<std::size_t>(GetParam());
    for (const auto& m : terms) {
        Vector xp = x, xm = x;
        xp[j] += h;
        xm[j] -= h;
        const double fd = (m.evaluate(xp) - m.evaluate(xm)) / (2.0 * h);
        EXPECT_NEAR(m.derivative(x, j), fd, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Vars, MonomialFdP, ::testing::Values(0, 1, 2));

// ---- the compiled evaluator against the Monomial reference, bit for bit ----

namespace {

std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// Points inside the coded cube, on its faces and well outside it.
std::vector<Vector> probe_points(std::size_t k, std::size_t n, std::uint64_t seed) {
    Rng rng = make_rng(seed);
    std::vector<Vector> pts;
    for (std::size_t p = 0; p < n; ++p) {
        Vector x(k);
        const double reach = p % 3 == 0 ? 1.0 : (p % 3 == 1 ? 3.5 : 250.0);
        for (std::size_t i = 0; i < k; ++i) x[i] = uniform(rng, -reach, reach);
        pts.push_back(x);
    }
    pts.push_back(Vector(k, 1.0));
    pts.push_back(Vector(k, -1.0));
    pts.push_back(Vector(k, 0.0));
    return pts;
}

// Term sets of every standard order plus a pruned one with higher powers.
std::vector<std::vector<Monomial>> term_sets(std::size_t k) {
    std::vector<std::vector<Monomial>> sets{linear_basis(k), interaction_basis(k),
                                            quadratic_basis(k),
                                            monomials_up_to_degree(k, 3)};
    std::vector<Monomial> pruned = quadratic_basis(k);
    for (std::size_t t = pruned.size() - 1; t > 0; t -= 3) {
        pruned.erase(pruned.begin() + static_cast<std::ptrdiff_t>(t));
        if (t < 3) break;
    }
    std::vector<unsigned> high(k, 0);
    high[0] = 4;
    high[k - 1] += 3;
    pruned.emplace_back(high);
    sets.push_back(pruned);
    return sets;
}

}  // namespace

TEST(CompiledTerms, RowIsBitwiseTheMonomialReference) {
    for (std::size_t k : {1u, 3u, 6u}) {
        for (const auto& terms : term_sets(k)) {
            const CompiledTerms table(terms);
            ASSERT_EQ(table.size(), terms.size());
            ASSERT_EQ(table.variables(), k);
            std::vector<double> row(terms.size());
            for (const Vector& x : probe_points(k, 300, 17 + k)) {
                table.row(x.data(), row.data());
                for (std::size_t t = 0; t < terms.size(); ++t)
                    ASSERT_EQ(bits(row[t]), bits(terms[t].evaluate(x)))
                        << "k=" << k << " term " << terms[t].to_string();
            }
        }
    }
}

TEST(CompiledTerms, PredictIsBitwiseTheMonomialReference) {
    for (std::size_t k : {1u, 3u, 6u}) {
        for (const auto& terms : term_sets(k)) {
            const CompiledTerms table(terms);
            Rng rng = make_rng(99 + k);
            std::vector<double> beta(terms.size());
            for (double& b : beta) b = uniform(rng, -40.0, 40.0);
            for (const Vector& x : probe_points(k, 300, 5 + k)) {
                double want = 0.0;
                for (std::size_t t = 0; t < terms.size(); ++t)
                    want += beta[t] * terms[t].evaluate(x);
                ASSERT_EQ(bits(table.predict(x.data(), beta.data())), bits(want));
            }
        }
    }
}

TEST(CompiledTerms, ModelMatrixRowsAreModelRows) {
    for (const auto& terms : term_sets(4)) {
        const std::vector<Vector> pts = probe_points(4, 60, 3);
        Matrix points(pts.size(), 4);
        for (std::size_t i = 0; i < pts.size(); ++i) points.set_row(i, pts[i]);
        const Matrix m = model_matrix(terms, points);
        ASSERT_EQ(m.cols(), terms.size());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const Vector row = model_row(terms, pts[i]);
            for (std::size_t t = 0; t < terms.size(); ++t)
                ASSERT_EQ(bits(m(i, t)), bits(row[t]));
        }
    }
}

TEST(CompiledTerms, DimensionMismatchThrows) {
    EXPECT_THROW(model_row(quadratic_basis(2), Vector{1.0}), std::invalid_argument);
    EXPECT_THROW(model_matrix(quadratic_basis(2), Matrix(3, 3)), std::invalid_argument);
    EXPECT_THROW(CompiledTerms({Monomial(2), Monomial(3)}), std::invalid_argument);
}

// DesignFlow tests on a cheap synthetic simulation (exact quadratic world).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/toolkit.hpp"

using namespace ehdoe::core;
namespace doe = ehdoe::doe;
using ehdoe::num::Vector;

namespace {

// Synthetic "node": two factors, analytic responses.
//   perf = 10 - (x-6)^2/4 - (y-2)^2      (max 10 at x=6,y=2)
//   cost = x + 2y
doe::DesignSpace make_space() {
    return doe::DesignSpace({{"x", 0.0, 10.0, false}, {"y", 0.0, 4.0, false}});
}

doe::Simulation make_sim() {
    return [](const Vector& nat) {
        const double x = nat[0], y = nat[1];
        return std::map<std::string, double>{
            {"perf", 10.0 - (x - 6.0) * (x - 6.0) / 4.0 - (y - 2.0) * (y - 2.0)},
            {"cost", x + 2.0 * y},
        };
    };
}

}  // namespace

TEST(DesignFlow, CcdRunAndFit) {
    DesignFlow flow(make_space(), make_sim());
    const auto& res = flow.run_ccd();
    EXPECT_GT(res.simulations, 0u);
    EXPECT_TRUE(flow.has_results());
    const auto& s = flow.surface("perf");
    EXPECT_NEAR(s.fit().r_squared(), 1.0, 1e-9);  // quadratic truth: exact
    EXPECT_EQ(flow.response_names().size(), 2u);
    flow.fit_all();
}

TEST(DesignFlow, ThrowsBeforeRun) {
    DesignFlow flow(make_space(), make_sim());
    EXPECT_THROW(flow.results(), std::logic_error);
    EXPECT_THROW(flow.surface("perf"), std::logic_error);
}

TEST(DesignFlow, ValidationNearZeroErrorForExactModel) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    const auto v = flow.validate("perf", 30);
    EXPECT_LT(v.rmse, 1e-8);
    EXPECT_EQ(v.points, 30u);
}

TEST(DesignFlow, SweepFollowsTruth) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    const auto curve = flow.sweep("perf", "x", Vector{0.0, 0.0}, 11);
    ASSERT_EQ(curve.size(), 11u);
    EXPECT_DOUBLE_EQ(curve.front().first, 0.0);   // natural units
    EXPECT_DOUBLE_EQ(curve.back().first, 10.0);
    // y fixed at centre (natural 2): perf(x) = 10 - (x-6)^2/4.
    for (const auto& [x, p] : curve) {
        EXPECT_NEAR(p, 10.0 - (x - 6.0) * (x - 6.0) / 4.0, 1e-7);
    }
}

TEST(DesignFlow, UnconstrainedOptimizationFindsPeak) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    const auto out = flow.optimize("perf", true, {}, true);
    EXPECT_NEAR(out.natural[0], 6.0, 0.05);
    EXPECT_NEAR(out.natural[1], 2.0, 0.05);
    EXPECT_NEAR(out.predicted, 10.0, 1e-3);
    ASSERT_TRUE(out.confirmed.has_value());
    EXPECT_NEAR(*out.confirmed, out.predicted, 1e-6);
    EXPECT_GT(out.rsm_evaluations, 0u);
}

TEST(DesignFlow, ConstrainedOptimizationRespectsBound) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    // Maximize perf subject to cost <= 8: the unconstrained peak costs 10.
    const auto out = flow.optimize("perf", true, {{"cost", -1e300, 8.0}}, false);
    EXPECT_LE(out.predicted_responses.at("cost"), 8.0 + 0.05);
    EXPECT_LT(out.predicted, 10.0);
    // But still the best available on the constraint boundary.
    EXPECT_GT(out.predicted, 8.0);
}

TEST(DesignFlow, PredictAllInstant) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    const auto pred = flow.predict_all(Vector{0.0, 0.0});
    EXPECT_EQ(pred.size(), 2u);
    EXPECT_NEAR(pred.at("cost"), 9.0, 1e-6);  // centre: x=5, y=2 -> 5 + 2*2
}

TEST(DesignFlow, SimulatorCallAccounting) {
    DesignFlow flow(make_space(), make_sim());
    const auto& res = flow.run_ccd();
    const std::size_t after_doe = flow.simulator_calls();
    EXPECT_EQ(after_doe, res.simulations);
    flow.validate("perf", 10);
    EXPECT_EQ(flow.simulator_calls(), after_doe + 10);
}

TEST(DesignFlow, CustomDesignRun) {
    DesignFlow flow(make_space(), make_sim());
    const auto& res = flow.run(doe::full_factorial(2, 3));  // 3^2 grid
    EXPECT_EQ(res.simulations, 9u);
    EXPECT_NEAR(flow.surface("perf").fit().r_squared(), 1.0, 1e-9);
}

TEST(DesignFlow, RequiresSimulation) {
    EXPECT_THROW(DesignFlow(make_space(), nullptr), std::invalid_argument);
}

// Optimum locations, predictions and RSM evaluation counts of the synthetic
// flow, captured as hex floats before the on-surface search shared one model
// row between surfaces. Any change to the arithmetic or its order shows here.
namespace {

std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

}  // namespace

TEST(DesignFlowPinned, UnconstrainedOptimum) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    const auto out = flow.optimize("perf", true, {}, false);
    ASSERT_EQ(out.coded.size(), 2u);
    EXPECT_EQ(bits(out.coded[0]), bits(0x1.999fe45ebaadfp-3));
    EXPECT_EQ(bits(out.coded[1]), bits(-0x1.64a63a38ccp-17));
    EXPECT_EQ(bits(out.predicted), bits(0x1.3fffffff462c3p+3));
    EXPECT_EQ(out.rsm_evaluations, 388u);
}

TEST(DesignFlowPinned, ConstrainedOptimum) {
    DesignFlow flow(make_space(), make_sim());
    flow.run_ccd();
    const auto out = flow.optimize("perf", true, {{"cost", -1e300, 8.0}}, false);
    ASSERT_EQ(out.coded.size(), 2u);
    EXPECT_EQ(bits(out.coded[0]), bits(0x1.5a6d91f9d0fb5p-12));
    EXPECT_EQ(bits(out.coded[1]), bits(-0x1.ff37145b6e666p-3));
    EXPECT_EQ(bits(out.predicted), bits(0x1.300d08d75cb0dp+3));
    EXPECT_EQ(bits(out.predicted_responses.at("cost")), bits(0x1.001a1701fcdbdp+3));
    EXPECT_EQ(out.rsm_evaluations, 484u);
}

// Correctness checks of the benchmark's outputs. Each compares against a
// computation made apart from the evaluation stack (a direct simulation, a
// count the benchmark keeps itself, residuals it computes itself) or against
// a property the method must have. Every check returns an empty string when
// it passes and a one-line diagnosis when it fails, so the self-tests can
// feed it perturbed inputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/eval_backend.hpp"
#include "core/scenario.hpp"
#include "core/toolkit.hpp"
#include "rsm/fit.hpp"
#include "rsm/surface.hpp"
#include "rsm/validate.hpp"

namespace perfbench::checks {

/// Relative round-off allowance of the least-squares checks: the normal
/// equations hold to about cond(X) * eps * |y|, and a face-centred CCD's
/// quadratic model matrix is well conditioned.
inline constexpr double kRoundOff = 1e-9;

/// Held-out R^2 floor of the E_tune surface per scenario, indexed by
/// ScenarioId (S1, S2, S3); see README, "Checks".
inline constexpr double kValidationR2Floor[] = {0.70, 0.35, 0.70};

/// `got` and `want` hold the same response names with bit-identical values.
std::string same_responses(const ehdoe::core::ResponseMap& got,
                           const ehdoe::core::ResponseMap& want);

/// `got` and `want` are the same double, bit for bit.
std::string same_bits(const std::string& what, double got, double want);

/// Two counts agree exactly.
std::string same_count(const std::string& what, std::size_t got, std::size_t want);

/// Distinct rows of a design matrix (bitwise row identity), counted here.
std::size_t distinct_rows(const ehdoe::num::Matrix& points);

/// Residuals of `fit` on (coded, y), computed here from the coefficients
/// and the model's monomial exponents, sum to zero and are orthogonal to
/// every linear factor column, and the R^2 computed here from them matches
/// fit.r_squared().
std::string normal_equations(const ehdoe::rsm::FitResult& fit,
                             const ehdoe::num::Matrix& coded, const std::vector<double>& y);

/// The optimum lies in the coded cube and its reported prediction equals
/// the objective surface at that point, bit for bit.
std::string optimum_on_surface(const ehdoe::core::OptimizationOutcome& out,
                               const ehdoe::rsm::ResponseSurface& objective);

/// Held-out validation of the E_tune surface meets the scenario's floor.
std::string validation_floor(const ehdoe::rsm::ValidationReport& report,
                             ehdoe::core::ScenarioId scenario);

}  // namespace perfbench::checks

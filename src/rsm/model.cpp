#include "rsm/model.hpp"

#include <sstream>
#include <stdexcept>

namespace ehdoe::rsm {

namespace {
std::vector<Monomial> terms_for(std::size_t k, ModelOrder order) {
    switch (order) {
        case ModelOrder::Linear: return num::linear_basis(k);
        case ModelOrder::Interaction: return num::interaction_basis(k);
        case ModelOrder::Quadratic: return num::quadratic_basis(k);
        case ModelOrder::Cubic: return num::monomials_up_to_degree(k, 3);
    }
    throw std::invalid_argument("ModelSpec: unknown order");
}
}  // namespace

ModelSpec::ModelSpec(std::size_t k, ModelOrder order)
    : k_(k), order_(order), terms_(terms_for(k, order)), compiled_(terms_) {
    if (k == 0) throw std::invalid_argument("ModelSpec: k >= 1");
}

ModelSpec::ModelSpec(std::size_t k, std::vector<Monomial> terms)
    : k_(k), order_(ModelOrder::Quadratic), terms_(std::move(terms)) {
    if (k == 0) throw std::invalid_argument("ModelSpec: k >= 1");
    if (terms_.empty()) throw std::invalid_argument("ModelSpec: needs >= 1 term");
    for (const Monomial& m : terms_) {
        if (m.variables() != k_)
            throw std::invalid_argument("ModelSpec: term dimension mismatch");
    }
    compiled_ = num::CompiledTerms(terms_);
}

Matrix ModelSpec::build_matrix(const Matrix& coded_points) const {
    if (coded_points.cols() != k_)
        throw std::invalid_argument("ModelSpec::build_matrix: dimension mismatch");
    return compiled_.matrix(coded_points);
}

Vector ModelSpec::build_row(const Vector& coded_point) const {
    if (coded_point.size() != k_)
        throw std::invalid_argument("ModelSpec::build_row: dimension mismatch");
    Vector row(terms_.size());
    compiled_.row(coded_point.data(), row.data());
    return row;
}

ModelSpec ModelSpec::without_term(std::size_t index) const {
    if (index >= terms_.size()) throw std::out_of_range("ModelSpec::without_term");
    if (terms_.size() == 1)
        throw std::invalid_argument("ModelSpec::without_term: cannot empty the model");
    std::vector<Monomial> t = terms_;
    t.erase(t.begin() + static_cast<std::ptrdiff_t>(index));
    return ModelSpec(k_, std::move(t));
}

ModelSpec ModelSpec::with_term(Monomial term) const {
    if (term.variables() != k_)
        throw std::invalid_argument("ModelSpec::with_term: dimension mismatch");
    std::vector<Monomial> t = terms_;
    t.push_back(std::move(term));
    return ModelSpec(k_, std::move(t));
}

std::string ModelSpec::describe(const std::vector<std::string>& names) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        if (i) os << ", ";
        os << terms_[i].to_string(names);
    }
    return os.str();
}

std::size_t quadratic_term_count(std::size_t k) {
    return 1 + 2 * k + k * (k - 1) / 2;
}

}  // namespace ehdoe::rsm

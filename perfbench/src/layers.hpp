// Measuring points around the library's layers, all from outside: an
// EvalBackend decorator that times each evaluate() call of the backend it
// wraps, and a wrapper that times each call of a simulation closure.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_backend.hpp"
#include "recorder.hpp"

namespace perfbench {

/// Records one span of `kind` around every evaluate() of the wrapped
/// backend; everything else forwards.
class TimedBackend final : public ehdoe::core::EvalBackend {
public:
    TimedBackend(std::shared_ptr<ehdoe::core::EvalBackend> inner, Recorder& rec, int kind)
        : inner_(std::move(inner)), rec_(rec), kind_(kind) {}

    std::vector<ehdoe::core::ResponseMap> evaluate(
        const std::vector<ehdoe::num::Vector>& points) override {
        Scoped span(rec_, kind_);
        return inner_->evaluate(points);
    }
    std::string name() const override { return inner_->name(); }
    std::size_t concurrency() const override { return inner_->concurrency(); }
    std::size_t simulations() const override { return inner_->simulations(); }
    std::size_t cache_hits() const override { return inner_->cache_hits(); }
    std::size_t batches() const override { return inner_->batches(); }

private:
    std::shared_ptr<ehdoe::core::EvalBackend> inner_;
    Recorder& rec_;
    int kind_;
};

/// The simulation closure with a kSim span (tagged `tag`) around each call.
inline ehdoe::core::Simulation timed_simulation(ehdoe::core::Simulation sim, Recorder& rec,
                                                int tag = 0) {
    return [sim = std::move(sim), &rec, tag](const ehdoe::num::Vector& x) {
        if (!rec.enabled()) return sim(x);
        const double t0 = rec.now();
        ehdoe::core::ResponseMap r = sim(x);
        rec.add(kSim, t0, rec.now(), tag);
        return r;
    };
}

/// Progress callback that turns each completed-batch report of an executing
/// backend into a kWindow span from the start of its evaluate() call; the
/// union of a call's windows is the call itself.
inline std::function<void(const ehdoe::core::BatchProgress&)> window_reporter(Recorder& rec) {
    return [&rec](const ehdoe::core::BatchProgress& p) {
        if (!rec.enabled()) return;
        const double t1 = rec.now();
        rec.add(kWindow, t1 - p.elapsed_seconds * 1000.0, t1);
    };
}

}  // namespace perfbench

// flow-local and exec-cosim: the paper's DoE -> RSM -> optimise loop.
//
// One flow: a face-centred CCD through a fresh DesignFlow, fit_all,
// held-out validation on a seeded LHS, a constrained optimize with
// simulator confirmation, then sweeps and predict_all queries around the
// optimum. flow-local runs S1, S2 and S3 in-process with two runner threads
// (one operation = one round of the three); exec-cosim runs S1 with every
// simulation launched as a mock_hdl_sim process, two at a time (one
// operation = one flow).
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "checks.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "core/toolkit.hpp"
#include "exec/exec_backend.hpp"
#include "layers.hpp"
#include "numerics/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = ehdoe::core;
namespace fs = std::filesystem;

constexpr std::size_t kRunnerThreads = 2;
constexpr std::size_t kValidationPoints = 16;
constexpr std::size_t kSweepPoints = 21;
constexpr std::size_t kRoundsPerSession = 8;      // flow-local
constexpr std::size_t kExecFlowsPerSession = 10;  // exec-cosim
constexpr double kExecHorizon = 300.0;            // S1's own horizon, stated in the deck

struct Goal {
    const char* response;
    bool maximize;
};
constexpr Goal kGoals[] = {{core::kRespPackets, true},
                           {core::kRespHarvested, true},
                           {core::kRespConsumed, false},
                           {core::kRespVmin, true}};

/// What one flow does and what it left behind for the checks and the fold.
struct Flow {
    std::unique_ptr<core::DesignFlow> flow;
    core::ScenarioId scenario{};
    Goal goal{};
    core::OptimizationOutcome optimum;
    ehdoe::rsm::ValidationReport tuning;  ///< held-out report of E_tune
    double ev_ccd = 0.0, ev_validate = 0.0, ev_optimize = 0.0;  ///< evaluate() ms per phase
    std::size_t queries = 0;
};

/// The flow's work: everything here is inside the timed operation.
Flow run_flow(const core::Scenario& sc, const core::Simulation& sim,
              const std::string& recipe, std::uint64_t seed, Recorder& rec) {
    Flow f;
    f.scenario = sc.id();
    auto rng = ehdoe::num::make_rng(seed);
    f.goal = kGoals[ehdoe::num::uniform_int(rng, 0, 3)];
    const std::vector<core::ResponseConstraint> constraints = {
        {core::kRespDowntime, -1e300, ehdoe::num::uniform(rng, 0.25, 1.0)},
        {core::kRespVmin, ehdoe::num::uniform(rng, 1.9, 2.1), 1e300}};

    core::DesignFlow::Options o;
    o.runner_threads = kRunnerThreads;
    o.recipe_file = recipe;
    o.seed = seed;
    o.on_batch = window_reporter(rec);
    {
        Scoped s(rec, kConstruct);
        f.flow = std::make_unique<core::DesignFlow>(sc.design_space(), sim, o);
    }
    core::DesignFlow& flow = *f.flow;
    auto evaluate_ms = [&flow] { return flow.batch_stats().wall_seconds * 1000.0; };

    double w0 = evaluate_ms();
    {
        Scoped s(rec, kCcd);
        flow.run_ccd();
    }
    f.ev_ccd = evaluate_ms() - w0;
    {
        Scoped s(rec, kFit);
        flow.fit_all();
    }
    w0 = evaluate_ms();
    {
        Scoped s(rec, kValidate);
        f.tuning = flow.validate(core::kRespTuning, kValidationPoints);
        flow.validate(f.goal.response, kValidationPoints);
    }
    f.ev_validate = evaluate_ms() - w0;
    w0 = evaluate_ms();
    {
        Scoped s(rec, kOptimize);
        f.optimum = flow.optimize(f.goal.response, f.goal.maximize, constraints, true);
    }
    f.ev_optimize = evaluate_ms() - w0;
    {
        Scoped s(rec, kQuery);
        for (const std::string& factor : sc.design_space().names()) {
            f.queries += flow.sweep(f.goal.response, factor, f.optimum.coded, kSweepPoints).size();
        }
        f.queries += flow.predict_all(f.optimum.coded).size();
        f.queries += flow.predict_all(ehdoe::num::Vector(sc.design_space().dimension())).size();
    }
    return f;
}

/// Direct in-process simulations, memoised per point, for the checks.
class DirectSimulations {
public:
    explicit DirectSimulations(core::Simulation sim) : sim_(std::move(sim)) {}
    const core::ResponseMap& at(const ehdoe::num::Vector& x) {
        std::vector<double> key(x.begin(), x.end());
        auto it = memo_.find(key);
        if (it == memo_.end()) it = memo_.emplace(std::move(key), sim_(x)).first;
        return it->second;
    }

private:
    core::Simulation sim_;
    std::map<std::vector<double>, core::ResponseMap> memo_;
};

/// Checks of one flow; all outside the timed operation.
void check_flow(Run& run, Flow& f, DirectSimulations& direct, bool check_design_responses,
                const std::string& where) {
    core::DesignFlow& flow = *f.flow;
    const ehdoe::doe::RunResults& res = flow.results();

    // The CCD costs one simulation per distinct design row; simulations
    // plus memo hits cover every requested point.
    run.check(checks::same_count("CCD simulations", res.simulations,
                                 checks::distinct_rows(res.design.points)),
              where);
    run.check(checks::same_count("CCD simulations + memo hits",
                                 res.simulations + res.cache_hits, res.design.runs()),
              where);
    const ehdoe::doe::BatchStats& bs = flow.batch_stats();
    run.check(checks::same_count("flow simulations + memo hits", bs.simulations + bs.cache_hits,
                                 bs.points),
              where);

    for (const std::string& name : res.response_names) {
        run.check(checks::normal_equations(flow.surface(name).fit(), res.design.points,
                                           res.response(name)),
                  where + " surface " + name);
    }
    run.check(checks::optimum_on_surface(f.optimum, flow.surface(f.goal.response)), where);
    run.check(checks::validation_floor(f.tuning, f.scenario), where + " validation");
    if (!f.optimum.confirmed) {
        run.check("optimum was not confirmed by simulation", where);
    } else {
        run.check(checks::same_bits("confirmed optimum", *f.optimum.confirmed,
                                    direct.at(f.optimum.natural).at(f.goal.response)),
                  where);
    }
    if (check_design_responses) {
        for (std::size_t i = 0; i < res.natural.rows(); ++i) {
            const double* row = res.natural.row_ptr(i);
            ehdoe::num::Vector x(res.natural.cols());
            for (std::size_t c = 0; c < x.size(); ++c) x[c] = row[c];
            core::ResponseMap got;
            for (std::size_t j = 0; j < res.response_names.size(); ++j)
                got[res.response_names[j]] = res.responses(i, j);
            run.check(checks::same_responses(got, direct.at(x)), where + " design row");
        }
    }
}

/// Counters of one flow (every operation, traced or not).
void count_flow(Run& run, const Flow& f) {
    const ehdoe::doe::BatchStats& bs = f.flow->batch_stats();
    run.add("doe.points", static_cast<double>(bs.points));
    run.add("doe.simulations", static_cast<double>(bs.simulations));
    run.add("doe.memo_hits", static_cast<double>(bs.cache_hits));
    run.add("doe.batches", static_cast<double>(bs.batches));
    run.add("opt.rsm_evals", static_cast<double>(f.optimum.rsm_evaluations));
    run.add("rsm.queries", static_cast<double>(f.queries));
}

/// Fold the spans of one traced operation into layer self times.
///
/// Phase spans (construct, ccd, fit, validate, optimize, query) tile the
/// operation on the client thread; inside ccd/validate/optimize the batch
/// engine's share is the BatchStats wall-time delta; inside that, the
/// executing backend's calls are the kWindow spans, and inside those the
/// simulations are the kSim spans (in-process only).
void fold_flow_op(Run& run, const std::vector<Span>& spans, const std::vector<Flow>& flows,
                  bool in_process) {
    double ev_ccd = 0.0, ev_val = 0.0, ev_opt = 0.0;
    for (const Flow& f : flows) {
        ev_ccd += f.ev_ccd;
        ev_val += f.ev_validate;
        ev_opt += f.ev_optimize;
    }
    const double evaluate = ev_ccd + ev_val + ev_opt;
    const double construct = total_of(spans, kConstruct);
    const double ccd = total_of(spans, kCcd);
    const double fit = total_of(spans, kFit);
    const double validate = total_of(spans, kValidate);
    const double optimize = total_of(spans, kOptimize);
    const double query = total_of(spans, kQuery);
    const double window = union_length(intervals_of(spans, kWindow));

    run.add("doe.evaluate_ms", evaluate);
    run.add("doe.self_ms", construct + (ccd - ev_ccd) + (evaluate - window));
    run.add("rsm.fit_ms", fit);
    run.add("rsm.validate_ms", validate - ev_val);
    run.add("rsm.query_ms", query);
    run.add("opt.search_ms", optimize - ev_opt);
    if (in_process) {
        const double sim = union_length(intervals_of(spans, kSim));
        run.add("sim.busy_ms", sim);
        run.add("sim.span_ms", total_of(spans, kSim));
        run.add("sim.spans", static_cast<double>(count_of(spans, kSim)));
        run.add("inproc.self_ms", window - sim);
    } else {
        run.add("exec.busy_ms", window);
    }
    run.add("unattributed_ms", total_of(spans, kOp) -
                                   (construct + ccd + fit + validate + optimize + query));
}

void report_flow_layers(Run& run, bool in_process) {
    run.layer("sim.calls", run.per_op("doe.simulations"));
    if (in_process) {
        run.layer("sim.busy_ms", run.per_traced_op("sim.busy_ms"));
        const double spans = run.sum("sim.spans");
        run.layer("sim.call_mean_us", spans > 0 ? 1000.0 * run.sum("sim.span_ms") / spans : 0.0);
        run.layer("inproc.self_ms", run.per_traced_op("inproc.self_ms"));
    }
    for (const char* c : {"doe.points", "doe.simulations", "doe.memo_hits", "doe.batches"})
        run.layer(c, run.per_op(c));
    for (const char* t : {"doe.evaluate_ms", "doe.self_ms", "rsm.fit_ms", "rsm.validate_ms",
                          "rsm.query_ms", "opt.search_ms"})
        run.layer(t, run.per_traced_op(t));
    run.layer("rsm.queries", run.per_op("rsm.queries"));
    run.layer("opt.rsm_evals", run.per_op("opt.rsm_evals"));
}

}  // namespace

void run_flow_local(Run& run) {
    const core::ScenarioId ids[] = {core::ScenarioId::OfficeHvac, core::ScenarioId::Industrial,
                                    core::ScenarioId::Transport};
    const std::uint64_t seed = run.config().seed;
    while (run.another_session(kRoundsPerSession)) {
        const std::size_t session = run.sessions();
        Clock::time_point t0 = Clock::now();
        std::vector<core::Scenario> scenarios;
        for (const core::ScenarioId id : ids) scenarios.push_back(core::Scenario::make(id));
        const double scenario_ms = ms_between(t0, Clock::now());

        t0 = Clock::now();
        std::vector<core::Simulation> sims;
        std::vector<DirectSimulations> direct;
        for (const core::Scenario& sc : scenarios) {
            sims.push_back(timed_simulation(sc.make_simulation(), run.rec()));
            direct.emplace_back(sc.make_simulation());
        }
        const double stack_ms = ms_between(t0, Clock::now());

        auto round = [&](std::uint64_t round_seed) {
            std::vector<Flow> flows;
            for (std::size_t s = 0; s < scenarios.size(); ++s) {
                flows.push_back(run_flow(scenarios[s], sims[s], {},
                                         derive_seed(round_seed, s), run.rec()));
            }
            return flows;
        };
        t0 = Clock::now();
        round(derive_seed(seed, session, 0xFFFF));  // warm-up, part of set-up
        run.add_session_setup(scenario_ms, stack_ms, ms_between(t0, Clock::now()));

        try {
            for (std::size_t r = 0; r < kRoundsPerSession; ++r) {
                std::vector<Flow> flows;
                run.op([&] {
                    flows = round(derive_seed(seed, session, r));
                    std::size_t points = 0;
                    for (const Flow& f : flows) points += f.flow->batch_stats().points;
                    return points;
                });
                if (run.last_op_traced()) fold_flow_op(run, run.rec().take(), flows, true);
                for (std::size_t s = 0; s < flows.size(); ++s) {
                    count_flow(run, flows[s]);
                    check_flow(run, flows[s], direct[s], false,
                               "flow-local " + scenarios[s].name());
                }
            }
        } catch (const OpFailed&) {
            run.rec().take();
        }
    }
    report_flow_layers(run, true);
}

void run_exec_cosim(Run& run) {
    const std::uint64_t seed = run.config().seed;
    const fs::path scratch = fs::path(run.config().workdir) / "exec";
    fs::create_directories(scratch);
    ehdoe::core::telemetry::LatencyHistogram launches;
    while (run.another_session(kExecFlowsPerSession)) {
        const std::size_t session = run.sessions();
        Clock::time_point t0 = Clock::now();
        const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, kExecHorizon);
        const double scenario_ms = ms_between(t0, Clock::now());

        // The backend stack of an exec flow is its recipe: the mock
        // co-simulator, a deck carrying the point as hexfloats, and
        // extractors reading the full-precision responses back.
        t0 = Clock::now();
        const std::string recipe = (scratch / ("s1-" + std::to_string(session) + ".recipe")).string();
        {
            std::ofstream out(recipe, std::ios::trunc);
            out << "command: " << fs::absolute(run.config().mock_sim).string() << " --deck {deck}\n"
                << "input: deck\n"
                << "deck-line: scenario S1\n"
                << "deck-line: duration " << kExecHorizon << "\n"
                << "deck-line: index {index}\n"
                << "deck-line: point {point}\n"
                << "output: stdout\n"
                << "extract: E_harv regex ^E_harv=(\\S+)$\n"
                << "extract: E_cons regex ^E_cons=(\\S+)$\n"
                << "extract: E_tune regex ^E_tune=(\\S+)$\n"
                << "extract: V_min column values 4\n"
                << "extract: downtime column values 5\n"
                << "extract: packets column values 6\n"
                << "timeout: 60\n"
                << "scratch-dir: " << fs::absolute(scratch / "launch").string() << "\n";
        }
        DirectSimulations direct(sc.make_simulation());
        const double stack_ms = ms_between(t0, Clock::now());

        t0 = Clock::now();
        run_flow(sc, {}, recipe, derive_seed(seed, session, 0xFFFF), run.rec());  // warm-up
        run.add_session_setup(scenario_ms, stack_ms, ms_between(t0, Clock::now()));

        try {
            for (std::size_t i = 0; i < kExecFlowsPerSession; ++i) {
                std::vector<Flow> flows(1);
                run.op([&] {
                    flows[0] = run_flow(sc, {}, recipe, derive_seed(seed, session, i), run.rec());
                    return flows[0].flow->batch_stats().points;
                });
                if (run.last_op_traced()) fold_flow_op(run, run.rec().take(), flows, false);
                Flow& f = flows[0];
                count_flow(run, f);
                const auto* backend =
                    dynamic_cast<const ehdoe::exec::ExecBackend*>(&f.flow->runner().backend());
                if (!backend) {
                    run.check("the flow's backend is not the exec backend", "exec-cosim");
                } else {
                    run.check(checks::same_count("exec launches", backend->launches(),
                                                 backend->simulations()),
                              "exec-cosim");
                    run.add("exec.launches", static_cast<double>(backend->launches()));
                    run.add("exec.relaunches", static_cast<double>(backend->relaunches()));
                    launches.merge(backend->latency_histogram());
                }
                check_flow(run, f, direct, true, "exec-cosim");
            }
        } catch (const OpFailed&) {
            run.rec().take();
        }
        fs::remove(recipe);
    }
    report_flow_layers(run, false);
    run.layer("exec.launches", run.per_op("exec.launches"));
    run.layer("exec.relaunches", run.per_op("exec.relaunches"));
    run.layer("exec.busy_ms", run.per_traced_op("exec.busy_ms"));
    run.layer("exec.launch_p50_us", launches.percentile_us(50.0));
}

}  // namespace perfbench

// farm-remote and farm-store: batches through the evaluation farm.
//
// farm-remote: simulated annealing directly on the S3 simulator (the
// paper's direct-optimiser baseline), four chains in lockstep, each 4-point
// batch sent through RemoteBackend to two in-process eval-server shards with
// one worker each. One operation = one batch; one session = one campaign
// with its own scenario and a freshly dialled BatchRunner.
//
// farm-store: batches through StoreBackend to an in-process store server,
// over an in-process inner backend. Every session opens a fresh store that
// already holds an earlier campaign's points; every batch mixes a fixed
// share of those points with new ones, so it does one get with hits, one
// evaluation of the misses and one put. One operation = one batch.
#include <cmath>
#include <filesystem>
#include <memory>

#include "checks.hpp"
#include "core/inprocess_backend.hpp"
#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "layers.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"
#include "numerics/stats.hpp"
#include "opt/anneal.hpp"
#include "store/store_backend.hpp"
#include "store/store_client.hpp"
#include "store/store_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = ehdoe::core;
namespace fs = std::filesystem;
using ehdoe::num::Vector;

// Simulated seconds per point. Both are long enough that an operation is
// mostly simulation, so host scheduling noise stays a small share of it.
constexpr double kRemoteHorizon = 150.0;  // S3, farm-remote
constexpr double kStoreHorizon = 300.0;   // S1 (its own horizon), farm-store
constexpr std::size_t kShards = 2;
constexpr std::size_t kChains = 4;

// Annealing schedule: ceil(ln(t_final/t_initial)/ln(cooling)) = 44 epochs of
// 9 moves, plus the start batch: 397 batches per campaign.
constexpr double kTInitial = 1.0, kTFinal = 1e-2, kCooling = 0.9;
constexpr std::size_t kMoves = 9;
const std::size_t kCampaignBatches =
    1 + kMoves * static_cast<std::size_t>(std::ceil(std::log(kTFinal / kTInitial) /
                                                    std::log(kCooling)));

constexpr std::size_t kStoreHits = 4;      // stored points per batch
constexpr std::size_t kStoreMisses = 4;    // new points per batch
constexpr std::size_t kStoreBatches = 50;  // batches per session

Vector random_coded(ehdoe::num::Rng& rng, std::size_t k) {
    Vector x(k);
    for (std::size_t i = 0; i < k; ++i) x[i] = ehdoe::num::uniform(rng, -1.0, 1.0);
    return x;
}

/// Penalised objective of one simulated point: maximise a seeded response
/// subject to seeded downtime and V_min limits.
struct Objective {
    const char* response;
    double downtime_max;
    double vmin_min;

    explicit Objective(std::uint64_t seed) {
        auto rng = ehdoe::num::make_rng(seed);
        static const char* const kResponses[] = {core::kRespPackets, core::kRespHarvested,
                                                 core::kRespVmin};
        response = kResponses[ehdoe::num::uniform_int(rng, 0, 2)];
        downtime_max = ehdoe::num::uniform(rng, 0.0, 0.5);
        vmin_min = ehdoe::num::uniform(rng, 1.9, 2.1);
    }
    double operator()(const core::ResponseMap& r) const {
        double v = -r.at(response);  // maximised
        const double downtime = r.at(core::kRespDowntime);
        const double vmin = r.at(core::kRespVmin);
        if (downtime > downtime_max) v += 1e3 * (downtime - downtime_max);
        if (vmin < vmin_min) v += 1e4 * (vmin_min - vmin);
        return v;
    }
};

/// Points and responses the operations returned, checked after the session.
struct Answered {
    std::vector<Vector> points;
    std::vector<core::ResponseMap> responses;
    void add(const std::vector<Vector>& p, const std::vector<core::ResponseMap>& r) {
        points.insert(points.end(), p.begin(), p.end());
        responses.insert(responses.end(), r.begin(), r.end());
    }
    void check(Run& run, const core::Simulation& direct, const std::string& where) const {
        for (std::size_t i = 0; i < points.size(); ++i)
            run.check(checks::same_responses(responses[i], direct(points[i])), where);
    }
};

/// BatchStats deltas of a session's operations. The runner's cache hits fold
/// in the backend's (store hits); `backend_hits` of them are not memo hits.
void count_runner(Run& run, const ehdoe::doe::BatchStats& after,
                  const ehdoe::doe::BatchStats& before, std::size_t backend_hits) {
    run.add("doe.points", static_cast<double>(after.points - before.points));
    run.add("doe.simulations", static_cast<double>(after.simulations - before.simulations));
    run.add("doe.memo_hits",
            static_cast<double>(after.cache_hits - before.cache_hits - backend_hits));
    run.add("doe.batches", static_cast<double>(after.batches - before.batches));
}

void report_common_layers(Run& run) {
    run.layer("sim.calls", run.per_op("doe.simulations"));
    run.layer("sim.busy_ms", run.per_traced_op("sim.busy_ms"));
    const double spans = run.sum("sim.spans");
    run.layer("sim.call_mean_us", spans > 0 ? 1000.0 * run.sum("sim.span_ms") / spans : 0.0);
    for (const char* c : {"doe.points", "doe.simulations", "doe.memo_hits", "doe.batches"})
        run.layer(c, run.per_op(c));
    run.layer("doe.evaluate_ms", run.per_traced_op("doe.evaluate_ms"));
    run.layer("doe.self_ms", run.per_traced_op("doe.self_ms"));
}

void fold_sims(Run& run, const std::vector<Span>& spans) {
    run.add("sim.busy_ms", union_length(intervals_of(spans, kSim)));
    run.add("sim.span_ms", total_of(spans, kSim));
    run.add("sim.spans", static_cast<double>(count_of(spans, kSim)));
}

}  // namespace

void run_farm_remote(Run& run) {
    const std::uint64_t seed = run.config().seed;
    while (run.another_session(kCampaignBatches)) {
        const std::size_t session = run.sessions();
        Clock::time_point t0 = Clock::now();
        const core::Scenario sc = core::Scenario::make(core::ScenarioId::Transport, kRemoteHorizon);
        const ehdoe::doe::DesignSpace space = sc.design_space();
        const core::Simulation direct = sc.make_simulation();
        const double scenario_ms = ms_between(t0, Clock::now());

        // The campaign's farm: two fresh shards, so that every campaign gets
        // its own placement of their threads on the host, dialled by a fresh
        // RemoteBackend.
        t0 = Clock::now();
        std::vector<std::unique_ptr<ehdoe::net::EvalServer>> shards;
        ehdoe::net::RemoteBackendOptions ro;
        for (std::size_t s = 0; s < kShards; ++s) {
            ehdoe::net::EvalServerOptions o;
            o.workers = 1;
            o.fingerprint = sc.fingerprint();
            shards.push_back(std::make_unique<ehdoe::net::EvalServer>(
                timed_simulation(sc.make_simulation(), run.rec(), static_cast<int>(s)), o));
            shards.back()->start();
            ro.endpoints.push_back({"127.0.0.1", shards.back()->port()});
        }
        ro.fingerprint = sc.fingerprint();
        auto remote = std::make_shared<ehdoe::net::RemoteBackend>(std::move(ro));
        ehdoe::doe::BatchRunner runner(std::make_shared<TimedBackend>(remote, run.rec(), kNet));
        const double stack_ms = ms_between(t0, Clock::now());
        auto served = [&shards] {
            std::size_t n = 0;
            for (const auto& s : shards) n += s->points_served();
            return n;
        };

        const Objective objective(derive_seed(seed, session, 1));
        auto to_natural = [&space](const std::vector<Vector>& coded) {
            std::vector<Vector> natural;
            natural.reserve(coded.size());
            for (const Vector& c : coded) natural.push_back(space.to_natural(space.clamp(c)));
            return natural;
        };
        t0 = Clock::now();
        {
            auto rng = ehdoe::num::make_rng(derive_seed(seed, session, 2));
            std::vector<Vector> warm;
            for (std::size_t c = 0; c < kChains; ++c) warm.push_back(random_coded(rng, 6));
            runner.evaluate(to_natural(warm));
        }
        run.add_session_setup(scenario_ms, stack_ms, ms_between(t0, Clock::now()));

        const ehdoe::doe::BatchStats before = runner.stats();
        const std::size_t served_before = served();
        const std::size_t frames_before = remote->batches();
        Answered answered;
        double best_seen = 1e300;
        double op_ms = 0.0, glue_ms = 0.0;
        std::size_t batches = 0;
        ehdoe::opt::AnnealOptions ao;
        ao.t_initial = kTInitial;
        ao.t_final = kTFinal;
        ao.cooling = kCooling;
        ao.moves_per_epoch = kMoves;
        ao.restarts = kChains;
        ao.seed = derive_seed(seed, session, 3);
        ehdoe::opt::BatchObjective batch = [&](const std::vector<Vector>& coded) {
            std::vector<Vector> natural;
            std::vector<core::ResponseMap> rows;
            std::vector<double> values;
            run.op([&] {
                natural = to_natural(coded);
                {
                    Scoped s(run.rec(), kEvaluate);
                    rows = runner.evaluate(natural);
                }
                values.reserve(rows.size());
                for (const core::ResponseMap& r : rows) values.push_back(objective(r));
                return rows.size();
            });
            const Clock::time_point glue0 = Clock::now();
            op_ms += run.last_op_ms();
            ++batches;
            if (run.last_op_traced()) {
                // Per batch: the slowest shard's simulation time inside the
                // RemoteBackend call is the shard-busy share of it.
                const std::vector<Span> spans = run.rec().take();
                const double net = total_of(spans, kNet);
                double busiest = 0.0;
                for (std::size_t s = 0; s < kShards; ++s) {
                    double t = 0.0;
                    for (const Span& sp : spans)
                        if (sp.kind == kSim && sp.tag == static_cast<int>(s)) t += sp.length();
                    busiest = std::max(busiest, t);
                }
                const double evaluate = total_of(spans, kEvaluate);
                run.add("doe.evaluate_ms", evaluate);
                run.add("doe.self_ms", evaluate - net);
                run.add("net.batch_ms", net);
                run.add("net.shard_busy_ms", busiest);
                run.add("net.overhead_ms", net - busiest);
                run.add("unattributed_ms", total_of(spans, kOp) - evaluate);
                fold_sims(run, spans);
            }
            answered.add(natural, rows);
            for (double v : values) best_seen = std::min(best_seen, v);
            glue_ms += ms_between(glue0, Clock::now());
            return values;
        };
        try {
            // The annealer's own time: the campaign minus its operations and
            // minus the benchmark's bookkeeping between them.
            t0 = Clock::now();
            const ehdoe::opt::OptResult best = ehdoe::opt::simulated_annealing(
                batch, ehdoe::opt::Bounds::coded_cube(6), Vector(6), ao);
            run.add("opt.anneal_self_ms", ms_between(t0, Clock::now()) - op_ms - glue_ms);

            const std::string where = "farm-remote session " + std::to_string(session);
            run.check(checks::same_count("campaign batches", batches, kCampaignBatches), where);
            run.check(checks::same_bits("annealing result", best.value, best_seen), where);
            const ehdoe::doe::BatchStats after = runner.stats();
            run.check(checks::same_count("shard points served", served() - served_before,
                                         after.simulations - before.simulations),
                      where);
            answered.check(run, direct, where);
            count_runner(run, after, before, 0);
            run.add("net.batches", static_cast<double>(remote->batches() - frames_before));
            run.add("net.points_served", static_cast<double>(served() - served_before));
        } catch (const OpFailed&) {
            run.rec().take();
        }
    }
    report_common_layers(run);
    run.layer("net.batches", run.per_op("net.batches"));
    for (const char* t : {"net.batch_ms", "net.shard_busy_ms", "net.overhead_ms"})
        run.layer(t, run.per_traced_op(t));
    run.layer("net.points_served", run.per_op("net.points_served"));
    run.layer("opt.anneal_self_ms", run.per_op("opt.anneal_self_ms"));
}

void run_farm_store(Run& run) {
    const std::uint64_t seed = run.config().seed;
    const std::size_t pool_size = kStoreHits * (kStoreBatches + 1);
    std::size_t session_dir = 0;
    while (run.another_session(kStoreBatches)) {
        const std::size_t session = run.sessions();
        Clock::time_point t0 = Clock::now();
        const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, kStoreHorizon);
        const ehdoe::doe::DesignSpace space = sc.design_space();
        const core::Simulation direct = sc.make_simulation();
        const double scenario_ms = ms_between(t0, Clock::now());

        // The stack: a fresh store server filled by an earlier campaign, then
        // a BatchRunner over StoreBackend over the in-process backend.
        t0 = Clock::now();
        const fs::path dir =
            fs::path(run.config().workdir) / ("store-" + std::to_string(session_dir++));
        fs::remove_all(dir);
        ehdoe::store::StoreServerOptions so;
        so.dir = dir.string();
        so.verbose = false;
        ehdoe::store::StoreServer server(so);
        server.start();
        ehdoe::store::StoreBackendOptions sbo;
        sbo.port = server.port();
        sbo.fingerprint = sc.fingerprint();
        auto rng = ehdoe::num::make_rng(derive_seed(seed, session, 1));
        std::vector<Vector> pool;
        for (std::size_t i = 0; i < pool_size; ++i)
            pool.push_back(space.to_natural(random_coded(rng, 6)));
        {
            core::BackendOptions bo;
            bo.threads = 2;
            ehdoe::doe::BatchRunner earlier(std::make_shared<ehdoe::store::StoreBackend>(
                std::make_shared<core::InProcessBackend>(sc.make_simulation(), bo), sbo));
            earlier.evaluate(pool);
        }
        core::BackendOptions bo;
        bo.threads = 2;
        auto inner = std::make_shared<core::InProcessBackend>(
            timed_simulation(sc.make_simulation(), run.rec()), bo);
        auto store = std::make_shared<ehdoe::store::StoreBackend>(
            std::make_shared<TimedBackend>(inner, run.rec(), kInner), sbo);
        auto runner = std::make_unique<ehdoe::doe::BatchRunner>(
            std::make_shared<TimedBackend>(store, run.rec(), kStore));
        const double stack_ms = ms_between(t0, Clock::now());

        // Batch b takes pool points [b*H, (b+1)*H) (batch 0 is the warm-up)
        // and H fresh ones, shuffled; no point repeats within the session.
        auto make_batch = [&](std::size_t b) {
            std::vector<Vector> points(pool.begin() + static_cast<long>(b * kStoreHits),
                                       pool.begin() + static_cast<long>((b + 1) * kStoreHits));
            for (std::size_t i = 0; i < kStoreMisses; ++i)
                points.push_back(space.to_natural(random_coded(rng, 6)));
            std::vector<Vector> shuffled;
            for (std::size_t i : ehdoe::num::permutation(rng, points.size()))
                shuffled.push_back(points[i]);
            return shuffled;
        };
        t0 = Clock::now();
        runner->evaluate(make_batch(0));
        run.add_session_setup(scenario_ms, stack_ms, ms_between(t0, Clock::now()));

        const ehdoe::doe::BatchStats before = runner->stats();
        const std::uint64_t hits_before = server.get_hits();
        const std::uint64_t gets_before = server.gets_served();
        const std::uint64_t puts_before = server.puts_received();
        const std::size_t backend_hits_before = store->store_hits();
        const std::size_t backend_puts_before = store->store_puts();
        Answered answered;
        try {
            for (std::size_t b = 1; b <= kStoreBatches; ++b) {
                const std::vector<Vector> points = make_batch(b);
                std::vector<core::ResponseMap> rows;
                run.op([&] {
                    Scoped s(run.rec(), kEvaluate);
                    rows = runner->evaluate(points);
                    return rows.size();
                });
                if (run.last_op_traced()) {
                    const std::vector<Span> spans = run.rec().take();
                    const double evaluate = total_of(spans, kEvaluate);
                    const double st = total_of(spans, kStore);
                    const double in = total_of(spans, kInner);
                    run.add("doe.evaluate_ms", evaluate);
                    run.add("doe.self_ms", evaluate - st);
                    run.add("store.self_ms", st - in);
                    run.add("inproc.self_ms", in - union_length(intervals_of(spans, kSim)));
                    run.add("unattributed_ms", total_of(spans, kOp) - evaluate);
                    fold_sims(run, spans);
                }
                answered.add(points, rows);
            }
            const std::string where = "farm-store session " + std::to_string(session);
            const std::size_t placed = kStoreHits * kStoreBatches;
            const std::size_t misses = kStoreMisses * kStoreBatches;
            run.check(checks::same_count("store get hits", server.get_hits() - hits_before, placed),
                      where);
            run.check(checks::same_count("backend store hits",
                                         store->store_hits() - backend_hits_before, placed),
                      where);
            run.check(checks::same_count("store puts", server.puts_received() - puts_before, misses),
                      where);
            run.check(checks::same_count("backend store puts",
                                         store->store_puts() - backend_puts_before, misses),
                      where);
            ehdoe::store::StoreClient client("127.0.0.1", server.port());
            const std::uint64_t keys = client.stats().keys;
            run.check(checks::same_count("store keys", keys,
                                         pool_size + kStoreMisses * (kStoreBatches + 1)),
                      where);
            answered.check(run, direct, where);
            count_runner(run, runner->stats(), before, placed);
            run.add("store.gets", static_cast<double>(server.gets_served() - gets_before));
            run.add("store.get_hits", static_cast<double>(server.get_hits() - hits_before));
            run.add("store.puts", static_cast<double>(server.puts_received() - puts_before));
            run.add("store.keys", static_cast<double>(keys));
        } catch (const OpFailed&) {
            run.rec().take();
        }
        runner.reset();
        store.reset();
        server.stop();
        fs::remove_all(dir);
    }

    report_common_layers(run);
    run.layer("inproc.self_ms", run.per_traced_op("inproc.self_ms"));
    for (const char* c : {"store.gets", "store.get_hits", "store.puts"})
        run.layer(c, run.per_op(c));
    run.layer("store.keys", run.per_session("store.keys"));
    run.layer("store.self_ms", run.per_traced_op("store.self_ms"));
}

}  // namespace perfbench

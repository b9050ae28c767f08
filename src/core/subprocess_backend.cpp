#include "core/subprocess_backend.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/thread_pool.hpp"
#include "net/wire.hpp"

namespace ehdoe::core {

SubprocessBackend::SubprocessBackend(Simulation sim, BackendOptions options)
    : sim_(std::move(sim)), options_(std::move(options)) {
    if (!sim_) throw std::invalid_argument("SubprocessBackend: simulation required");
    if (options_.replicates == 0)
        throw std::invalid_argument("SubprocessBackend: replicates >= 1");
    const std::size_t n =
        options_.threads == 0 ? ThreadPool::hardware_threads() : options_.threads;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) workers_.push_back(spawn_worker(options_.replicates));
}

SubprocessBackend::Worker SubprocessBackend::spawn_worker(std::size_t replicates) {
    const net::ForkedWorker forked = net::fork_eval_worker(sim_, replicates);
    Worker w;
    w.pid = forked.pid;
    w.fd = forked.fd;
    w.alive = true;
    return w;
}

void SubprocessBackend::retire(Worker& w) {
    if (w.fd >= 0) {
        net::unregister_parent_fd(w.fd);
        ::close(w.fd);
        w.fd = -1;
    }
    if (w.pid > 0) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
    }
    w.alive = false;
}

void SubprocessBackend::respawn_dead_workers() {
    for (auto& w : workers_) {
        if (w.alive) continue;
        if (respawns_ >= options_.worker_respawns) continue;  // budget spent
        retire(w);  // reap if the crash left the slot half-closed
        w = spawn_worker(options_.replicates);
        ++respawns_;
    }
}

SubprocessBackend::~SubprocessBackend() {
    for (auto& w : workers_) retire(w);
}

std::size_t SubprocessBackend::live_workers() const {
    std::size_t n = 0;
    for (const auto& w : workers_) n += w.alive ? 1 : 0;
    return n;
}

std::vector<ResponseMap> SubprocessBackend::evaluate(const std::vector<Vector>& points) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = points.size();
    std::vector<ResponseMap> out(n);
    if (n == 0) return out;
    respawn_dead_workers();
    if (live_workers() == 0)
        throw std::runtime_error("SubprocessBackend: no live workers");

    // Each point round-trip is one dispatch unit ("batch") here; progress
    // reports fire per completed point, serialized across drivers.
    std::mutex progress_mutex;
    std::size_t points_done = 0;
    auto report_point = [&] {
        std::lock_guard<std::mutex> lock(progress_mutex);
        const std::size_t index = points_done++;
        if (!options_.on_batch) return;
        BatchProgress p;
        p.batch_index = index;
        p.batch_count = n;
        p.points_done = points_done;
        p.points_total = n;
        p.elapsed_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        p.points_per_second =
            p.elapsed_seconds > 0.0 ? static_cast<double>(points_done) / p.elapsed_seconds : 0.0;
        options_.on_batch(p);
    };

    // One dispatcher thread per live worker pulls point indices from a
    // shared counter and does synchronous request/response round-trips on
    // its worker's socket. Results land by index, so scheduling cannot
    // reorder anything; once any point fails, the remaining queue is
    // abandoned (in-flight round-trips drain) and the first failure in
    // input order is thrown.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::atomic<std::size_t> simulations_done{0};
    std::atomic<std::size_t> dispatched{0};
    std::vector<std::string> errors(n);
    std::vector<unsigned char> has_error(n, 0);
    // A throwing user progress callback must not escape a driver thread
    // (std::terminate); park it per point and rethrow in input order.
    std::vector<std::exception_ptr> callback_errors(n);

    auto drive_worker = [&](Worker& w) {
        std::vector<unsigned char> scratch;
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            dispatched.fetch_add(1, std::memory_order_relaxed);

            net::EvalResult result;
            const bool io_ok = net::pipe_evaluate(w.fd, points[i], result, scratch);

            if (io_ok && result.ok) {
                out[i] = std::move(result.responses);
                simulations_done.fetch_add(options_.replicates, std::memory_order_relaxed);
                try {
                    report_point();
                } catch (...) {
                    callback_errors[i] = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
                continue;
            }
            if (io_ok) {
                errors[i] = "SubprocessBackend: simulation failed at point " +
                            std::to_string(i) + ": " + result.error;
                has_error[i] = 1;
                failed.store(true, std::memory_order_relaxed);
                continue;  // worker is fine, only the simulation threw
            }

            // Broken frame or dead peer: the worker crashed mid-point.
            errors[i] = "SubprocessBackend: worker (pid " + std::to_string(w.pid) +
                        ") died while evaluating point " + std::to_string(i);
            has_error[i] = 1;
            failed.store(true, std::memory_order_relaxed);
            w.alive = false;
            return;
        }
    };

    std::vector<std::thread> drivers;
    drivers.reserve(workers_.size());
    for (auto& w : workers_) {
        if (w.alive) drivers.emplace_back([&drive_worker, &w] { drive_worker(w); });
    }
    for (auto& t : drivers) t.join();

    // Reap crashed workers promptly; their slots respawn on the next
    // evaluate() while the budget lasts.
    for (auto& w : workers_) {
        if (!w.alive && w.fd >= 0) retire(w);
    }

    simulations_ += simulations_done.load(std::memory_order_relaxed);
    batches_ += dispatched.load(std::memory_order_relaxed);

    for (std::size_t i = 0; i < n; ++i) {
        if (callback_errors[i]) std::rethrow_exception(callback_errors[i]);
        if (has_error[i]) throw std::runtime_error(errors[i]);
    }
    return out;
}

}  // namespace ehdoe::core

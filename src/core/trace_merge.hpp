// ehdoe/core/trace_merge.hpp
//
// Merges the client-side trace of a distributed run with the traces of the
// eval-server shards it talked to, producing one Chrome trace-event JSON
// timeline (the ehdoe-trace tool, tools/trace_main.cpp, is a thin CLI over
// this). The pieces come from independent processes with independent
// monotonic clocks, so the merge has to re-anchor time:
//
//  * every welcome carries the server's telemetry clock sample, and the
//    client's handshake span records `offset_us = client_now - server_now`
//    per endpoint (net/remote_backend.cpp);
//  * each server trace carries a "listening" instant naming its endpoint
//    (ehdoe-eval-server --trace), which is matched against the client's
//    handshake endpoints — exact label first, then a ":port" suffix so
//    "127.0.0.1:9001" still matches a server that printed "0.0.0.0:9001";
//  * the matched server's events are shifted onto the client clock. An
//    unmatched server (no traced handshake with its endpoint) merges
//    unshifted with a warning — visible, never dropped.
//
// Processes are renumbered (client pid 1, servers 2..) so every input gets
// its own lane in the viewer even when the pieces were recorded by the
// same pid (in-process test servers). Alongside the merged JSON the result
// carries a per-batch critical-path summary: for every client batch span,
// how many server evals it covered, the busiest shard's busy time and the
// longest network receive — the numbers that say where a slow batch's
// wall time actually went.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ehdoe::core {

struct TraceMergeResult {
    std::string json;                ///< merged Chrome trace-event JSON
    std::size_t client_events = 0;   ///< events from the client trace
    std::size_t server_events = 0;   ///< events from all server traces
    std::size_t journal_events = 0;  ///< event-journal lines interleaved
    std::size_t eval_spans = 0;      ///< server "eval" spans (one per point)
    std::size_t batches = 0;         ///< client "batch" spans
    std::vector<std::string> warnings;  ///< unmatched servers, missing offsets
    std::string summary;             ///< per-batch critical-path text
};

/// Merge one client trace with any number of server traces (all Chrome
/// trace-event JSON strings). Throws std::runtime_error on malformed
/// input; clock-anchor problems are warnings, not errors.
///
/// The third form also interleaves event journals (core/event_log.hpp
/// JSONL): each journal becomes its own lane of instant events, named by
/// the journal's "process" field. A journal holding a "listening" event
/// whose endpoint matches a client handshake anchor is shifted onto the
/// client clock exactly like a server trace; a client-side journal (or an
/// unmatched one) merges unshifted — the client journal already shares
/// the client clock, so that is the right thing, and a genuinely
/// unanchored server journal gets a warning, never dropped.
TraceMergeResult merge_traces(const std::string& client_json,
                              const std::vector<std::string>& server_jsons);
TraceMergeResult merge_traces(const std::string& client_json,
                              const std::vector<std::string>& server_jsons,
                              const std::vector<std::string>& journal_jsonls);

/// File-based convenience: reads every path and merges. Throws
/// std::runtime_error naming the unreadable or malformed file.
TraceMergeResult merge_trace_files(const std::string& client_path,
                                   const std::vector<std::string>& server_paths);
TraceMergeResult merge_trace_files(const std::string& client_path,
                                   const std::vector<std::string>& server_paths,
                                   const std::vector<std::string>& journal_paths);

}  // namespace ehdoe::core

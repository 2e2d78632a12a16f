// The request-execution core of llhscd, factored out of the event loop so
// the in-process mode (thread pool in the front-end process) and the forked
// worker mode (`--workers N`) run the *same* code: JSON params -> typed
// request, deadline clamping, run_check/run_session_check, outcome -> JSON,
// and the exact response-line serialisation (field order + schema_version
// stamp). Byte-identity between the two execution modes — and with the
// one-shot CLI — holds by construction because there is exactly one
// implementation of each step.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "server/artifact_store.hpp"
#include "server/check_service.hpp"
#include "support/json.hpp"
#include "server/session.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

/// Cumulative check-work counters for `stats`, accumulated from each
/// CheckOutcome's trace in whichever process ran the work. In worker mode
/// every worker keeps its own set and the front end sums them on demand.
struct CheckCounters {
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> sessions{0};
  std::atomic<uint64_t> solver_checks{0};
  std::atomic<uint64_t> queries_issued{0};
  std::atomic<uint64_t> queries_pruned{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_errors{0};
};

[[nodiscard]] CheckRequest check_request_from(const support::Json& params);
[[nodiscard]] SessionRequest session_request_from(const support::Json& params);
[[nodiscard]] support::Json check_outcome_json(const CheckOutcome& outcome);
[[nodiscard]] support::Json session_outcome_json(const SessionOutcome& outcome);
[[nodiscard]] support::Json store_stats_json(const StoreStats& s);

/// {"id": id, "ok": true, "result": result} — unstamped.
[[nodiscard]] support::Json ok_response(const support::Json& id, support::Json result);
/// {"id": id, "ok": false, "error": {"code", "message"}} — unstamped.
[[nodiscard]] support::Json error_response(const support::Json& id, const std::string& code,
                                  const std::string& message);

/// One response line exactly as the daemon writes it: stamps
/// `schema_version`, compact dump, trailing newline. Takes the document by
/// value because every reply gets the stamp exactly once.
[[nodiscard]] std::string stamp_response_line(support::Json response,
                                              int schema_version);

/// Runs one admitted check or session request — deadline clamping of the
/// solver budget included — and returns the ok-response document. Callers
/// reject an already-expired deadline *before* calling (so they can count
/// the rejection); this function only bounds the work that runs.
[[nodiscard]] support::Json execute_request(const std::string& method, const support::Json& id,
                                   const support::Json& params,
                                   const support::Deadline& deadline,
                                   ArtifactStore& store,
                                   CheckCounters& counters);

/// FNV-1a shard key over the request's primary content (check: path +
/// source; session: core + deltas identity). Requests for the same source
/// land on the same worker, so its in-memory ArtifactStore stays hot.
[[nodiscard]] uint64_t shard_key(const std::string& method,
                                 const support::Json& params);

}  // namespace llhsc::server

#ifndef EQIMPACT_SERVE_PROTOCOL_H_
#define EQIMPACT_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.h"
#include "sim/experiment.h"
#include "sim/sweep.h"

namespace eqimpact {
namespace serve {

/// The experiment service's wire protocol: line-delimited JSON over a
/// byte stream (one UTF-8 JSON object per '\n'-terminated line, both
/// directions). A request is an experiment/sweep spec in the CLI's
/// flag-spec form:
///
///   {"id": "job-1",              // optional client token, echoed back
///    "scenario": "credit",       // required registry name
///    "trials": 3, "seed": 42, "bins": 64,
///    "threads": 0, "trial_threads": 0, "point_threads": 1,
///    "set": {"num_users": 150},  // scenario parameter assignments
///    "sweep": {"equalizer_strength": [0, 0.5, 1]}}  // optional axes
///
/// Responses are events, each tagged with the request's id:
///
///   {"id": ..., "event": "accepted", "cached": false, "queue_depth": q}
///   {"id": ..., "event": "progress", "unit": "trial"|"point",
///    "index": i, "completed": k, "total": n}
///   {"id": ..., "event": "result", "cached": bool, "digest": "hex16",
///    "payload": "<the CLI's full JSON document, escaped>"}
///   {"id": ..., "event": "error", "code": "...", "message": "..."}
///
/// The result payload is byte-identical to what `run_experiment` prints
/// for the same spec (CI diffs the two, filtering only the provenance
/// line), so a served result and a CLI run are interchangeable.

/// Typed request rejection codes. The code taxonomy is part of the
/// protocol: clients branch on `code`, not on message text.
enum class ErrorCode {
  kBadJson,          ///< The request line is not valid JSON.
  kBadRequest,       ///< Valid JSON, but not a well-formed spec.
  kUnknownScenario,  ///< Scenario name not in the registry.
  kBadParameter,     ///< A set/sweep assignment the scenario rejects.
  kQueueFull,        ///< Admission control: the bounded queue is full.
  kShuttingDown,     ///< Server is draining; no new jobs.
  kInternal,         ///< The job failed inside the engine.
  /// Connection-level admission control: the transport's max-connection
  /// cap is reached. Sent as the sole event on the rejected connection,
  /// which is then closed — the shutting_down-style typed rejection of
  /// the connection layer rather than the job layer.
  kTooManyConnections,
};

/// The wire identifier of `code` ("bad_json", "queue_full", ...).
const char* ErrorCodeName(ErrorCode code);

/// One parsed experiment/sweep job spec — the validated, canonical form
/// a request reduces to. Field defaults match the run_experiment CLI's,
/// so an empty request body ({"scenario": ...}) and a bare CLI
/// invocation produce byte-identical payloads.
struct JobSpec {
  std::string id;        ///< Client token (server-assigned if absent).
  std::string scenario;  ///< Registry name.
  size_t num_trials = 5;
  uint64_t master_seed = 42;
  size_t impact_bins = 64;
  /// Requested thread budgets, echoed into the payload exactly as the
  /// CLI echoes its flags. Execution may narrow them further through
  /// the scheduler's per-job budget — thread counts never move result
  /// bits, so the echo and the execution budget are decoupled.
  size_t num_threads = 0;
  size_t trial_threads = 0;
  size_t point_threads = 1;
  /// Scenario parameter assignments, in request order.
  std::vector<std::pair<std::string, double>> assignments;
  /// Sweep axes, in request order; empty = single experiment.
  std::vector<sim::SweepParameter> sweeps;

  bool is_sweep() const { return !sweeps.empty(); }
};

/// Guard for count-like JSON fields, shared by request parsing and the
/// client's event parsing: true when `value` is absent (`*out` keeps
/// its value) or a non-negative integral number no larger than 1e15,
/// which converts to size_t exactly. A non-number, a negative, a
/// fraction or a larger magnitude returns false and leaves `*out`
/// alone; so does 0 unless `allow_zero`.
bool ReadCount(const JsonValue* value, size_t* out, bool allow_zero);

/// Parses a request line's JSON object into a spec. Returns true on
/// success; on failure fills (code, message) with a typed rejection.
/// Registry validation (unknown scenario / rejected parameter values)
/// is the service's job — this checks shape and ranges only.
bool ParseJobSpec(const JsonValue& request, JobSpec* spec,
                  ErrorCode* code, std::string* message);

/// Order-sensitive FNV-1a fingerprint over every payload-determining
/// spec field (scenario, trials, seed, bins, thread echoes, assignments,
/// sweep axes) — the result cache's key and the concurrent-submission
/// dedup key. Two specs with equal fingerprints produce byte-identical
/// payloads; the client id is excluded (it never reaches the payload).
uint64_t JobSpecFingerprint(const JobSpec& spec);

/// Event-line builders (each returns one '\n'-terminated line).
std::string AcceptedEventLine(const std::string& id, bool cached,
                              size_t queue_depth);
std::string ProgressEventLine(const std::string& id, const char* unit,
                              size_t index, size_t completed, size_t total);
std::string ResultEventLine(const std::string& id, bool cached,
                            uint64_t digest, const std::string& payload);
std::string ErrorEventLine(const std::string& id, ErrorCode code,
                           const std::string& message);

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_PROTOCOL_H_

#ifndef EQIMPACT_SERVE_RENDER_JSON_H_
#define EQIMPACT_SERVE_RENDER_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/experiment.h"
#include "sim/sweep.h"

namespace eqimpact {
namespace serve {

/// The run_experiment CLI's JSON document renderers, factored out so the
/// CLI and the experiment service share one implementation: a served
/// result's payload is *by construction* byte-identical to the CLI's
/// stdout for the same spec (CI byte-diffs the two, filtering only the
/// single-line provenance field). Any format change here changes both
/// sides in lockstep.

/// The run-identification header fields both documents echo: the
/// requested (not effective) knob values, exactly as the CLI echoes its
/// flags, plus the one-line provenance object. Provenance records *how*
/// the run executed (machine width, kernel backend, checkpoint config,
/// serving context) — everything that, by the determinism contract,
/// must not move output bits — and is the only line allowed to differ
/// between a CLI run and a served run of the same spec.
struct RenderHeader {
  size_t num_trials = 5;
  uint64_t master_seed = 42;
  size_t num_threads = 0;
  size_t trial_threads = 0;
  size_t point_threads = 1;
  /// The complete provenance object, e.g.
  /// {"hardware_concurrency": 8, "simd_backend": "avx2", ...}.
  std::string provenance_json = "{}";
};

/// The one-line provenance object shared by the CLI and the server:
/// machine width and kernel backend, plus the caller's execution-side
/// knobs. `extra_json` appends serving-side fields (e.g.
/// "\"served\": true"); pass "" for none. `num_shards` is rendered as
/// the retired "num_shards" key, kept so documents stay byte-stable;
/// every caller passes 0.
std::string RenderProvenance(bool force_scalar, size_t num_shards,
                             const std::string& checkpoint_path,
                             bool resume, const std::string& extra_json);

/// The single-experiment document (the CLI's no-sweep output),
/// newline-terminated multi-line JSON.
std::string RenderExperimentJson(const sim::ExperimentResult& result,
                                 const RenderHeader& header);

/// The sweep document (the CLI's --sweep output).
std::string RenderSweepJson(const sim::SweepResult& result,
                            const RenderHeader& header);

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_RENDER_JSON_H_

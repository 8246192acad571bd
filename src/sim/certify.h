#ifndef EQIMPACT_SIM_CERTIFY_H_
#define EQIMPACT_SIM_CERTIFY_H_

#include <string>
#include <vector>

#include "core/ergodicity.h"
#include "sim/scenario.h"

namespace eqimpact {
namespace sim {

/// Options for the scenario certificate pass.
struct ScenarioCertifyOptions {
  /// Resolution/solver configuration forwarded to core::CertifyIfsSpectral.
  core::SpectralCertificateOptions spectral;
};

/// One scenario's ergodicity certificate: the spectral certificate of its
/// declared dynamics surrogate (see Scenario::DynamicsModel), plus enough
/// context to render a self-describing report. Scenarios without a
/// surrogate still appear (has_model = false) so a certificate sweep over
/// the registry is always total.
struct ScenarioCertificate {
  std::string scenario;
  bool has_model = false;
  std::string model_description;
  core::SpectralCertificate spectral;
};

/// Certifies one scenario under its current parameters.
ScenarioCertificate CertifyScenario(const Scenario& scenario,
                                    const ScenarioCertifyOptions& options = {});

/// Certifies each scenario under its current parameters, in order. The
/// spectral certificate is a function of the surrogate and the options
/// alone, so scenarios whose surrogates are exactly equal (maps,
/// probabilities, lo and hi, bit for bit) share one: each distinct
/// surrogate is solved once per call and its certificate copied. Every
/// certificate equals CertifyScenario's.
std::vector<ScenarioCertificate> CertifyScenarios(
    const std::vector<const Scenario*>& scenarios,
    const ScenarioCertifyOptions& options = {});

/// CertifyScenarios over every registered scenario (fresh
/// default-configured instances, in registry name order).
std::vector<ScenarioCertificate> CertifyRegisteredScenarios(
    const ScenarioCertifyOptions& options = {});

/// Renders the full --certify JSON document: the solver configuration,
/// the caller-supplied one-line provenance field (key included — the
/// serve::RenderProvenance convention), and one certificate object per
/// scenario.
/// All numbers are rendered with %.17g (bit-faithful round trip) and
/// non-finite mixing bounds as null, so the output is always valid JSON;
/// a certified certificate has both bounds finite.
std::string RenderScenarioCertificatesJson(
    const std::vector<ScenarioCertificate>& certificates,
    const std::string& provenance_json, const ScenarioCertifyOptions& options);

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_CERTIFY_H_

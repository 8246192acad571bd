#include "sim/certify.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "base/check.h"
#include "sim/scenario_registry.h"

namespace eqimpact {
namespace sim {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string JsonNumber(double value) {
  // Non-finite values are not JSON; the only field that can produce one
  // (an infinite mixing bound) renders as null.
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void AppendCertificateJson(const ScenarioCertificate& certificate,
                           std::string* out) {
  char line[256];
  *out += "    {\n";
  std::snprintf(line, sizeof(line), "      \"scenario\": \"%s\",\n",
                JsonEscape(certificate.scenario).c_str());
  *out += line;
  std::snprintf(line, sizeof(line), "      \"has_model\": %s",
                certificate.has_model ? "true" : "false");
  *out += line;
  if (!certificate.has_model) {
    *out += "\n    }";
    return;
  }
  *out += ",\n";
  *out += "      \"model\": \"" + JsonEscape(certificate.model_description) +
          "\",\n";
  const core::SpectralCertificate& s = certificate.spectral;
  *out += "      \"lo\": " + JsonNumber(s.lo) + ",\n";
  *out += "      \"hi\": " + JsonNumber(s.hi) + ",\n";
  std::snprintf(line, sizeof(line), "      \"num_cells\": %zu,\n",
                s.num_cells);
  *out += line;
  *out += "      \"contraction_factor\": " +
          JsonNumber(s.contraction_factor) + ",\n";
  *out += std::string("      \"average_contractive\": ") +
          (s.average_contractive ? "true" : "false") + ",\n";
  *out += std::string("      \"irreducible\": ") +
          (s.irreducible ? "true" : "false") + ",\n";
  std::snprintf(line, sizeof(line), "      \"terminal_classes\": %zu,\n",
                s.terminal_classes);
  *out += line;
  *out += std::string("      \"invariant_measure_exists\": ") +
          (s.invariant_measure_exists ? "true" : "false") + ",\n";
  *out += "      \"invariant_mean\": " + JsonNumber(s.invariant_mean) + ",\n";
  *out += "      \"subdominant_modulus\": " +
          JsonNumber(s.subdominant_modulus) + ",\n";
  *out += "      \"spectral_gap\": " + JsonNumber(s.spectral_gap) + ",\n";
  *out += "      \"mixing_time_epsilon\": " +
          JsonNumber(s.mixing_time_epsilon) + ",\n";
  *out += "      \"mixing_time_bound_steps\": " +
          JsonNumber(s.mixing_time_bound) + ",\n";
  *out += "      \"wasserstein_mixing_time_bound_steps\": " +
          JsonNumber(s.wasserstein_mixing_time_bound) + ",\n";
  std::snprintf(line, sizeof(line), "      \"solver_iterations\": %d,\n",
                s.solver_iterations);
  *out += line;
  *out += std::string("      \"solver_converged\": ") +
          (s.solver_converged ? "true" : "false") + ",\n";
  std::snprintf(line, sizeof(line),
                "      \"measure_digest\": \"%016" PRIx64 "\",\n",
                s.measure_digest);
  *out += line;
  *out += std::string("      \"certified\": ") +
          (s.certified ? "true" : "false") + "\n";
  *out += "    }";
}

// Everything a spectral certificate depends on besides the call's
// options: the surrogate's maps, probabilities and domain, as bit
// patterns, so equal keys are guaranteed bit-identical certificates.
std::vector<uint64_t> SurrogateKey(const ScenarioDynamics& model) {
  std::vector<uint64_t> key;
  const auto add = [&key](double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    key.push_back(bits);
  };
  add(model.lo);
  add(model.hi);
  for (size_t e = 0; e < model.ifs.num_maps(); ++e) {
    const markov::AffineMap& map = model.ifs.map(e);
    key.push_back(map.dimension());
    for (size_t r = 0; r < map.dimension(); ++r) {
      for (size_t c = 0; c < map.dimension(); ++c) add(map.a()(r, c));
      add(map.b()[r]);
    }
    add(model.ifs.probability(e));
  }
  return key;
}

}  // namespace

ScenarioCertificate CertifyScenario(const Scenario& scenario,
                                    const ScenarioCertifyOptions& options) {
  return CertifyScenarios({&scenario}, options).front();
}

std::vector<ScenarioCertificate> CertifyScenarios(
    const std::vector<const Scenario*>& scenarios,
    const ScenarioCertifyOptions& options) {
  std::vector<ScenarioCertificate> certificates;
  // Surrogates certified so far in this call, each with the index of the
  // certificate it produced.
  std::vector<std::pair<std::vector<uint64_t>, size_t>> solved;
  for (const Scenario* scenario : scenarios) {
    EQIMPACT_CHECK(scenario != nullptr);
    ScenarioCertificate certificate;
    certificate.scenario = scenario->name();
    std::optional<ScenarioDynamics> model = scenario->DynamicsModel();
    if (model.has_value()) {
      certificate.has_model = true;
      certificate.model_description = model->description;
      std::vector<uint64_t> key = SurrogateKey(*model);
      const auto same = std::find_if(
          solved.begin(), solved.end(),
          [&key](const auto& entry) { return entry.first == key; });
      if (same != solved.end()) {
        certificate.spectral = certificates[same->second].spectral;
      } else {
        certificate.spectral = core::CertifyIfsSpectral(
            model->ifs, model->lo, model->hi, options.spectral);
        solved.emplace_back(std::move(key), certificates.size());
      }
    }
    certificates.push_back(std::move(certificate));
  }
  return certificates;
}

std::vector<ScenarioCertificate> CertifyRegisteredScenarios(
    const ScenarioCertifyOptions& options) {
  std::vector<std::unique_ptr<Scenario>> owned;
  std::vector<const Scenario*> scenarios;
  for (const std::string& name : RegisteredScenarioNames()) {
    owned.push_back(CreateScenario(name));
    scenarios.push_back(owned.back().get());
  }
  return CertifyScenarios(scenarios, options);
}

std::string RenderScenarioCertificatesJson(
    const std::vector<ScenarioCertificate>& certificates,
    const std::string& provenance_json,
    const ScenarioCertifyOptions& options) {
  std::string out = "{\n";
  char line[128];
  out += "  \"certify\": {\n";
  std::snprintf(line, sizeof(line), "    \"num_cells\": %zu,\n",
                options.spectral.num_cells);
  out += line;
  out += "    \"epsilon\": " + JsonNumber(options.spectral.epsilon) + ",\n";
  std::snprintf(line, sizeof(line), "    \"max_iterations\": %d,\n",
                options.spectral.max_iterations);
  out += line;
  std::snprintf(line, sizeof(line), "    \"arnoldi_subspace\": %zu\n",
                options.spectral.arnoldi_subspace);
  out += line;
  out += "  },\n";
  // provenance_json already carries its "provenance": key (the
  // serve::RenderProvenance convention) and must stay on one line — CI
  // smokes filter it by grep when byte-diffing documents.
  out += "  " + provenance_json + ",\n";
  out += "  \"certificates\": [\n";
  for (size_t i = 0; i < certificates.size(); ++i) {
    AppendCertificateJson(certificates[i], &out);
    out += i + 1 < certificates.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace sim
}  // namespace eqimpact

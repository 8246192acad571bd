#include "core/ergodicity.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "base/fnv1a.h"
#include "graph/analysis.h"
#include "markov/sparse_ulam.h"

namespace eqimpact {
namespace core {

namespace {

// Steps t with c^t * diameter <= epsilon: W1 contracts by the average
// contraction factor c per step, and no two measures on the domain are
// further apart than its diameter.
double WassersteinMixingTimeBound(double contraction, double diameter,
                                  double epsilon) {
  if (epsilon >= diameter) return 0.0;
  if (contraction <= 0.0) return 1.0;  // Constant maps: one step.
  if (contraction >= 1.0) return std::numeric_limits<double>::infinity();
  return std::ceil(std::log(epsilon / diameter) / std::log(contraction));
}

}  // namespace

std::string ErgodicityCertificate::Summary() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "irreducible=%s period=%zu aperiodic=%s contraction=%.4f "
                "invariant_measure=%s uniquely_ergodic=%s",
                irreducible ? "yes" : "no", period,
                aperiodic ? "yes" : "no", contraction_factor,
                invariant_measure_exists ? "exists" : "unknown",
                uniquely_ergodic ? "yes" : "no");
  return line;
}

ErgodicityCertificate CertifyMarkovChain(const markov::MarkovChain& chain) {
  ErgodicityCertificate certificate;
  certificate.irreducible = chain.IsIrreducible();
  if (certificate.irreducible) {
    certificate.period = chain.Period();
    certificate.aperiodic = certificate.period == 1;
  }
  // Finite state space: irreducibility alone pins down the invariant
  // measure; attractivity additionally needs aperiodicity.
  certificate.invariant_measure_exists = certificate.irreducible;
  certificate.contraction_factor = certificate.aperiodic ? 0.0 : 1.0;
  certificate.average_contractive = certificate.aperiodic;
  certificate.uniquely_ergodic =
      certificate.irreducible && certificate.aperiodic;
  return certificate;
}

ErgodicityCertificate CertifyAffineIfs(const markov::AffineIfs& ifs) {
  ErgodicityCertificate certificate;
  // Single-cell system: the vertex graph is one vertex with self-loops.
  certificate.irreducible = true;
  certificate.period = 1;
  certificate.aperiodic = true;
  certificate.contraction_factor = ifs.AverageContractionFactor();
  certificate.average_contractive = certificate.contraction_factor < 1.0;
  certificate.invariant_measure_exists = certificate.average_contractive;
  certificate.uniquely_ergodic = certificate.average_contractive;
  return certificate;
}

ErgodicityCertificate CertifyMarkovSystem(const markov::MarkovSystem& system,
                                          double contraction_estimate) {
  ErgodicityCertificate certificate;
  certificate.irreducible = system.IsIrreducible();
  if (certificate.irreducible) {
    graph::Digraph g = system.VertexGraph();
    certificate.period = graph::Period(g);
    certificate.aperiodic = certificate.period == 1;
  }
  certificate.contraction_factor = contraction_estimate;
  certificate.average_contractive = contraction_estimate < 1.0;
  certificate.invariant_measure_exists = certificate.irreducible;
  certificate.uniquely_ergodic = certificate.irreducible &&
                                 certificate.aperiodic &&
                                 certificate.average_contractive;
  return certificate;
}

std::string SpectralCertificate::Summary() const {
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "cells=%zu contraction=%.4f terminal_classes=%zu "
      "invariant_measure=%s mean=%.6f gap=%.6f eps=%.2g tv_mixing<=%.0f "
      "w1_mixing<=%.0f certified=%s",
      num_cells, contraction_factor, terminal_classes,
      invariant_measure_exists ? "exists" : "none", invariant_mean,
      spectral_gap, mixing_time_epsilon, mixing_time_bound,
      wasserstein_mixing_time_bound, certified ? "yes" : "no");
  return line;
}

SpectralCertificate CertifyIfsSpectral(
    const markov::AffineIfs& ifs, double lo, double hi,
    const SpectralCertificateOptions& options) {
  SpectralCertificate certificate;
  certificate.num_cells = options.num_cells;
  certificate.lo = lo;
  certificate.hi = hi;
  certificate.mixing_time_epsilon = options.epsilon;
  certificate.contraction_factor = ifs.AverageContractionFactor();
  certificate.average_contractive = certificate.contraction_factor < 1.0;
  certificate.wasserstein_mixing_time_bound = WassersteinMixingTimeBound(
      certificate.contraction_factor, hi - lo, options.epsilon);

  markov::SparseUlamOptions build;
  build.num_threads = options.num_threads;
  markov::SparseUlamOperator op(ifs, lo, hi, options.num_cells, build);

  linalg::SparseSolverOptions solver;
  solver.max_iterations = options.max_iterations;
  solver.tolerance = options.tolerance;
  solver.product.num_threads = options.num_threads;
  linalg::SparseStationaryResult stationary = op.StationarySolve(solver);
  certificate.irreducible = stationary.irreducible;
  certificate.terminal_classes = stationary.terminal_classes;
  certificate.solver_iterations = stationary.iterations;
  certificate.solver_converged = stationary.converged;
  certificate.invariant_measure_exists =
      stationary.converged && stationary.distribution.has_value();
  if (!certificate.invariant_measure_exists) return certificate;

  const linalg::Vector& pi = *stationary.distribution;
  base::Fnv1a digest;
  double mean = 0.0;
  double pi_min = 1.0;
  for (size_t i = 0; i < pi.size(); ++i) {
    digest.MixDouble(pi[i]);
    mean += pi[i] * op.CellCenter(i);
    if (pi[i] > 0.0 && pi[i] < pi_min) pi_min = pi[i];
  }
  certificate.measure_digest = digest.hash();
  certificate.invariant_mean = mean;

  linalg::SubdominantOptions subdominant;
  subdominant.subspace = options.arnoldi_subspace;
  subdominant.product.num_threads = options.num_threads;
  linalg::SubdominantResult spectrum =
      linalg::AdjointSubdominantModulus(op.adjoint(), pi, subdominant);
  certificate.subdominant_modulus = spectrum.modulus;
  certificate.spectral_gap = spectrum.spectral_gap;
  if (spectrum.modulus <= 0.0) {
    // Rank-one chain: one step reaches stationarity.
    certificate.mixing_time_bound = 1.0;
  } else if (spectrum.modulus < 1.0) {
    // log(1 / (eps * pi_min)) taken as a difference of logs: pi_min can be
    // subnormal, where the product underflows to 0.
    certificate.mixing_time_bound =
        std::ceil((std::log(1.0 / options.epsilon) - std::log(pi_min)) /
                  std::log(1.0 / spectrum.modulus));
  }
  certificate.certified = certificate.average_contractive &&
                          certificate.invariant_measure_exists &&
                          certificate.spectral_gap > 0.0;
  return certificate;
}

}  // namespace core
}  // namespace eqimpact

#ifndef EQIMPACT_LINALG_SPARSE_EIGEN_H_
#define EQIMPACT_LINALG_SPARSE_EIGEN_H_

#include <cstddef>
#include <optional>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace linalg {

/// \file
/// Iterative eigensolvers over CSR matrices. These are the sparse
/// counterparts of linalg/eigen.h: stationary distributions and
/// subdominant moduli of Markov transition matrices are computed with
/// matvec-only Krylov methods, never densifying, so 10^5-10^6-state
/// operators stay O(nnz) in time and memory. All routines are
/// deterministic: fixed start vectors, and every floating-point reduction
/// runs in a thread-count-invariant order (see SparseMatrix).

/// Iteration controls for the stationary solver.
struct SparseSolverOptions {
  /// Iteration cap for the fixed-point loop.
  int max_iterations = 100000;
  /// L1 step-delta convergence threshold.
  double tolerance = 1e-13;
  /// Threading/chunking for the solver's row passes. Without a caller
  /// pool, a multi-threaded solve starts one pool for all its iterations.
  SparseProductOptions product;
};

/// Result of SparseStationaryDistribution.
struct SparseStationaryResult {
  /// The unique stationary distribution, or nullopt when it is not unique
  /// (more than one recurrent class) or iteration did not converge.
  std::optional<Vector> distribution;
  int iterations = 0;
  bool converged = false;
  /// Structural diagnostics, always filled: whether the support pattern is
  /// strongly connected, and its number of terminal (sink) strongly
  /// connected components — for a row-stochastic matrix exactly the
  /// recurrent classes.
  bool irreducible = false;
  size_t terminal_classes = 0;
};

/// Stationary distribution of the row-stochastic matrix `transition` by
/// shifted (lazy) adjoint power iteration: x <- (x + P^T x) / 2, L1
/// renormalised each step. The shift maps every eigenvalue L of P to
/// (1 + L) / 2, so the fixed point is attractive even for periodic chains
/// (where plain power iteration oscillates), and pi (I + P) / 2 = pi iff
/// pi P = pi. Uniqueness is certified structurally first: unless the
/// support pattern has exactly one terminal class (a strictly weaker
/// requirement than irreducibility: transient states are fine), returns
/// nullopt. The loop is sum/divide-only (no libm), so converged iterates
/// are bit-reproducible across machines, and bitwise-identical at any
/// options.product thread count or chunk size.
SparseStationaryResult SparseStationaryDistribution(
    const SparseMatrix& transition, const SparseSolverOptions& options = {});

/// SparseStationaryDistribution of the chain whose adjoint `adjoint`
/// (= transition.Transposed()) the caller already holds; the result is
/// bitwise the same. One iteration is one pass over the adjoint's rows
/// (gather, shift) into a second preallocated buffer, a sequential sum,
/// and one normalise + L1-delta pass; the buffers then swap.
SparseStationaryResult AdjointStationaryDistribution(
    const SparseMatrix& adjoint, const SparseSolverOptions& options = {});

/// Controls for SparseSubdominantModulus.
struct SubdominantOptions {
  /// Krylov subspace dimension (capped at the matrix size).
  size_t subspace = 32;
  /// Threading/chunking for the matvecs.
  SparseProductOptions product;
};

/// Result of SparseSubdominantModulus.
struct SubdominantResult {
  /// |lambda_2|: modulus of the largest eigenvalue after the Perron root.
  double modulus = 1.0;
  /// 1 - |lambda_2| (clamped at 0).
  double spectral_gap = 0.0;
  /// Arnoldi steps actually taken (early breakdown truncates).
  size_t subspace_used = 0;
  bool valid = false;
};

/// Subdominant eigenvalue modulus |lambda_2| of the row-stochastic matrix
/// `transition` with stationary distribution `stationary`, via Arnoldi on
/// the deflated adjoint B x = P^T x - pi (1^T x). Deflation annihilates the
/// Perron eigenvalue 1 (left and right spectra coincide, and every other
/// eigenvector of P^T keeps its eigenvalue under B), so the spectral radius
/// of the projected dense Hessenberg — evaluated with linalg::SpectralRadius,
/// which handles complex pairs — approximates |lambda_2| directly.
SubdominantResult SparseSubdominantModulus(
    const SparseMatrix& transition, const Vector& stationary,
    const SubdominantOptions& options = {});

/// SparseSubdominantModulus from the caller's `adjoint`
/// (= transition.Transposed()), without transposing again; the result is
/// bitwise the same.
SubdominantResult AdjointSubdominantModulus(
    const SparseMatrix& adjoint, const Vector& stationary,
    const SubdominantOptions& options = {});

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_SPARSE_EIGEN_H_

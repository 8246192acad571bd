#include "linalg/sparse_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "base/check.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace eqimpact {
namespace linalg {
namespace {

// Strongly connected components of the support pattern, iterative Tarjan
// (explicit stack: recursion would overflow on 10^5-state chains). Returns
// the number of SCCs and fills component ids in [0, count).
size_t StronglyConnectedComponents(const SparseMatrix& a,
                                   std::vector<size_t>* component) {
  const size_t n = a.rows();
  constexpr size_t kUnvisited = static_cast<size_t>(-1);
  component->assign(n, kUnvisited);
  std::vector<size_t> index(n, kUnvisited);
  std::vector<size_t> lowlink(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<size_t> stack;
  struct Frame {
    size_t node;
    size_t edge;  // next CSR slot to explore
  };
  std::vector<Frame> frames;
  size_t next_index = 0;
  size_t num_components = 0;
  const std::vector<size_t>& offsets = a.row_offsets();
  const std::vector<size_t>& cols = a.col_indices();

  for (size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back(Frame{root, offsets[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const size_t v = frame.node;
      if (frame.edge < offsets[v + 1]) {
        const size_t w = cols[frame.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back(Frame{w, offsets[w]});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        while (true) {
          const size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          (*component)[w] = num_components;
          if (w == v) break;
        }
        ++num_components;
      }
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        lowlink[parent.node] = std::min(lowlink[parent.node], lowlink[v]);
      }
    }
  }
  return num_components;
}

// Uniqueness structure of the chain P whose adjoint P^T is `adjoint`, from
// one Tarjan pass over the adjoint's pattern. P^T has the same strongly
// connected components as P with every edge reversed: a stored entry
// (c, r) of P^T is the P-edge r -> c, which leaves r's class when c lies
// in another one. A class no P-edge leaves is terminal (recurrent).
struct ChainStructure {
  bool irreducible = false;
  size_t terminal_classes = 0;
};

ChainStructure AnalyzeAdjoint(const SparseMatrix& adjoint) {
  std::vector<size_t> component;
  const size_t count = StronglyConnectedComponents(adjoint, &component);
  std::vector<uint8_t> has_exit(count, 0);
  const std::vector<size_t>& offsets = adjoint.row_offsets();
  const std::vector<size_t>& cols = adjoint.col_indices();
  for (size_t c = 0; c < adjoint.rows(); ++c) {
    for (size_t k = offsets[c]; k < offsets[c + 1]; ++k) {
      const size_t source = component[cols[k]];
      if (source != component[c]) has_exit[source] = 1;
    }
  }
  ChainStructure structure;
  structure.irreducible = count == 1;
  for (size_t i = 0; i < count; ++i) {
    if (!has_exit[i]) ++structure.terminal_classes;
  }
  return structure;
}

// next[r] = (x[r] + (P^T x)[r]) / 2 for the adjoint rows [begin, end):
// the lazy shift keeps periodic chains convergent.
void LazyStepRows(const SparseMatrix& adjoint, const double* x, double* next,
                  size_t begin, size_t end) {
  const size_t* offsets = adjoint.row_offsets().data();
  const size_t* cols = adjoint.col_indices().data();
  const double* vals = adjoint.values().data();
  for (size_t r = begin; r < end; ++r) {
    // Unrolled by four (the same left-to-right sum): Ulam rows are a few
    // entries long, and a per-entry loop branch that mispredicts on every
    // row-length change would dominate the pass.
    size_t k = offsets[r];
    const size_t row_end = offsets[r + 1];
    double sum = 0.0;
    for (; k + 4 <= row_end; k += 4) {
      sum += vals[k] * x[cols[k]];
      sum += vals[k + 1] * x[cols[k + 1]];
      sum += vals[k + 2] * x[cols[k + 2]];
      sum += vals[k + 3] * x[cols[k + 3]];
    }
    for (; k < row_end; ++k) sum += vals[k] * x[cols[k]];
    next[r] = 0.5 * (x[r] + sum);
  }
}

}  // namespace

SparseStationaryResult SparseStationaryDistribution(
    const SparseMatrix& transition, const SparseSolverOptions& options) {
  return AdjointStationaryDistribution(transition.Transposed(), options);
}

SparseStationaryResult AdjointStationaryDistribution(
    const SparseMatrix& adjoint, const SparseSolverOptions& options) {
  EQIMPACT_CHECK_EQ(adjoint.rows(), adjoint.cols());
  EQIMPACT_CHECK_GT(adjoint.rows(), 0u);
  const size_t n = adjoint.rows();

  SparseStationaryResult result;
  const ChainStructure structure = AnalyzeAdjoint(adjoint);
  result.irreducible = structure.irreducible;
  result.terminal_classes = structure.terminal_classes;
  if (result.terminal_classes != 1) return result;

  // Multi-threaded solves dispatch every iteration on one pool, not on a
  // throwaway pool per matvec.
  runtime::ParallelForOptions parallel;
  parallel.num_threads = options.product.num_threads;
  parallel.pool = options.product.pool;
  std::optional<runtime::ThreadPool> owned_pool;
  const size_t workers =
      std::min(runtime::EffectiveNumThreads(parallel),
               runtime::NumChunks(n, options.product.chunk_size));
  if (parallel.pool == nullptr && workers > 1) {
    owned_pool.emplace(workers);
    parallel.pool = &*owned_pool;
  }

  // Two buffers swapped every iteration. The row pass owns next[r] (the
  // gather over adjoint row r runs over ascending source states, the order
  // of a dense MultiplyLeft scatter), so it is bitwise thread-invariant;
  // the sum and the normalise + delta pass run sequentially in index order.
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  const double* xv = x.data();
  double* nv = next.data();
  const std::function<void(size_t, size_t, size_t)> lazy_step =
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        LazyStepRows(adjoint, xv, nv, begin, end);
      };
  for (int it = 0; it < options.max_iterations; ++it) {
    runtime::ParallelForChunks(n, options.product.chunk_size, lazy_step,
                               parallel);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += nv[i];
    EQIMPACT_CHECK_GT(sum, 0.0);
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      nv[i] /= sum;
      delta += std::fabs(nv[i] - xv[i]);
    }
    x.swap(next);
    xv = x.data();
    nv = next.data();
    result.iterations = it + 1;
    if (delta <= options.tolerance) {
      result.converged = true;
      result.distribution = Vector(std::move(x));
      return result;
    }
  }
  return result;
}

SubdominantResult SparseSubdominantModulus(const SparseMatrix& transition,
                                           const Vector& stationary,
                                           const SubdominantOptions& options) {
  return AdjointSubdominantModulus(transition.Transposed(), stationary,
                                   options);
}

SubdominantResult AdjointSubdominantModulus(const SparseMatrix& adjoint,
                                            const Vector& stationary,
                                            const SubdominantOptions& options) {
  EQIMPACT_CHECK_EQ(adjoint.rows(), adjoint.cols());
  EQIMPACT_CHECK_EQ(stationary.size(), adjoint.rows());
  const size_t n = adjoint.rows();

  SubdominantResult result;
  if (n <= 1) {
    // A one-state chain has no subdominant mode: gap 1 by convention.
    result.modulus = 0.0;
    result.spectral_gap = 1.0;
    result.valid = true;
    return result;
  }

  // Deflated adjoint: B x = P^T x - pi (1^T x). Every Krylov vector has
  // size n (the matvec checks its operand against the operator), so the
  // inner loops below run over raw storage.
  const double* pi = stationary.data().data();
  const auto apply_deflated = [&](const Vector& v) {
    Vector out = adjoint.Multiply(v, options.product);
    EQIMPACT_CHECK_EQ(out.size(), n);
    const double* vv = v.data().data();
    double* ov = out.mutable_data().data();
    double mass = 0.0;
    for (size_t i = 0; i < n; ++i) mass += vv[i];
    for (size_t i = 0; i < n; ++i) ov[i] -= pi[i] * mass;
    return out;
  };

  const size_t m = std::min(options.subspace, n);
  std::vector<Vector> q;
  q.reserve(m + 1);
  Matrix h(m + 1, m);

  // Deterministic pseudo-random start vector (local LCG; no rng-layer
  // dependency) so the Krylov space is unlikely to miss lambda_2's
  // eigenvector the way a structured start could on symmetric chains.
  {
    Vector u(n);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      u[i] = 0.5 + static_cast<double>(state >> 11) * 0x1.0p-53;
    }
    const double norm = u.Norm2();
    EQIMPACT_CHECK_GT(norm, 0.0);
    u /= norm;
    q.push_back(std::move(u));
  }

  size_t steps = 0;
  for (size_t j = 0; j < m; ++j) {
    Vector w = apply_deflated(q[j]);
    double* wv = w.mutable_data().data();
    // Modified Gram-Schmidt.
    for (size_t i = 0; i <= j; ++i) {
      const double* qi = q[i].data().data();
      double hij = 0.0;
      for (size_t t = 0; t < n; ++t) hij += qi[t] * wv[t];
      h(i, j) = hij;
      for (size_t t = 0; t < n; ++t) wv[t] -= hij * qi[t];
    }
    steps = j + 1;
    const double norm = w.Norm2();
    h(j + 1, j) = norm;
    if (norm <= 1e-12) break;  // invariant subspace found: exact projection
    w /= norm;
    q.push_back(std::move(w));
  }

  result.subspace_used = steps;
  if (steps == 0) {
    result.modulus = 0.0;
  } else {
    Matrix hm(steps, steps);
    for (size_t i = 0; i < steps; ++i) {
      for (size_t j = 0; j < steps; ++j) hm(i, j) = h(i, j);
    }
    result.modulus = std::max(0.0, SpectralRadius(hm));
  }
  result.spectral_gap = std::max(0.0, 1.0 - result.modulus);
  result.valid = true;
  return result;
}

}  // namespace linalg
}  // namespace eqimpact

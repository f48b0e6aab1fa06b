#pragma once
// Serial Krylov solver (the "KSP" substitute, Sec. IV-C). The serial CG is
// the reference implementation the tests check the distributed CG in
// dist.hpp against; dist_cg runs the same recurrence across virtual ranks.

#include <span>

#include "linalg/csr.hpp"

namespace dsmcpic::linalg {

struct SolveResult {
  int iterations = 0;
  double residual = 0.0;  // final relative residual ||r|| / ||b||
  bool converged = false;
};

/// Preconditioner selection for the distributed CG. kBlockSsor applies a
/// symmetric Gauss-Seidel sweep on each rank's owned diagonal block (block
/// Jacobi between ranks — the same flavour as PETSc's default block
/// Jacobi/ILU, and like it, its strength decreases as ranks grow).
enum class Precon { kNone, kJacobi, kBlockSsor };

struct SolveOptions {
  double rel_tol = 1e-8;
  int max_iterations = 1000;
  bool jacobi_precondition = true;  // serial solvers
  Precon dist_precon = Precon::kBlockSsor;  // distributed CG
  /// Keep the previous solution as the initial guess across solves. PETSc's
  /// KSP defaults to a zero initial guess — which is why the paper's
  /// Poisson_Solve pays the full iteration count every PIC step — so this
  /// defaults to false; the solver zeroes x before each solve unless set.
  bool warm_start = false;
};

/// Preconditioned conjugate gradient; A must be symmetric positive
/// (semi-)definite. x is the initial guess on input (warm start) and the
/// solution on output.
SolveResult cg(const CsrMatrix& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opt = {});

}  // namespace dsmcpic::linalg

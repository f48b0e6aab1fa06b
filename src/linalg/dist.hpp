#pragma once
// Distributed sparse linear algebra on the virtual-rank runtime.
//
// This is the parallel half of the "PETSc KSP" substitute: each virtual rank
// owns a contiguous set of matrix rows (grid nodes), holds halo copies of
// the off-rank columns its rows touch, and the preconditioned CG recurrence
// runs with one halo exchange and two allreduce rounds per iteration — the
// communication-to-computation ratio that makes Poisson_Solve the paper's
// scalability bottleneck (Table IV) emerges from exactly these messages.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/krylov.hpp"
#include "par/runtime.hpp"

namespace dsmcpic::linalg {

/// Row-ownership layout plus the halo-exchange communication plans.
struct DistLayout {
  int nranks = 1;
  std::vector<std::int32_t> owner;  // global row -> owning rank

  std::vector<std::vector<std::int32_t>> owned;  // per rank, sorted global ids
  std::vector<std::vector<std::int32_t>> halo;   // per rank, sorted global ids

  struct Plan {
    int peer = -1;
    std::vector<std::int32_t> idx;  // local indices (see send/recv semantics)
  };
  // send_plan[r]: for each peer, indices into owned[r] whose values the peer
  // needs; ordered to match the peer's recv_plan entry for r.
  std::vector<std::vector<Plan>> send_plan;
  // recv_plan[r]: for each peer, indices into halo[r] filled by that peer.
  // Both plan lists are sorted by peer, and each exchange sends exactly one
  // message per send-plan entry. The runtime delivers an inbox sorted by
  // source rank, so the k-th halo message on rank r fills recv_plan[r][k].
  std::vector<std::vector<Plan>> recv_plan;

  /// Derives the layout from a row->rank map and the sparsity pattern of the
  /// (square) matrix: rank r's halo is every column referenced by its rows
  /// but owned elsewhere.
  static DistLayout build(int nranks, std::span<const std::int32_t> row_owner,
                          const CsrMatrix& pattern);

  std::int32_t num_global() const {
    return static_cast<std::int32_t>(owner.size());
  }
  std::int32_t local_size(int r) const {
    return static_cast<std::int32_t>(owned[r].size() + halo[r].size());
  }
  /// Local index of global row g on rank r (owned first, halo after);
  /// -1 when not present.
  std::int32_t local_index(int r, std::int32_t g) const;
};

/// The distributed matrix: per-rank CSR blocks with columns renumbered into
/// local (owned-then-halo) indices.
struct DistMatrix {
  DistLayout layout;
  std::vector<CsrMatrix> local;  // per rank: rows = #owned, cols = local_size

  /// Invariants of one owned row of a rank's block, computed once per
  /// layout. Local rows are sorted by column and owned columns (< #owned)
  /// precede halo ones, so row i splits into strictly-lower owned entries
  /// [row_ptr[i], dpos), the diagonal [dpos, upos) (empty when not stored),
  /// strictly-upper owned entries [upos, hpos) and halo entries
  /// [hpos, row_ptr[i+1]).
  struct RowSplit {
    std::int32_t dpos = 0, upos = 0, hpos = 0;  // positions in local[r]
    double diag = 1.0;      // stored diagonal, 0 replaced by 1
    double inv_diag = 1.0;  // 1 / diag
  };
  std::vector<std::vector<RowSplit>> split;  // per rank, per owned row

  static DistMatrix build(const CsrMatrix& a, DistLayout layout);
};

/// Per-rank owned-row vectors (b, x).
using DistVector = std::vector<std::vector<double>>;

/// Scatters a global vector into per-rank owned segments / gathers it back.
DistVector scatter_vector(const DistLayout& layout, std::span<const double> v);
std::vector<double> gather_vector(const DistLayout& layout, const DistVector& v);

/// Preconditioned CG across virtual ranks. `x` is the warm-start guess on
/// input and the solution on output. All communication costs are charged
/// under `phase` on `rt`.
SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                    const DistMatrix& a, const DistVector& b, DistVector& x,
                    const SolveOptions& opt = {});

/// One halo exchange: ships owned values listed in send plans, fills halo
/// slots. `local` holds per-rank vectors of local_size (owned then halo);
/// the owned prefix must be filled on entry, the halo suffix is filled on
/// return. Exposed for reuse by the PIC field gather.
void halo_exchange(par::Runtime& rt, const std::string& phase,
                   const DistLayout& layout,
                   std::vector<std::vector<double>>& local);

}  // namespace dsmcpic::linalg

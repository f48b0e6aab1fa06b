#pragma once
// Distributed sparse linear algebra on the virtual-rank runtime.
//
// This is the parallel half of the "PETSc KSP" substitute: each virtual rank
// owns a contiguous set of matrix rows (grid nodes), holds halo copies of
// the off-rank columns its rows touch, and the preconditioned CG recurrence
// runs with one halo exchange and two allreduce rounds per iteration — the
// communication-to-computation ratio that makes Poisson_Solve the paper's
// scalability bottleneck (Table IV) emerges from exactly these messages.
// The halo's shape is fixed when the layout is built, so it travels through
// one persistent par::Channel: each exchange packs straight into messages in
// the runtime's message arenas, with no steady-state allocation or second
// copy per message, and the costs of any send of the same bytes.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/krylov.hpp"
#include "par/channel.hpp"
#include "par/runtime.hpp"

namespace dsmcpic::linalg {

/// Row-ownership layout plus the halo-exchange communication plans.
struct DistLayout {
  int nranks = 1;
  std::vector<std::int32_t> owner;  // global row -> owning rank

  std::vector<std::vector<std::int32_t>> owned;  // per rank, sorted global ids
  std::vector<std::vector<std::int32_t>> halo;   // per rank, sorted global ids

  // The halo exchange. Rank r's send plan for a peer lists indices into
  // owned[r] whose values the peer needs, in the order of the peer's
  // receive plan for r, which lists local indices (#owned + position in
  // halo[r]). Every exchange sends one message per send-plan entry, packed
  // in place in the sender's message arena (par::Channel).
  par::Channel halo_channel;

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
/// under `phase` on `rt`. Every exit leaves the mailboxes drained.
SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                    const DistMatrix& a, const DistVector& b, DistVector& x,
                    const SolveOptions& opt = {});

/// One halo exchange through layout.halo_channel: posts the owned values
/// listed in the send plans, then fills the halo slots. `local` holds per-rank vectors of local_size (owned then halo);
/// the owned prefix must be filled on entry, the halo suffix is filled on
/// return. Exposed for reuse by the PIC field gather.
void halo_exchange(par::Runtime& rt, const std::string& phase,
                   const DistLayout& layout,
                   std::vector<std::vector<double>>& local);

}  // namespace dsmcpic::linalg

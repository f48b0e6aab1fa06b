#pragma once
// Shared-node communication for the PIC field quantities (paper Sec. IV-C:
// "for boundary nodes belonging to multiple parallel processes, their charge
// density should be the sum of the charge densities from all neighboring
// processes ... we first apply reduction summation").
//
// Each rank holds compact per-node vectors over the fine-grid nodes its
// local fine cells touch. Nodes shared across ranks have a unique owner
// (the smallest touching rank); reduce_to_owners ships ghost contributions
// to owners, broadcast_from_owners ships owner values back to ghosts.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "par/channel.hpp"
#include "par/runtime.hpp"
#include "pic/fine_grid.hpp"

namespace dsmcpic::pic {

class NodeExchange {
 public:
  /// `coarse_owner` maps each coarse cell to its rank; fine cells inherit
  /// their parent's owner.
  NodeExchange(const FineGrid& grid, std::span<const std::int32_t> coarse_owner,
               int nranks);

  int nranks() const { return nranks_; }

  /// Global node -> owning rank (every node touched by at least one cell).
  const std::vector<std::int32_t>& node_owner() const { return node_owner_; }

  /// Sorted global node ids used by rank r's fine cells.
  const std::vector<std::int32_t>& rank_nodes(int r) const {
    return rank_nodes_[r];
  }

  /// Local index of global node g on rank r (-1 when absent). O(log n).
  std::int32_t local_index(int r, std::int32_t g) const;

  /// values[r] is indexed like rank_nodes(r). Sums every ghost entry into
  /// its owner's entry. Ghost entries are left untouched (stale) — call
  /// broadcast_from_owners to refresh them.
  void reduce_to_owners(par::Runtime& rt, const std::string& phase,
                        std::vector<std::vector<double>>& values) const;

  /// Copies each owned entry out to all ranks holding the node as a ghost.
  void broadcast_from_owners(par::Runtime& rt, const std::string& phase,
                             std::vector<std::vector<double>>& values) const;

  /// Convenience: fresh zeroed per-rank value vectors.
  std::vector<std::vector<double>> make_values() const;

  /// Sum of the OWNED entries of per-rank values (each global node counted
  /// exactly once, at its owner). After reduce_to_owners this is the global
  /// total of the reduced field — the number the health auditor balances
  /// against the particle charge. Pure read.
  double sum_owned(const std::vector<std::vector<double>>& values) const;

 private:
  int nranks_;
  std::vector<std::int32_t> node_owner_;
  std::vector<std::vector<std::int32_t>> rank_nodes_;
  // Ghost -> owner (reduce): rank r's send plan per owner-peer lists r's
  // local indices of ghosts that peer owns; the owner's receive plan lists
  // its own local indices in matching (ascending global id) order.
  par::Channel reduce_;
  // Owner -> ghost (broadcast): the same plans with the roles swapped.
  par::Channel broadcast_;
};

}  // namespace dsmcpic::pic

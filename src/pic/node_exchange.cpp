#include "pic/node_exchange.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace dsmcpic::pic {

NodeExchange::NodeExchange(const FineGrid& grid,
                           std::span<const std::int32_t> coarse_owner,
                           int nranks)
    : nranks_(nranks) {
  const mesh::TetMesh& fine = grid.fine();
  DSMCPIC_CHECK(static_cast<std::int32_t>(coarse_owner.size()) ==
                grid.coarse().num_tets());

  node_owner_.assign(static_cast<std::size_t>(fine.num_nodes()), -1);
  std::vector<std::vector<std::int32_t>> sets(nranks);
  for (std::int32_t fc = 0; fc < fine.num_tets(); ++fc) {
    const int r = coarse_owner[grid.parent_of(fc)];
    DSMCPIC_CHECK_MSG(r >= 0 && r < nranks, "bad owner for coarse cell");
    for (const std::int32_t n : fine.tet(fc)) {
      sets[r].push_back(n);
      // Owner = smallest touching rank.
      if (node_owner_[n] == -1 || r < node_owner_[n]) node_owner_[n] = r;
    }
  }
  rank_nodes_.resize(nranks);
  for (int r = 0; r < nranks; ++r) {
    auto& s = sets[r];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rank_nodes_[r] = std::move(s);
  }

  // Build matching ghost/owner plans (iterate ghosts in ascending global id
  // so both sides agree on ordering).
  std::vector<std::map<int, par::HaloPlan>> ghost_acc(nranks), owner_acc(nranks);
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t i = 0; i < rank_nodes_[r].size(); ++i) {
      const std::int32_t g = rank_nodes_[r][i];
      const int o = node_owner_[g];
      if (o == r) continue;
      auto& gp = ghost_acc[r][o];
      gp.peer = o;
      gp.idx.push_back(static_cast<std::int32_t>(i));
      auto& op = owner_acc[o][r];
      op.peer = r;
      const std::int32_t li = local_index(o, g);
      DSMCPIC_CHECK_MSG(li >= 0, "owner rank missing its own shared node");
      op.idx.push_back(li);
    }
  }
  // ghost_plan[r]: per owner-peer; owner_plan[o]: per ghost-peer.
  par::HaloPlans ghost_plan(nranks), owner_plan(nranks);
  for (int r = 0; r < nranks; ++r) {
    for (auto& [peer, plan] : ghost_acc[r]) ghost_plan[r].push_back(std::move(plan));
    for (auto& [peer, plan] : owner_acc[r]) owner_plan[r].push_back(std::move(plan));
  }
  reduce_ = par::Channel(ghost_plan, owner_plan);
  broadcast_ = par::Channel(std::move(owner_plan), std::move(ghost_plan));
}

std::int32_t NodeExchange::local_index(int r, std::int32_t g) const {
  const auto& s = rank_nodes_[r];
  const auto it = std::lower_bound(s.begin(), s.end(), g);
  if (it == s.end() || *it != g) return -1;
  return static_cast<std::int32_t>(it - s.begin());
}

std::vector<std::vector<double>> NodeExchange::make_values() const {
  std::vector<std::vector<double>> v(nranks_);
  for (int r = 0; r < nranks_; ++r) v[r].assign(rank_nodes_[r].size(), 0.0);
  return v;
}

double NodeExchange::sum_owned(
    const std::vector<std::vector<double>>& values) const {
  double total = 0.0;
  for (int r = 0; r < nranks_; ++r) {
    const auto& nodes = rank_nodes_[r];
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (node_owner_[nodes[i]] == r) total += values[r][i];
  }
  return total;
}

void NodeExchange::reduce_to_owners(par::Runtime& rt, const std::string& phase,
                                    std::vector<std::vector<double>>& values) const {
  rt.superstep(phase,
               [&](par::Comm& c) { reduce_.post(c, values[c.rank()]); });
  rt.superstep(phase,
               [&](par::Comm& c) { reduce_.recv_add(c, values[c.rank()]); });
}

void NodeExchange::broadcast_from_owners(
    par::Runtime& rt, const std::string& phase,
    std::vector<std::vector<double>>& values) const {
  rt.superstep(phase,
               [&](par::Comm& c) { broadcast_.post(c, values[c.rank()]); });
  rt.superstep(phase, [&](par::Comm& c) {
    broadcast_.recv_assign(c, values[c.rank()]);
  });
}

}  // namespace dsmcpic::pic

#include "balance/hungarian.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace dsmcpic::balance {

AssignmentResult hungarian_min(std::span<const double> cost, int n) {
  DSMCPIC_CHECK(n >= 1);
  DSMCPIC_CHECK(static_cast<std::int64_t>(cost.size()) ==
                static_cast<std::int64_t>(n) * n);
  const double kInf = std::numeric_limits<double>::infinity();

  // Potentials formulation over a (n+1)-sized index space; p[j] is the row
  // matched to column j (0 = dummy). 1-based internally, classic e-maxx form.
  // The columns not yet used in a row's search sit in `free_cols`, kept
  // ascending so the scan breaks ties towards the smallest column exactly
  // like a 1..n loop over a used flag; the used ones sit in `used_cols`,
  // whose order does not matter (each updates a distinct u and v entry).
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0), minv(n + 1);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  std::vector<int> free_cols, used_cols;
  free_cols.reserve(n);
  used_cols.reserve(n + 1);
  std::int64_t ops = 0;

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    free_cols.resize(n);
    for (int j = 1; j <= n; ++j) free_cols[j - 1] = j;
    used_cols.clear();
    std::size_t k0 = 0;  // position of j0 in free_cols (j0 > 0)
    do {
      if (j0 != 0) free_cols.erase(free_cols.begin() + k0);  // stays ascending
      used_cols.push_back(j0);
      const int i0 = p[j0];
      const double* row = cost.data() + static_cast<std::size_t>(i0 - 1) * n;
      const double ui0 = u[i0];
      double delta = kInf;
      int j1 = -1;
      std::size_t k1 = 0;
      ops += static_cast<std::int64_t>(free_cols.size());
      for (std::size_t k = 0; k < free_cols.size(); ++k) {
        const int j = free_cols[k];
        const double cur = row[j - 1] - ui0 - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
          k1 = k;
        }
      }
      for (const int j : used_cols) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      for (const int j : free_cols) minv[j] -= delta;
      j0 = j1;
      k0 = k1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult res;
  res.row_to_col.assign(n, -1);
  for (int j = 1; j <= n; ++j)
    if (p[j] >= 1) res.row_to_col[p[j] - 1] = j - 1;
  for (int i = 0; i < n; ++i) {
    DSMCPIC_CHECK(res.row_to_col[i] >= 0);
    res.total += cost[static_cast<std::size_t>(i) * n + res.row_to_col[i]];
  }
  res.operations = ops;
  return res;
}

AssignmentResult hungarian_max(std::span<const double> weight, int n) {
  std::vector<double> neg(weight.size());
  for (std::size_t i = 0; i < weight.size(); ++i) neg[i] = -weight[i];
  AssignmentResult res = hungarian_min(neg, n);
  res.total = -res.total;
  return res;
}

}  // namespace dsmcpic::balance

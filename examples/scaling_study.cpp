// Example: a self-contained strong-scaling study using the public API —
// sweep virtual rank counts for both communication strategies on any of the
// paper's datasets and machine profiles, and print speedups. This is the
// "hello world" of the parallel side of the library (the bench/ harness
// does the full paper tables; this shows how to build such a study).
//
//   ./scaling_study --dataset 2 --ranks 8,16,32,64 --machine tianhe3

#include <cstdio>
#include <sstream>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace dsmcpic;

int main(int argc, char** argv) {
  Cli cli("Strong-scaling study on the coupled DSMC/PIC solver");
  const auto* dataset = cli.add_int("dataset", 2, "paper dataset id (1..6)");
  const auto* ranks_csv =
      cli.add_string("ranks", "8,16,32,64", "rank counts to sweep");
  const auto* steps = cli.add_int("steps", 30, "DSMC steps per run");
  const auto* machine =
      cli.add_string("machine", "tianhe2", "tianhe2 | bscc | tianhe3");
  const auto* threads = cli.add_int(
      "threads", 1, "host threads (1 = serial, 0 = all cores)");
  if (!cli.parse(argc, argv)) return 0;

  std::vector<int> ranks;
  {
    std::stringstream ss(*ranks_csv);
    std::string item;
    while (std::getline(ss, item, ',')) ranks.push_back(std::stoi(item));
  }

  const core::Dataset ds = core::make_dataset(static_cast<int>(*dataset));
  par::MachineProfile profile = par::MachineProfile::tianhe2();
  if (*machine == "bscc") profile = par::MachineProfile::bscc();
  if (*machine == "tianhe3") profile = par::MachineProfile::tianhe3();

  Table t("Strong scaling of " + ds.name + " on " + *machine +
          " (virtual seconds)");
  std::vector<std::string> header{"strategy"};
  for (const int n : ranks) header.push_back(std::to_string(n));
  header.push_back("speedup@max");
  t.header(header);

  for (const auto strategy : {exchange::Strategy::kDistributed,
                              exchange::Strategy::kCentralized}) {
    std::vector<double> times;
    for (const int n : ranks) {
      core::ParallelConfig par;
      par.nranks = n;
      par.profile = profile;
      par.strategy = strategy;
      par.balance.period = 10;
      par.particle_scale = ds.paper_particle_scale;
      par.grid_scale = ds.paper_grid_scale;
      par.threads = static_cast<int>(*threads);
      core::CoupledSolver solver(ds.config, par);
      solver.run(static_cast<int>(*steps));
      times.push_back(solver.runtime().total_time());
      std::fprintf(stderr, "  %s %d ranks: %.1f virtual s\n",
                   exchange::strategy_name(strategy), n, times.back());
    }
    std::vector<std::string> row{exchange::strategy_name(strategy)};
    for (const double v : times) row.push_back(Table::num(v, 1));
    row.push_back(Table::num(times.front() / times.back(), 2) + "x");
    t.row(row);
  }
  t.print();
  return 0;
}

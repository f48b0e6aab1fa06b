#include "obs/step_record.hpp"

namespace dsmcpic::obs {

std::int64_t StepRecord::particles() const {
  std::int64_t n = 0;
  for (const std::int64_t p : particles_per_rank) n += p;
  return n;
}

void StepTotals::add(const StepRecord& r) {
  injected += r.injected;
  migrated_dsmc += r.migrated_dsmc;
  migrated_pic += r.migrated_pic;
  collisions += r.collisions;
  ionizations += r.ionizations;
  recombinations += r.recombinations;
  exited += r.exited_dsmc + r.exited_pic;
  pic_lost += r.pic_lost;
  rebalances += r.rebalanced ? 1 : 0;
  exchange_bytes += r.exchange_bytes;
  exchange_messages += r.exchange_messages;
}

}  // namespace dsmcpic::obs

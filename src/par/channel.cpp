#include "par/channel.hpp"

#include "support/error.hpp"

namespace dsmcpic::par {

Channel::Channel(HaloPlans send, HaloPlans recv)
    : send_(std::move(send)), recv_(std::move(recv)) {
  DSMCPIC_CHECK_MSG(send_.size() == recv_.size(),
                    "channel has " << send_.size() << " send and "
                                   << recv_.size() << " receive rank plans");
}

void Channel::post(Comm& c, std::span<const double> v) const {
  const auto r = static_cast<std::size_t>(c.rank());
  DSMCPIC_CHECK_MSG(r < send_.size(), "rank " << r << " outside the channel");
  for (const HaloPlan& plan : send_[r]) {
    const std::span<double> d =
        c.stage<double>(plan.peer, /*tag=*/0, plan.idx.size(), CostClass::kGrid);
    for (std::size_t i = 0; i < d.size(); ++i) d[i] = v[plan.idx[i]];
    c.charge(WorkKind::kPackByte, static_cast<double>(d.size_bytes()));
  }
}

template <typename Apply>
void Channel::receive(const Comm& c, Apply&& apply) const {
  const auto r = static_cast<std::size_t>(c.rank());
  DSMCPIC_CHECK_MSG(r < recv_.size(), "rank " << r << " outside the channel");
  const auto& plans = recv_[r];
  std::size_t k = 0;
  for (const Message& msg : c.inbox()) {
    DSMCPIC_CHECK_MSG(k < plans.size() && plans[k].peer == msg.src,
                      "unexpected message from rank " << msg.src << " to rank "
                                                      << r);
    const std::span<const double> vals = msg.view<double>();
    DSMCPIC_CHECK_MSG(vals.size() == plans[k].idx.size(),
                      "rank " << msg.src << " sent " << vals.size()
                              << " values, rank " << r << " expects "
                              << plans[k].idx.size());
    apply(plans[k].idx, vals);
    ++k;
  }
  DSMCPIC_CHECK_MSG(k == plans.size(), "rank " << r << " got no message from rank "
                                               << plans[k].peer);
}

void Channel::recv_assign(const Comm& c, std::span<double> v) const {
  receive(c, [v](const std::vector<std::int32_t>& idx,
                 std::span<const double> vals) {
    for (std::size_t i = 0; i < vals.size(); ++i) v[idx[i]] = vals[i];
  });
}

void Channel::recv_add(Comm& c, std::span<double> v) const {
  receive(c, [v, &c](const std::vector<std::int32_t>& idx,
                     std::span<const double> vals) {
    for (std::size_t i = 0; i < vals.size(); ++i) v[idx[i]] += vals[i];
    c.charge(WorkKind::kVecFlop, static_cast<double>(vals.size()));
  });
}

}  // namespace dsmcpic::par

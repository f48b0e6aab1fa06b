#pragma once
// Persistent halo channels: the runtime's analogue of an MPI persistent
// request for fixed-shape grid exchanges.
//
// The distributed CG's halo of p and the PIC node reduce and broadcast send
// the same (src, dst, size) messages every time they run: the shape is
// fixed when the plan is built. A Channel is built once from those plans.
// It owns one contiguous send buffer per rank with a fixed slice per peer;
// post() packs each peer's values into its slice and stages the slice with
// Comm::send_view, a message that borrows its bytes. The hot path therefore
// takes nothing from the payload pool, allocates nothing and copies each
// value once (the pack). Costs are those of owned sends of the same bytes:
// the same pack charge, and routing, NIC serialization, phase bytes and
// trace records per message in (src, send order).
//
// Each rank's buffer holds two copies, picked by the parity of the superstep
// counter. Messages posted in superstep S are read by their receivers in
// S+1; a post on the same channel in S+1 writes the other copy, so
// concurrent rank bodies never write bytes another rank is reading.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "par/runtime.hpp"

namespace dsmcpic::par {

/// One peer of a rank's halo plan: the rank's local indices whose values go
/// to (send plan) or come from (receive plan) `peer`, in the order both
/// sides agree on.
struct HaloPlan {
  int peer = -1;
  std::vector<std::int32_t> idx;
};

/// Per-rank halo plans; each rank's list is sorted by ascending peer.
using HaloPlans = std::vector<std::vector<HaloPlan>>;

class Channel {
 public:
  Channel() = default;
  /// `send[r]` / `recv[r]` are rank r's plans. Rank p's send plan for peer r
  /// must carry as many indices as rank r's receive plan for peer p; the
  /// receive side checks that on every message.
  Channel(HaloPlans send, HaloPlans recv);

  const HaloPlans& send_plans() const { return send_; }
  const HaloPlans& recv_plans() const { return recv_; }

  /// Packs v at each send plan's indices into this rank's buffer and sends
  /// one borrowed grid message per peer (tag 0), in plan order, charging
  /// kPackByte per packed byte. Const because the buffer is scratch: a
  /// post's bytes are dead once the receiving superstep ends, and each rank
  /// writes only its own buffer.
  void post(Comm& c, std::span<const double> v) const;

  /// Writes this superstep's inbox into v at the receive plans' indices.
  /// The inbox (sorted by source) and the plans (sorted by peer) are walked
  /// together; a message from an unplanned peer, a size mismatch or a
  /// planned peer that sent nothing throws.
  void recv_assign(const Comm& c, std::span<double> v) const;

  /// Like recv_assign, but adds into v, charging kVecFlop once per message
  /// for its values (charges stay per message: clock bits depend on the
  /// order of the additions).
  void recv_add(Comm& c, std::span<double> v) const;

 private:
  template <typename Apply>
  void receive(const Comm& c, Apply&& apply) const;

  HaloPlans send_, recv_;
  // offset_[r][k]: start of send plan k's slice in one copy of rank r's
  // buffer; offset_[r].back() is the copy's length.
  std::vector<std::vector<std::size_t>> offset_;
  mutable std::vector<std::vector<double>> buf_;  // per rank, two copies
};

}  // namespace dsmcpic::par

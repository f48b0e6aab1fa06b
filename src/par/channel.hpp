#pragma once
// Persistent halo channels: the runtime's analogue of an MPI persistent
// request for fixed-shape grid exchanges.
//
// The distributed CG's halo of p and the PIC node reduce and broadcast send
// the same (src, dst, size) messages every time they run: the shape is
// fixed when the plan is built. A Channel is built once from those plans
// and holds nothing else: post() packs each peer's values straight into a
// message staged in the rank's message arena (Comm::stage), so the hot path
// allocates nothing in steady state and copies each value once (the pack).
// Costs are those of any send of the same bytes: the pack charge, and
// routing, NIC serialization, phase bytes and trace records per message in
// (src, send order). The arena's superstep parity (DESIGN.md §2i) keeps a
// post in S+1 from overwriting the bytes its receivers read in S+1.

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

  /// Packs v at each send plan's indices into one grid message per peer
  /// (tag 0), in plan order, charging kPackByte per packed byte.
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
};

}  // namespace dsmcpic::par

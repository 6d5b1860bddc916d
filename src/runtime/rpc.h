// Distributed RPC nodes (§2 "Simpler Distributed Programming"): servers on
// the proposed hardware threading model, in two styles —
//  * thread-per-request: a dispatcher hardware thread assigns each incoming
//    request to a blocked worker hardware thread ("one hardware thread per
//    request ... simple blocking I/O semantics"), and
//  * event-loop: one thread handles everything inline (the model the paper
//    calls "more difficult to work with" but cheap — the comparator).
// The node's NIC rings, worker mailboxes, and completion ring all live in
// simulated memory; every notification is a monitored write.
#ifndef SRC_RUNTIME_RPC_H_
#define SRC_RUNTIME_RPC_H_

#include <vector>

#include "src/cpu/machine.h"
#include "src/dev/fabric.h"
#include "src/dev/nic.h"

namespace casc {

enum class RpcMode { kThreadPerRequest, kEventLoop };

// Request frame layout (after the 16-byte FabricHeader):
//   +16 request id, +24 service cycles. Responses echo dst/src/req_id.
struct RpcFrame {
  static constexpr uint32_t kReqIdOff = 16;
  static constexpr uint32_t kServiceOff = 24;
  static constexpr uint32_t kBytes = 64;

  static std::vector<uint8_t> Make(uint64_t dst, uint64_t src, uint64_t req_id,
                                   uint64_t service_cycles);
};

// Host-side helper: posts `entries` RX buffers and points the NIC at the
// ring/tail locations inside `region`. Returns the buffer array base.
struct NicRings {
  Addr rx_ring = 0;
  Addr rx_tail = 0;
  Addr rx_bufs = 0;
  Addr tx_ring = 0;
  Addr tx_head = 0;
  uint32_t entries = 0;
};
NicRings SetupNicRings(MemorySystem& mem, Nic& nic, Addr region, uint32_t entries = 256);

class RpcNode {
 public:
  static constexpr uint32_t kRingEntries = 256;

  RpcNode(Machine& machine, CoreId core, uint64_t node_id, Nic* nic, Addr region,
          uint32_t num_workers, RpcMode mode);

  // Sets up rings/mailboxes, binds programs (dispatcher at local thread 0,
  // workers at 1..num_workers), and starts them.
  void Install();

  uint64_t node_id() const { return node_id_; }
  uint64_t served() const { return served_.get(); }

 private:
  // Memory map inside the node's region.
  Addr MboxDoorbell(uint32_t w) const { return region_ + 0xb0000 + w * 128; }
  Addr MboxArgs(uint32_t w) const { return MboxDoorbell(w) + 64; }
  Addr DoneRing(uint64_t seq) const { return region_ + 0xc0000 + (seq % kRingEntries) * 32; }
  Addr DoneTicket() const { return region_ + 0xc8000; }
  Addr DoneDoorbell() const { return region_ + 0xc8040; }
  Addr TxStaging(uint64_t slot) const {
    return region_ + 0xd0000 + (slot % kRingEntries) * RpcFrame::kBytes;
  }

  GuestTask Dispatcher(GuestContext& ctx);
  GuestTask Worker(GuestContext& ctx, uint32_t index);
  GuestTask EventLoop(GuestContext& ctx);
  // Shared TX tail: writes the descriptor for a staged response and rings
  // the doorbell. Dispatcher-only (single writer).
  GuestTask Transmit(GuestContext& ctx, Addr buf, uint32_t len);

  Machine& machine_;
  CoreId core_;
  uint64_t node_id_;
  Nic* nic_;
  Addr region_;
  uint32_t num_workers_;
  RpcMode mode_;
  NicRings rings_;
  StatsRegistry::CounterHandle served_;
  uint64_t tx_produced_ = 0;  // TX ring slot allocator, not a statistic
};

}  // namespace casc

#endif  // SRC_RUNTIME_RPC_H_

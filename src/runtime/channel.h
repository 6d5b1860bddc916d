// A memory request/response channel between hardware threads: the building
// block of the exception-less syscall layer (§2), microkernel IPC (§2), and
// hypervisor hypercalls. Layout (one 64-byte line per role so the monitor
// filter wakes exactly the intended side):
//   +0    request doorbell   (u64, monotonically increasing sequence)
//   +64   response doorbell  (u64)
//   +128  args: nr, a0, a1, a2 (4 x u64)
//   +192  return value       (u64)
//
// Channels are single-producer/single-consumer with one outstanding call:
// the caller blocks on the response doorbell before issuing the next
// request, so the shared argument slots are never overwritten mid-call.
// Use one channel per client thread (they are 256 bytes each).
#ifndef SRC_RUNTIME_CHANNEL_H_
#define SRC_RUNTIME_CHANNEL_H_

#include "src/sim/types.h"

namespace casc {

struct Channel {
  Addr base = 0;

  Addr req() const { return base; }
  Addr resp() const { return base + 64; }
  Addr arg(uint32_t i) const { return base + 128 + 8 * i; }
  Addr ret() const { return base + 192; }
};

}  // namespace casc

#endif  // SRC_RUNTIME_CHANNEL_H_

// Microkernel services running on dedicated hardware threads (§2 "Faster
// Microkernels and Container Proxies"):
//  * a key-value service backed by a hash table in simulated memory, and
//  * a file service performing blocking reads on the NVMe-style block device
//    by mwait-ing on its completion-queue tail — "fast I/O without
//    inefficient polling".
#ifndef SRC_RUNTIME_SERVICES_H_
#define SRC_RUNTIME_SERVICES_H_

#include "src/cpu/guest.h"
#include "src/dev/block_dev.h"
#include "src/runtime/channel.h"
#include "src/runtime/hash_table.h"
#include "src/runtime/syscall_layer.h"

namespace casc {

// KV service request numbers.
inline constexpr uint64_t kKvGet = 1;  // a0 = key            -> value (0 if absent)
inline constexpr uint64_t kKvPut = 2;  // a0 = key, a1 = value -> 1 on success

// Returns the handler implementing the KV protocol over `table`; combine
// with MakeSyscallServer / MakeIpcCallee to choose the activation model.
SyscallHandler MakeKvHandler(HashTableRef table);

// Driver-side state for the block device (lives in simulated memory so the
// submission index survives across service-thread activations).
struct BlockDriver {
  Addr mmio_base = 0;   // device registers
  Addr sq_base = 0;     // submission ring
  uint64_t sq_size = 0;
  Addr cq_tail = 0;     // completion counter the service mwaits on
  Addr state = 0;       // u64: submission producer index (claimed by amoadd)
  // Optional in-order publication line for multi-issuer drivers (several
  // ring workers sharing one device): an issuer rings the SQ doorbell only
  // when all lower-indexed submissions have rung theirs, so the device never
  // reads a half-written entry. 0 = single issuer, skip the ordering wait.
  Addr publish = 0;
};

// Submits one read and blocks (monitor/mwait on the CQ tail) until it
// completes. `buf` receives `len` bytes from sector `lba`.
GuestTask BlockRead(GuestContext& ctx, BlockDriver drv, uint64_t lba, uint32_t len, Addr buf);

// File service request numbers.
inline constexpr uint64_t kFsRead = 1;  // a0 = lba, a1 = len, a2 = dest buffer -> first u64

// Handler that serves kFsRead via BlockRead.
SyscallHandler MakeFileHandler(BlockDriver drv);

// Container proxy (§2: "we can use similar functionality to accelerate
// container proxies, such as Istio"): a hardware thread that interposes on
// every request — `policy_cycles` of filtering/telemetry work — and forwards
// it over `upstream`. Control transfers directly between app, proxy, and
// service threads; no kernel hops. Combine with MakeSyscallServer:
//   MakeSyscallServer(app_channel, MakeProxyHandler(upstream, 80))
SyscallHandler MakeProxyHandler(Channel upstream, Tick policy_cycles);

}  // namespace casc

#endif  // SRC_RUNTIME_SERVICES_H_

// Shared-memory submission/completion ring transport (§2 "Exception-less
// System Calls", XSC-style — SNIPPETS.md snippet 3): user ptids enqueue
// batched request descriptors into a submission ring (SR) and mwait on the
// completion-ring head line; kernel worker ptids drain the SR, execute
// requests through the same `SyscallHandler` dispatch as the per-call
// channel layer, and post completions to the completion ring (CR). One ring
// implementation serves both syscalls and microkernel IPC.
//
// Memory layout at `base` (every control word on its own 64-byte line so the
// monitor filter wakes exactly the intended side):
//   +0x000  sr_ticket    producer ticket allocator (amoadd to claim a batch)
//   +0x040  sr_doorbell  rung once per batch after publishing; workers park on it
//   +0x080  sr_head      consumer cursor (workers claim via amocas)
//   +0x0c0  cr_head      completions posted; clients monitor+mwait this line
//   +0x100  worker state words, one line each (kMaxWorkers)
//   +0x300  SR slots (entries x 64B), then CR slots (entries x 64B)
//
// SR descriptor (64B): +0 publish tag, +8 nr, +16 a0, +24 a1, +32 a2,
// +40 taken tag. CR slot (64B): +0 publish tag, +8 ret, +16 consumed tag.
//
// Ordering/wraparound rules (DESIGN.md §4l): a ticket `t` lives in slot
// `t mod entries` and all of its tags are the exact value `t + 1`, compared
// with equality only — `entries` is a power of two, so ticket arithmetic is
// continuous across the 2^64 wrap and no first-lap or index-max special case
// exists (InstallRing pre-seeds the previous lap's tags). The tag protocol
// gives three guards:
//   * publish: a producer writes descriptor fields, then the tag, last;
//   * backpressure: before reusing a slot, the producer waits for the taken
//     tag of ticket `t - entries` (the worker writes it after copying out);
//   * overwrite: before posting completion `t`, the worker waits for the
//     consumed tag of `t - entries` (the client writes it after reading).
// Batches must satisfy n <= entries or the producer would wait on itself.
#ifndef SRC_RUNTIME_RING_H_
#define SRC_RUNTIME_RING_H_

#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/runtime/syscall_layer.h"

namespace casc {

struct Ring {
  Addr base = 0;
  uint32_t entries = 64;  // power of two, >= 2

  static constexpr uint32_t kMaxWorkers = 8;
  static constexpr Addr kSlotBytes = 64;
  static constexpr Addr kSlotsOff = 0x100 + kMaxWorkers * kSlotBytes;  // 0x300

  // SR descriptor field offsets.
  static constexpr Addr kSrTag = 0;
  static constexpr Addr kSrNr = 8;
  static constexpr Addr kSrA0 = 16;
  static constexpr Addr kSrA1 = 24;
  static constexpr Addr kSrA2 = 32;
  static constexpr Addr kSrTaken = 40;
  // CR slot field offsets.
  static constexpr Addr kCrTag = 0;
  static constexpr Addr kCrRet = 8;
  static constexpr Addr kCrConsumed = 16;

  Addr sr_ticket() const { return base + 0x000; }
  Addr sr_doorbell() const { return base + 0x040; }
  Addr sr_head() const { return base + 0x080; }
  Addr cr_head() const { return base + 0x0c0; }
  Addr worker_state(uint32_t w) const { return base + 0x100 + static_cast<Addr>(w) * kSlotBytes; }
  Addr sr_slot(uint64_t ticket) const {
    return base + kSlotsOff + (ticket & (entries - 1)) * kSlotBytes;
  }
  Addr cr_slot(uint64_t ticket) const {
    return base + kSlotsOff + (static_cast<Addr>(entries) + (ticket & (entries - 1))) * kSlotBytes;
  }
  uint64_t bytes() const { return kSlotsOff + 2ull * entries * kSlotBytes; }
};

// Worker policy states published in the per-worker state word.
inline constexpr uint64_t kRingWorkerActive = 0;
inline constexpr uint64_t kRingWorkerParked = 1;  // mwait on sr_doorbell
inline constexpr uint64_t kRingWorkerDeep = 2;    // stopped; lead restarts it

// Adaptive worker policy, openl SwitchlessCalls-style: how many worker ptids
// to run and when to park them, as explicit tunables (E14 ablates these).
struct RingConfig {
  uint32_t entries = 64;     // ring depth; power of two
  uint32_t num_workers = 2;  // <= Ring::kMaxWorkers
  std::string name = "ring"; // stats prefix: runtime.ring.<name>.*

  // spin -> mwait-park -> deep-park escalation.
  uint32_t spin_polls = 4;       // empty polls before mwait-parking
  uint32_t park_rounds = 4;      // empty mwait wakes before deep-parking
  bool allow_deep_park = true;   // scale the active pool down to the lead
  // Occupancy-driven scale-up: the lead restarts one deep-parked sibling
  // whenever the SR backlog reaches this many entries.
  uint64_t scale_up_backlog = 4;
};

// Host-side setup: seeds the control lines and slot tags as if tickets
// [start_ticket - entries, start_ticket) had already been submitted, served,
// and consumed. This makes every guard a uniform tag-equality check (no
// first-lap case) and lets tests start a ring just below the 2^64 ticket
// wrap. Bypasses the timed memory path (platform firmware writes).
void InstallRing(PhysicalMemory& phys, Ring ring, uint64_t start_ticket = 0);

// --- client side (subtasks to co_await ctx.Call(...) on) -------------------

// Enqueues `n` descriptors (claiming `n` consecutive tickets), publishes
// them in ticket order, and rings the doorbell once for the whole batch.
// Blocks (monitor/mwait on the slot line) only when the ring is full.
// `reqs` must stay alive across the call; requires 1 <= n <= ring.entries.
// The first ticket of the batch is returned through `first_ticket`.
GuestTask RingSubmitBatch(GuestContext& ctx, Ring ring, const SyscallRequest* reqs, uint32_t n,
                          uint64_t* first_ticket);
GuestTask RingSubmit(GuestContext& ctx, Ring ring, SyscallRequest req, uint64_t* ticket);

// Collects the `n` completions for tickets [first_ticket, first_ticket + n),
// blocking on the cr_head line. Completions may post out of order (several
// workers); `rets[i]` receives the result of ticket `first_ticket + i`.
GuestTask RingCollect(GuestContext& ctx, Ring ring, uint64_t first_ticket, uint32_t n,
                      uint64_t* rets);

// Non-blocking probe for one completion; sets *done and consumes it if
// posted. For event-loop callers multiplexing the ring with other waits.
GuestTask RingTryCollect(GuestContext& ctx, Ring ring, uint64_t ticket, uint64_t* ret,
                         bool* done);

// Submit + collect round trips.
GuestTask RingCall(GuestContext& ctx, Ring ring, SyscallRequest req, uint64_t* ret);
GuestTask RingCallBatch(GuestContext& ctx, Ring ring, const SyscallRequest* reqs, uint32_t n,
                        uint64_t* rets);

// --- server side -----------------------------------------------------------

// Binds `cfg.num_workers` kernel worker ptids on consecutive local threads
// and runs the adaptive policy: each worker claims published descriptors via
// amocas on sr_head, executes them through `handler` (the same SyscallHandler
// the channel layer uses), and posts completions. Worker 0 is the *lead*: it
// never deep-parks and restarts deep-parked siblings when the backlog grows,
// so a request published concurrently with a sibling's deep-park is always
// served — the lost-wakeup guarantee lives here, not in a wake protocol.
class RingServer {
 public:
  // `ring_base` is where the ring lives in guest memory; the server builds
  // its Ring from it (depth = cfg.entries) — clients read it back via
  // ring(). Deliberately not a Ring parameter: a caller-kept struct whose
  // entries disagreed with the config would silently corrupt slot addressing.
  RingServer(Machine& machine, CoreId core, uint32_t first_local, Addr ring_base, RingConfig cfg,
             SyscallHandler handler);

  // Seeds ring memory at `start_ticket` and binds + starts the workers.
  void Install(uint64_t start_ticket = 0);

  Ring ring() const { return ring_; }
  Ptid worker_ptid(uint32_t w) const { return worker_ptids_[w]; }
  uint64_t served() const { return served_.get(); }
  uint64_t served_by(uint32_t w) const { return worker_served_[w].get(); }
  uint64_t deep_parks() const { return deep_parks_.get(); }
  uint64_t scale_wakes() const { return scale_wakes_.get(); }

 private:
  GuestTask Worker(GuestContext& ctx, uint32_t index);
  GuestTask MaybeScaleUp(GuestContext& ctx);

  Machine& machine_;
  CoreId core_;
  uint32_t first_local_;
  Ring ring_;
  RingConfig cfg_;
  SyscallHandler handler_;
  std::vector<Ptid> worker_ptids_;
  StatsRegistry::CounterHandle served_;
  StatsRegistry::CounterHandle deep_parks_;
  StatsRegistry::CounterHandle scale_wakes_;
  std::vector<StatsRegistry::CounterHandle> worker_served_;
};

}  // namespace casc

#endif  // SRC_RUNTIME_RING_H_

// Recovery patterns the paper implies but never spells out (§3): a handler
// thread that services descriptors and restarts its wards with a bounded
// restart budget (handler-chain fallback), and a block-device driver with
// deadline-based retry + exponential backoff — mwait has no timeout, so the
// deadline rides the §2 "APIC timer increments a counter" pattern: the
// driver monitors both the CQ tail line and a timer line and dispatches on
// whichever fired. Used by the chaos scenarios, bench_e11_recovery, and as
// the reference hardening recipe for the E3/E9-style servers.
#ifndef SRC_RUNTIME_RECOVERY_H_
#define SRC_RUNTIME_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "src/cpu/guest.h"
#include "src/dev/block_dev.h"
#include "src/hwt/exception.h"
#include "src/isa/isa.h"

namespace casc {

// ---------------------------------------------------------------------------
// Handler-chain stage
// ---------------------------------------------------------------------------

struct WardSpec {
  Vtid vtid = 0;  // ward as the handler names it (identity for supervisors)
  Addr edp = 0;   // ward's exception-descriptor address, which we monitor
};

// Modeled diagnosis cost per descriptor a fault handler services.
inline constexpr Tick kHandlerServiceCycles = 50;

struct HandlerPolicy {
  uint64_t max_restarts_per_ward = 16;  // fallback: drop the ward, not the machine
};

struct HandlerStats {
  uint64_t serviced = 0;   // descriptors seen
  uint64_t restarts = 0;   // wards restarted
  uint64_t gave_up = 0;    // descriptors past the restart budget
};

// One stage of a handler chain: monitors every ward's EDP line, and for each
// delivered descriptor clears it, restarts the ward (budget permitting), and
// goes back to sleep. Scans all wards on entry — if this handler itself was
// crashed and restarted by its parent, descriptors delivered before the
// crash are still sitting in memory.
inline GuestTask FaultHandlerLoop(GuestContext& ctx, std::vector<WardSpec> wards,
                                  HandlerPolicy policy, HandlerStats* stats) {
  std::vector<uint64_t> restarts(wards.size(), 0);
  const uint32_t num_threads = 4096;  // sanity bound for errcode-as-ptid
  for (;;) {
    // Arm the monitors BEFORE scanning: a descriptor delivered between the
    // scan read and mwait then flags the wait as already-satisfied instead
    // of being lost (monitor -> check -> wait, the §3.1 ordering).
    for (const WardSpec& w : wards) {
      co_await ctx.Monitor(w.edp);
    }
    bool progressed = false;
    for (size_t i = 0; i < wards.size(); i++) {
      const WardSpec& w = wards[i];
      const uint64_t type = co_await ctx.Load(w.edp, 4);
      if (type == 0) {
        continue;
      }
      const uint64_t errcode = co_await ctx.Load(w.edp + 24, 8);
      // Clear the type word first: a re-fault after our restart writes a
      // fresh descriptor, and we must not service this one twice.
      co_await ctx.Store(w.edp, 0, 4);
      co_await ctx.Compute(kHandlerServiceCycles);
      stats->serviced++;
      progressed = true;
      if (restarts[i] >= policy.max_restarts_per_ward) {
        stats->gave_up++;
        continue;
      }
      restarts[i]++;
      stats->restarts++;
      co_await ctx.Start(w.vtid);
      // An escalated page-fault descriptor (a deeper handler's EDP was
      // unwritable) carries the original faulter in errcode; restart it too.
      if (type == static_cast<uint64_t>(ExceptionType::kPageFault) && errcode < num_threads &&
          errcode != w.vtid) {
        co_await ctx.Start(static_cast<Vtid>(errcode));
        stats->restarts++;
      }
    }
    if (progressed) {
      continue;  // rescan: a ward may have re-faulted while we serviced
    }
    co_await ctx.Mwait();
  }
}

// ---------------------------------------------------------------------------
// Block-device driver with bounded retry
// ---------------------------------------------------------------------------

struct BlockPorts {
  Addr mmio_base = 0;
  Addr sq_base = 0;
  uint64_t sq_size = 0;
  Addr cq_tail_addr = 0;  // monitorable completion counter
  Addr timer_line = 0;    // APIC-timer counter line supplying the deadline
};

struct BlockRetryPolicy {
  uint32_t max_attempts = 3;
  Tick timeout = 120'000;  // first-attempt deadline in cycles
  uint32_t backoff = 2;    // deadline multiplier per retry
};

struct BlockClientStats {
  uint64_t completed = 0;
  uint64_t retries = 0;   // resubmissions after a missed deadline
  uint64_t failures = 0;  // commands abandoned after max_attempts
  uint64_t submitted = 0; // SQ slots consumed (drives the ring index)
  uint64_t seen_completions = 0;  // CQ tail value already consumed
};

// Issues one command and waits for its completion with deadline-based retry:
// submit, arm monitors on the CQ tail and the timer line, mwait, and either
// observe the tail advance (done) or the deadline pass (resubmit with the
// deadline doubled). Sets *ok accordingly.
inline GuestTask SubmitWithRetry(GuestContext& ctx, BlockPorts ports, BlockCommand cmd,
                                 BlockRetryPolicy policy, BlockClientStats* stats, bool* ok) {
  *ok = false;
  Tick deadline_span = policy.timeout;
  for (uint32_t attempt = 0; attempt < policy.max_attempts; attempt++) {
    // Write the 32-byte submission entry and ring the doorbell.
    const Addr entry = ports.sq_base + (stats->submitted % ports.sq_size) * BlockCommand::kBytes;
    co_await ctx.Store(entry + 0, cmd.opcode, 1);
    co_await ctx.Store(entry + 8, cmd.lba, 8);
    co_await ctx.Store(entry + 16, cmd.len, 4);
    co_await ctx.Store(entry + 24, cmd.buf, 8);
    stats->submitted++;
    co_await ctx.Store(ports.mmio_base + kBlkSqDoorbell, stats->submitted, 8);
    if (attempt > 0) {
      stats->retries++;
    }
    const Tick start = co_await ctx.ReadCsr(Csr::kCycle);
    const Tick deadline = start + deadline_span;
    for (;;) {
      co_await ctx.Monitor(ports.cq_tail_addr);
      co_await ctx.Monitor(ports.timer_line);
      const uint64_t tail = co_await ctx.Load(ports.cq_tail_addr, 8);
      if (tail > stats->seen_completions) {
        stats->seen_completions = tail;
        stats->completed++;
        *ok = true;
        co_return;
      }
      const Tick now = co_await ctx.ReadCsr(Csr::kCycle);
      if (now >= deadline) {
        break;  // deadline passed with no completion: retry
      }
      co_await ctx.Mwait();
    }
    deadline_span *= policy.backoff;
  }
  stats->failures++;
}

}  // namespace casc

#endif  // SRC_RUNTIME_RECOVERY_H_

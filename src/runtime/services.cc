#include "src/runtime/services.h"

namespace casc {

SyscallHandler MakeKvHandler(HashTableRef table) {
  return [table](GuestContext& ctx, const SyscallRequest& req, uint64_t* ret) -> GuestTask {
    if (req.nr == kKvGet) {
      uint64_t value = 0;
      bool found = false;
      co_await ctx.Call(HashGet(ctx, table, req.a0, &value, &found));
      *ret = found ? value : 0;
    } else if (req.nr == kKvPut) {
      bool ok = false;
      co_await ctx.Call(HashPut(ctx, table, req.a0, req.a1, &ok));
      *ret = ok ? 1 : 0;
    } else {
      *ret = static_cast<uint64_t>(-1);
    }
  };
}

GuestTask BlockRead(GuestContext& ctx, BlockDriver drv, uint64_t lba, uint32_t len, Addr buf) {
  // Claim an SQ slot atomically (several ring workers may issue
  // concurrently) and build the 32-byte submission entry with normal stores.
  const uint64_t idx = co_await ctx.AtomicAdd(drv.state, 1);
  const Addr entry = drv.sq_base + (idx % drv.sq_size) * BlockCommand::kBytes;
  co_await ctx.Store(entry, BlockCommand::kOpRead, 1);
  co_await ctx.Store(entry + 8, lba);
  co_await ctx.Store(entry + 16, len, 4);
  co_await ctx.Store(entry + 24, buf);
  // Multi-issuer ordering: the device consumes entries strictly below the
  // doorbell, so doorbells must advance in index order or it would read a
  // neighbor's half-written entry.
  if (drv.publish != 0) {
    uint64_t published = co_await ctx.Load(drv.publish);
    if (published != idx) {
      co_await ctx.Monitor(drv.publish);
      for (;;) {
        published = co_await ctx.Load(drv.publish);
        if (published == idx) {
          break;
        }
        co_await ctx.Mwait();
      }
      co_await ctx.Unmonitor(drv.publish);
    }
  }
  // Arm the completion watch before ringing the doorbell.
  co_await ctx.Monitor(drv.cq_tail);
  co_await ctx.Store(drv.mmio_base + kBlkSqDoorbell, idx + 1);
  if (drv.publish != 0) {
    co_await ctx.Store(drv.publish, idx + 1);  // release the next issuer
  }
  // Block until our command completes — no polling loop burning a core.
  for (;;) {
    const uint64_t done = co_await ctx.Load(drv.cq_tail);
    if (done >= idx + 1) {
      break;
    }
    co_await ctx.Mwait();
  }
}

SyscallHandler MakeFileHandler(BlockDriver drv) {
  return [drv](GuestContext& ctx, const SyscallRequest& req, uint64_t* ret) -> GuestTask {
    if (req.nr == kFsRead) {
      co_await ctx.Call(BlockRead(ctx, drv, req.a0, static_cast<uint32_t>(req.a1), req.a2));
      *ret = co_await ctx.Load(req.a2);  // first word, as a convenience return
    } else {
      *ret = static_cast<uint64_t>(-1);
    }
  };
}

SyscallHandler MakeProxyHandler(Channel upstream, Tick policy_cycles) {
  return [upstream, policy_cycles](GuestContext& ctx, const SyscallRequest& req,
                                   uint64_t* ret) -> GuestTask {
    co_await ctx.Compute(policy_cycles);  // policy: filtering, telemetry, routing
    co_await ctx.Call(SyscallCall(ctx, upstream, req, ret));
  };
}

}  // namespace casc

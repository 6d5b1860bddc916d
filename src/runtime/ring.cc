#include "src/runtime/ring.h"

#include <cassert>

namespace casc {

void InstallRing(PhysicalMemory& phys, Ring ring, uint64_t start_ticket) {
  assert(ring.entries >= 2 && (ring.entries & (ring.entries - 1)) == 0);
  assert(ring.entries <= 4096);
  phys.Write64(ring.sr_ticket(), start_ticket);
  phys.Write64(ring.sr_doorbell(), start_ticket);
  phys.Write64(ring.sr_head(), start_ticket);
  phys.Write64(ring.cr_head(), start_ticket);
  for (uint32_t w = 0; w < Ring::kMaxWorkers; w++) {
    phys.Write64(ring.worker_state(w), kRingWorkerActive);
  }
  // Seed the previous lap: tickets [start - entries, start), each landing in
  // its own slot, look fully submitted, taken, completed, and consumed. All
  // guard comparisons are exact tag equality, so this works unchanged when
  // `start_ticket` is 0 (tags become huge u64 values near the wrap) or when
  // the window itself straddles 2^64.
  for (uint64_t i = 0; i < ring.entries; i++) {
    const uint64_t t = start_ticket - ring.entries + i;  // u64 wrap intended
    const Addr sq = ring.sr_slot(t);
    phys.Write64(sq + Ring::kSrTag, t + 1);
    phys.Write64(sq + Ring::kSrNr, 0);
    phys.Write64(sq + Ring::kSrA0, 0);
    phys.Write64(sq + Ring::kSrA1, 0);
    phys.Write64(sq + Ring::kSrA2, 0);
    phys.Write64(sq + Ring::kSrTaken, t + 1);
    const Addr cq = ring.cr_slot(t);
    phys.Write64(cq + Ring::kCrTag, t + 1);
    phys.Write64(cq + Ring::kCrRet, 0);
    phys.Write64(cq + Ring::kCrConsumed, t + 1);
  }
}

GuestTask RingSubmitBatch(GuestContext& ctx, Ring ring, const SyscallRequest* reqs, uint32_t n,
                          uint64_t* first_ticket) {
  assert(n >= 1 && n <= ring.entries);  // a larger batch would wait on itself
  const uint64_t ticket = co_await ctx.AtomicAdd(ring.sr_ticket(), n);
  if (first_ticket != nullptr) {
    *first_ticket = ticket;
  }
  for (uint32_t i = 0; i < n; i++) {
    const uint64_t t = ticket + i;
    const Addr slot = ring.sr_slot(t);
    // Backpressure: the slot still holds ticket t - entries until a worker
    // copies it out and writes its taken tag. Wait on the slot line itself.
    const uint64_t prev = t - ring.entries + 1;
    uint64_t taken = co_await ctx.Load(slot + Ring::kSrTaken);
    if (taken != prev) {
      co_await ctx.Monitor(slot);
      for (;;) {
        taken = co_await ctx.Load(slot + Ring::kSrTaken);
        if (taken == prev) {
          break;
        }
        co_await ctx.Mwait();
      }
      co_await ctx.Unmonitor(slot);  // per-ticket line; don't leak the watch
    }
    co_await ctx.Store(slot + Ring::kSrNr, reqs[i].nr);
    co_await ctx.Store(slot + Ring::kSrA0, reqs[i].a0);
    co_await ctx.Store(slot + Ring::kSrA1, reqs[i].a1);
    co_await ctx.Store(slot + Ring::kSrA2, reqs[i].a2);
    co_await ctx.Store(slot + Ring::kSrTag, t + 1);  // publish, written last
  }
  co_await ctx.AtomicAdd(ring.sr_doorbell(), n);  // one doorbell per batch
}

GuestTask RingSubmit(GuestContext& ctx, Ring ring, SyscallRequest req, uint64_t* ticket) {
  co_await ctx.Call(RingSubmitBatch(ctx, ring, &req, 1, ticket));
}

GuestTask RingCollect(GuestContext& ctx, Ring ring, uint64_t first_ticket, uint32_t n,
                      uint64_t* rets) {
  // Arm before checking: a completion posted between the tag check and mwait
  // sets the pending flag (cr_head is bumped after every post), so the
  // wakeup can never be lost.
  co_await ctx.Monitor(ring.cr_head());
  std::vector<bool> got(n, false);
  uint32_t done = 0;
  for (;;) {
    for (uint32_t i = 0; i < n; i++) {
      if (got[i]) {
        continue;
      }
      const uint64_t t = first_ticket + i;
      const Addr cq = ring.cr_slot(t);
      const uint64_t tag = co_await ctx.Load(cq + Ring::kCrTag);
      if (tag != t + 1) {
        continue;  // not posted yet; completions may land out of order
      }
      rets[i] = co_await ctx.Load(cq + Ring::kCrRet);
      co_await ctx.Store(cq + Ring::kCrConsumed, t + 1);  // overwrite-guard release
      got[i] = true;
      done++;
    }
    if (done == n) {
      break;
    }
    co_await ctx.Mwait();
  }
  co_await ctx.Unmonitor(ring.cr_head());
}

GuestTask RingTryCollect(GuestContext& ctx, Ring ring, uint64_t ticket, uint64_t* ret,
                         bool* done) {
  *done = false;
  const Addr cq = ring.cr_slot(ticket);
  const uint64_t tag = co_await ctx.Load(cq + Ring::kCrTag);
  if (tag != ticket + 1) {
    co_return;
  }
  *ret = co_await ctx.Load(cq + Ring::kCrRet);
  co_await ctx.Store(cq + Ring::kCrConsumed, ticket + 1);
  *done = true;
}

GuestTask RingCall(GuestContext& ctx, Ring ring, SyscallRequest req, uint64_t* ret) {
  uint64_t ticket = 0;
  co_await ctx.Call(RingSubmitBatch(ctx, ring, &req, 1, &ticket));
  co_await ctx.Call(RingCollect(ctx, ring, ticket, 1, ret));
}

GuestTask RingCallBatch(GuestContext& ctx, Ring ring, const SyscallRequest* reqs, uint32_t n,
                        uint64_t* rets) {
  uint64_t ticket = 0;
  co_await ctx.Call(RingSubmitBatch(ctx, ring, reqs, n, &ticket));
  co_await ctx.Call(RingCollect(ctx, ring, ticket, n, rets));
}

RingServer::RingServer(Machine& machine, CoreId core, uint32_t first_local, Addr ring_base,
                       RingConfig cfg, SyscallHandler handler)
    : machine_(machine),
      core_(core),
      first_local_(first_local),
      ring_(Ring{ring_base, cfg.entries}),
      cfg_(cfg),
      handler_(std::move(handler)),
      served_(machine.sim().stats().Intern("runtime.ring." + cfg_.name + ".served")),
      deep_parks_(machine.sim().stats().Intern("runtime.ring." + cfg_.name + ".deep_parks")),
      scale_wakes_(machine.sim().stats().Intern("runtime.ring." + cfg_.name + ".scale_wakes")) {
  assert(cfg_.num_workers >= 1 && cfg_.num_workers <= Ring::kMaxWorkers);
  assert(cfg_.entries >= 2 && (cfg_.entries & (cfg_.entries - 1)) == 0);
  for (uint32_t w = 0; w < cfg_.num_workers; w++) {
    worker_served_.push_back(machine.sim().stats().Intern(
        "runtime.ring." + cfg_.name + ".worker" + std::to_string(w) + ".served"));
  }
}

void RingServer::Install(uint64_t start_ticket) {
  InstallRing(machine_.mem().phys(), ring_, start_ticket);
  worker_ptids_.clear();
  for (uint32_t w = 0; w < cfg_.num_workers; w++) {
    worker_ptids_.push_back(machine_.BindNative(
        core_, first_local_ + w,
        [this, w](GuestContext& ctx) -> GuestTask { return Worker(ctx, w); },
        /*supervisor=*/true));
  }
  for (Ptid p : worker_ptids_) {
    machine_.Start(p);
  }
}

GuestTask RingServer::MaybeScaleUp(GuestContext& ctx) {
  const uint64_t ticket = co_await ctx.Load(ring_.sr_ticket());
  const uint64_t head = co_await ctx.Load(ring_.sr_head());
  if (ticket - head < cfg_.scale_up_backlog) {
    co_return;
  }
  for (uint32_t w = 1; w < cfg_.num_workers; w++) {
    const uint64_t st = co_await ctx.Load(ring_.worker_state(w));
    if (st == kRingWorkerDeep) {
      // Start is a no-op if the sibling has not finished stopping yet; the
      // state word stays kRingWorkerDeep (only the sibling clears it after
      // resuming), so the next serviced request simply retries. That retry
      // loop — not a wake handshake — is what makes the park race benign.
      co_await ctx.Start(worker_ptids_[w]);
      scale_wakes_++;
      co_return;  // one restart per serviced request
    }
  }
}

GuestTask RingServer::Worker(GuestContext& ctx, uint32_t index) {
  const Addr state = ring_.worker_state(index);
  const bool lead = index == 0;
  co_await ctx.Store(state, kRingWorkerActive);
  co_await ctx.Monitor(ring_.sr_doorbell());
  uint32_t idle = 0;
  for (;;) {
    // Claim the next published descriptor, if any. amocas on sr_head means a
    // worker never advances the cursor past an unpublished ticket.
    const uint64_t head = co_await ctx.Load(ring_.sr_head());
    const uint64_t tag = co_await ctx.Load(ring_.sr_slot(head) + Ring::kSrTag);
    if (tag == head + 1) {
      const uint64_t won = co_await ctx.AtomicCas(ring_.sr_head(), head, head + 1);
      if (won != head) {
        continue;  // a sibling claimed it; re-poll
      }
      idle = 0;
      const Addr slot = ring_.sr_slot(head);
      SyscallRequest req;
      req.nr = co_await ctx.Load(slot + Ring::kSrNr);
      req.a0 = co_await ctx.Load(slot + Ring::kSrA0);
      req.a1 = co_await ctx.Load(slot + Ring::kSrA1);
      req.a2 = co_await ctx.Load(slot + Ring::kSrA2);
      // Taken tag: producers blocked on slot reuse wake here, before the
      // handler runs, so a slow request never throttles the submit side
      // beyond ring depth.
      co_await ctx.Store(slot + Ring::kSrTaken, head + 1);
      uint64_t ret = 0;
      co_await ctx.Call(handler_(ctx, req, &ret));
      // Overwrite guard: completion t - entries in this CR slot must have
      // been consumed before we overwrite it.
      const Addr cq = ring_.cr_slot(head);
      const uint64_t prev = head - ring_.entries + 1;
      uint64_t consumed = co_await ctx.Load(cq + Ring::kCrConsumed);
      if (consumed != prev) {
        co_await ctx.Monitor(cq);
        for (;;) {
          consumed = co_await ctx.Load(cq + Ring::kCrConsumed);
          if (consumed == prev) {
            break;
          }
          co_await ctx.Mwait();
        }
        co_await ctx.Unmonitor(cq);
      }
      co_await ctx.Store(cq + Ring::kCrRet, ret);
      co_await ctx.Store(cq + Ring::kCrTag, head + 1);  // publish, written last
      co_await ctx.AtomicAdd(ring_.cr_head(), 1);       // wakes collectors
      served_++;
      worker_served_[index]++;
      if (lead) {
        co_await ctx.Call(MaybeScaleUp(ctx));
      }
      continue;
    }
    // Nothing published at the cursor: escalate spin -> park -> deep-park.
    idle++;
    if (idle <= cfg_.spin_polls) {
      constexpr Tick kSpinPollCycles = 8;  // cost charged per empty spin poll
      co_await ctx.Compute(kSpinPollCycles);
      continue;
    }
    if (!lead && cfg_.allow_deep_park && idle > cfg_.spin_polls + cfg_.park_rounds) {
      co_await ctx.Store(state, kRingWorkerDeep);
      deep_parks_++;
      // Re-check after advertising the park. This narrows — the lead's
      // no-deep-park invariant plus MaybeScaleUp's retry close — the window
      // where a publish lands between this check and the stop.
      const uint64_t h2 = co_await ctx.Load(ring_.sr_head());
      const uint64_t t2 = co_await ctx.Load(ring_.sr_slot(h2) + Ring::kSrTag);
      if (t2 == h2 + 1) {
        co_await ctx.Store(state, kRingWorkerActive);
        idle = 0;
        continue;
      }
      co_await ctx.StopSelf();
      // Restarted by the lead (scale-up). Disable tore down our watches.
      co_await ctx.Store(state, kRingWorkerActive);
      co_await ctx.Monitor(ring_.sr_doorbell());
      idle = 0;
      continue;
    }
    // mwait-park on the doorbell; a batch published since our last consume
    // returns immediately via the pending flag.
    co_await ctx.Store(state, kRingWorkerParked);
    co_await ctx.Mwait();
    co_await ctx.Store(state, kRingWorkerActive);
  }
}

}  // namespace casc

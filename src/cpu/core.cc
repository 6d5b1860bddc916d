#include "src/cpu/core.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

namespace casc {

namespace {

// Maps a fusion pattern to its superinstruction head handler. The VmHandler
// block mirrors FusedOp ordering, so this is pure arithmetic.
static_assert(vmFuseLoadAlu == vmFuseCmpBranch + 1 && vmFuseAddiStore == vmFuseCmpBranch + 2 &&
                  vmFuseMonitorMwait == vmFuseCmpBranch + 3,
              "fused handler ids must mirror FusedOp ordering");
uint8_t FusedHandlerOf(FusedOp kind) {
  assert(kind != FusedOp::kNone);
  return static_cast<uint8_t>(vmFuseCmpBranch + static_cast<uint8_t>(kind) - 1);
}

}  // namespace

Core::Core(Simulation& sim, MemorySystem& mem, ThreadSystem& ts, CoreId id)
    : sim_(sim),
      mem_(mem),
      ts_(ts),
      id_(id),
      l1i_hit_latency_(mem.config().l1i.hit_latency),
      tick_event_(this),
      native_(ts.config().threads_per_core),
      ptid_base_(ts.PtidOf(id, 0)),
      cont_(ts.config().threads_per_core),
      stat_instructions_(sim.stats().Intern("cpu.core" + std::to_string(id) + ".instructions")),
      stat_active_cycles_(sim.stats().Intern("cpu.core" + std::to_string(id) + ".active_cycles")),
      stat_idle_wakeups_(sim.stats().Intern("cpu.core" + std::to_string(id) + ".idle_wakeups")) {
  picked_.resize(ts.config().smt_width);
  sim_.queue().RegisterLane(&tick_event_);
}

void Core::InvalidatePredecodeAll() {
  for (PredecodedLine& line : predecode_) {
    line.base = kNoCodeLine;
    line.tail_spans_next = false;
  }
  code_epoch_++;  // kill every staged continuation along with the lines
}

void Core::FillPredecodeLine(PredecodedLine& line, Addr base) {
  // Writes can only stale predecoded lines once there are some, so a core
  // hears of them from its first fill on; one that never interprets code
  // costs the write path nothing.
  if (!hears_code_writes_) {
    hears_code_writes_ = true;
    mem_.AddCodeWriteListener([this](Addr written) { InvalidatePredecodeLine(written); });
  }
  constexpr size_t kSlots = kLineSize / kInstBytes;
  for (size_t i = 0; i < kSlots; i++) {
    DecodedSlot& s = line.slots[i];
    s.inst = Decode(mem_.phys().Read32(base + i * kInstBytes));
    s.handler = HandlerOf(s.inst.op);
    s.tail_handler = vmNop;
    s.fused = 0;
    s.tail_spans_next = false;
  }
  line.base = base;
  line.tail_spans_next = false;
  line.fetch_ref = Cache::LineRef{};  // memo belongs to the old contents
  // Fusion pairing pass: every slot that can head a pattern gets the fused
  // handler plus a cached copy of its tail. The tail slot keeps its own
  // plain handler, so a jump landing on it mid-line executes normally and
  // it may itself head the following pair. Slot 15's tail lives in the
  // next code line (unmapped memory reads as 0 = nop, which never matches
  // a pattern); the copy makes the pair self-contained, and the span rule
  // in InvalidatePredecodeLine keeps the copy coherent.
  for (size_t i = 0; i < kSlots; i++) {
    DecodedSlot& s = line.slots[i];
    const bool spans = i + 1 == kSlots;
    const Instruction tail =
        spans ? Decode(mem_.phys().Read32(base + kLineSize)) : line.slots[i + 1].inst;
    const FusedOp kind = MatchFusionPair(s.inst, tail);
    if (kind == FusedOp::kNone) {
      continue;
    }
    s.tail = tail;
    s.tail_handler = HandlerOf(tail.op);
    s.fused = static_cast<uint8_t>(kind);
    s.handler = FusedHandlerOf(kind);
    s.tail_spans_next = spans;
    line.tail_spans_next = line.tail_spans_next || spans;
  }
  code_epoch_++;  // continuations staged on the old contents must not fire
}

void Core::BindNative(Ptid ptid, NativeProgram program) {
  assert(ts_.CoreOf(ptid) == id_);
  assert(program);  // an empty program marks an interpreted thread
  NativeState& ns = native_[ptid - ptid_base_];
  ns = NativeState{};
  ns.program = std::move(program);
  any_native_ = true;
}

void Core::Kick() {
  if (ts_.halted()) {
    return;
  }
  SchedQueue& q = ts_.queue(id_);
  if (q.Empty()) {
    return;
  }
  const Tick next = q.NextWorkTick(sim_.queue().now());
  if (next == std::numeric_limits<Tick>::max()) {
    return;
  }
  if (!tick_event_.scheduled() || tick_event_.when() > next) {
    stat_idle_wakeups_++;
    sim_.queue().Schedule(&tick_event_, std::max(next, sim_.queue().now()));
  }
}

void Core::Cycle() {
  if (ts_.halted()) {
    return;
  }
  SchedQueue& q = ts_.queue(id_);
  const uint32_t width = ts_.config().smt_width;
  // Counters batch into locals and flush once per Cycle return: nothing
  // reads these counters until after the run completes.
  uint64_t insts = 0;
  uint64_t active_cycles = 0;
  // `now` is carried across AdvanceIfIdle instead of re-read: nothing inside
  // the loop body advances the clock except that call, which sets it to
  // exactly `next`.
  Tick now = sim_.queue().now();
  for (;;) {
    const uint64_t gen = q.generation();
    Tick unpicked_min;
    const uint32_t npicked = q.PickUpTo(now, width, picked_.data(), &unpicked_min);
    bool active = false;
    for (uint32_t i = 0; i < npicked; i++) {
      HwThread* t = picked_[i];
      if (ts_.NeedsRestore(t->ptid())) {
        // Prefetch-on-wake disabled: the restore begins only when the
        // scheduler first reaches the thread (demand restore).
        ts_.BeginDemandRestore(t->ptid());
        continue;
      }
      Step(*t);
      insts++;
      active = true;
      if (ts_.halted()) {
        stat_instructions_ += insts;
        stat_active_cycles_ += active_cycles;
        return;
      }
    }
    if (active) {
      active_cycles++;
    }
    // Sleep until the next tick at which some thread can issue. When that
    // tick comes strictly before every other live event, advance the clock
    // in place and keep stepping — the tick event would have fired next
    // anyway, so timing and order are unchanged, minus the dispatch round
    // trip per tick.
    //
    // NextWorkTick(after) == max(after, min ready_at over runnable threads)
    // (Tick max if none), so when no Add/Remove ran during the steps the
    // value is reconstructed from the pick scan's unpicked minimum plus the
    // picked threads' just-written ready_at — no second rotation walk. Any
    // wake, block, or stop bumps the queue generation and falls back to the
    // full scan, so the computed tick is identical by construction.
    Tick next;
    if (q.generation() == gen) {
      Tick m = unpicked_min;
      for (uint32_t i = 0; i < npicked; i++) {
        HwThread* t = picked_[i];
        if (t->state() == ThreadState::kRunnable) {
          m = std::min(m, t->ready_at());
        }
      }
      next = m == std::numeric_limits<Tick>::max() ? m : std::max(m, now + 1);
    } else {
      next = q.NextWorkTick(now + 1);
    }
    if (next == std::numeric_limits<Tick>::max()) {
      break;
    }
    if (!sim_.queue().AdvanceIfIdle(next)) {
      // The chain ends here. The lane learns whether its coming ticks are
      // quiet, so the queue can step them in bulk with other quiet cores.
      // Asking only here, once per dispatch, costs nothing per tick for
      // cores that are never quiet.
      ScheduleLane(next);
      break;
    }
    now = next;
  }
  stat_instructions_ += insts;
  stat_active_cycles_ += active_cycles;
}

void Core::ScheduleLane(Tick next) {
  quiet_gen_ = ts_.queue(id_).generation();
  quiet_until_ = QuietUntil(next);
  sim_.queue().Schedule(&tick_event_, next);
}

Tick Core::QuietUntil(Tick at) const {
  const SchedQueue& q = ts_.queue(id_);
  const size_t n = q.Size();
  if (!any_native_ || n == 0 || ts_.halted()) {
    return at;
  }
  const uint32_t width = ts_.config().smt_width;
  Tick until = std::numeric_limits<Tick>::max();
  uint32_t ready = 0;
  for (size_t i = 0; i < n; i++) {
    const HwThread& t = *q.thread_at(i);
    if (t.state() != ThreadState::kRunnable) {
      return at;
    }
    if (t.ready_at() > at) {
      // Waiting on a latency: never picked before its ready_at, the first
      // tick it may take a slot and run something other than a compute.
      until = std::min(until, t.ready_at());
      continue;
    }
    if (++ready > width || ts_.NeedsRestore(t.ptid())) {
      return at;
    }
    const NativeState& ns = native_[t.ptid() - ptid_base_];
    if (!ns.program || !ns.task.valid() || ns.task.done() || ns.ctx->faulted() ||
        ns.ctx->pending().kind != GuestOp::Kind::kCompute) {
      return at;
    }
    // StepNative burns one cycle per pick and completes the op on the pick
    // that finds at most one cycle left; the next pick resumes the task.
    const Tick cycles = std::max<Tick>(1, ns.ctx->pending().cycles);
    until = std::min(until, cycles > until - at ? until : at + cycles);
  }
  return ready == 0 ? at : until;
}

void Core::AdvanceQuiet(Tick from, Tick to) {
  // k quiet Cycle ticks: every ready thread is picked each tick, in
  // rotation order from the cursor, steps one compute cycle (ready again the
  // next tick) and is touched; each tick retires one instruction per ready
  // thread. The waiting threads are not ready before `to`: never picked.
  const uint64_t k = to - from;
  SchedQueue& q = ts_.queue(id_);
  const uint32_t n = q.PickAllFor(k, from, picked_.data());
  quiet_steps_with_waiters_ += n < q.Size();
  for (uint32_t i = 0; i < n; i++) {
    HwThread* t = picked_[i];
    GuestContext& ctx = *native_[t->ptid() - ptid_base_].ctx;
    GuestOp& op = ctx.pending();
    assert(op.kind == GuestOp::Kind::kCompute && k <= std::max<Tick>(1, op.cycles));
    if (op.cycles > k) {
      op.cycles -= k;
    } else {
      ctx.Complete(0);
    }
    t->set_ready_at(to);
  }
  ts_.store(id_).TouchRepeated(k, picked_.data(), n);
  stat_instructions_ += k * n;
  stat_active_cycles_ += k;
}

Tick Core::Step(HwThread& t) {
  NativeState& ns = native_[t.ptid() - ptid_base_];
  const Tick latency = ns.program ? StepNative(t, ns) : StepInterpreted(t);
  if (t.state() == ThreadState::kRunnable) {
    t.set_ready_at(sim_.queue().now() + std::max<Tick>(1, latency));
    ts_.store(id_).Touch(t);
  }
  return latency;
}

Tick Core::StepInterpreted(HwThread& t) {
  const Addr pc = t.arch().pc;
  // A continuation staged by a fused head: if the thread is still at the
  // tail pc and no fill/invalidation intervened, dispatch the tail from the
  // head's cached copy — no line lookup, no slot indexing. The timed fetch
  // below runs unchanged, so timing and cache stats are identical to the
  // unfused path. A stale hit is impossible: any predecode restructuring
  // bumps code_epoch_, and a pc mismatch (exception, redirect) just falls
  // through to the normal path.
  FusedCont& c = cont_[t.ptid() - ptid_base_];
  if (c.pc == pc && c.epoch == code_epoch_) {
    c.pc = kNoCodeLine;  // consume: a pair fuses once per head execution
    stat_fused_[static_cast<size_t>(c.kind)]++;
    stat_predecode_hits_++;
    // Spanning tails (c.line == nullptr) fetch without the head line's L1I
    // memo — the tail word lives on a different cache line.
    const Tick fetch = c.line != nullptr ? mem_.FetchPredecoded(id_, pc, &c.line->fetch_ref)
                                         : mem_.Fetch(id_, pc, nullptr);
    const Tick fetch_penalty = fetch > l1i_hit_latency_ ? fetch - l1i_hit_latency_ : 0;
    return fetch_penalty + DispatchSlot(t, c.head->tail, c.head->tail_handler, nullptr, nullptr);
  }
  PredecodedLine& line = predecode_[(pc >> 6) & (kPredecodeLines - 1)];
  const Addr base = LineBase(pc);
  if (line.base == base) {
    stat_predecode_hits_++;
  } else {
    FillPredecodeLine(line, base);
    stat_predecode_misses_++;
  }
  // The timed fetch still runs through the simulated hierarchy (and counts
  // in mem.fetches); only the functional word read + Decode are skipped.
  // Warm fetches are pipelined away; only the miss penalty stalls issue.
  const Tick fetch = mem_.FetchPredecoded(id_, pc, &line.fetch_ref);
  const Tick fetch_penalty = fetch > l1i_hit_latency_ ? fetch - l1i_hit_latency_ : 0;
  const DecodedSlot& slot = line.slots[(pc & (kLineSize - 1)) / kInstBytes];
  return fetch_penalty + DispatchSlot(t, slot.inst, slot.handler, &line, &slot);
}

// Instantiate the handler bodies once: the computed-goto engine where the
// toolchain supports labels-as-values, the portable switch engine elsewhere.
#if CASC_HAS_COMPUTED_GOTO
#define CASC_VM_FN ExecSlotGoto
#define CASC_VM_GOTO 1
#else
#define CASC_VM_FN ExecSlotSwitch
#define CASC_VM_GOTO 0
#endif
#include "src/cpu/dispatch.inc"  // NOLINT(build/include)
#undef CASC_VM_FN
#undef CASC_VM_GOTO

Tick Core::StepNative(HwThread& t, NativeState& ns) {
  if (!ns.task.valid() || ns.task.done() || ns.ctx->faulted()) {
    ns.ctx = std::make_unique<GuestContext>(t.ptid());
    ns.task = ns.program(*ns.ctx);
  }
  if (!ns.ctx->has_pending()) {
    ns.ctx->ResumeLeaf(ns.task.handle());
    if (ns.task.done()) {
      ts_.Disable(t.ptid());
      return 1;
    }
    if (!ns.ctx->has_pending()) {
      return 1;  // treat a bare suspension as a one-cycle yield
    }
  }
  // Compute ops issue one cycle per pick: the thread competes for SMT slots
  // cycle by cycle (fine-grain multiplexing, §4), instead of reserving the
  // whole duration up front.
  GuestOp& pending = ns.ctx->pending();
  if (pending.kind == GuestOp::Kind::kCompute) {
    if (pending.cycles > 1) {
      pending.cycles--;
      return 1;
    }
    ns.ctx->Complete(0);
    return 1;
  }
  const GuestOp op = ns.ctx->TakePending();
  return ExecuteNativeOp(t, *ns.ctx, op);
}

Tick Core::ExecuteNativeOp(HwThread& t, GuestContext& ctx, const GuestOp& op) {
  const Ptid self = t.ptid();
  // Memory protection (page-fault analog, §3) applies to native code too.
  if ((op.kind == GuestOp::Kind::kLoad || op.kind == GuestOp::Kind::kStore ||
       op.kind == GuestOp::Kind::kAtomicAdd || op.kind == GuestOp::Kind::kAtomicCas) &&
      !t.arch().is_supervisor() && mem_.IsSupervisorOnly(op.addr)) {
    ctx.set_faulted(true);
    ts_.RaiseException(self, ExceptionType::kPageFault, op.addr, 0);
    return 1;
  }
  auto fail_or = [&ctx](const OpResult& r) {
    if (!r.ok) {
      ctx.set_faulted(true);
    } else {
      ctx.DeliverResult(r.value);
    }
    return r.latency;
  };
  switch (op.kind) {
    case GuestOp::Kind::kCompute:
      // Unreachable: StepNative consumes every compute op one cycle per
      // pick, the only compute timing model.
      assert(false && "compute ops never reach ExecuteNativeOp");
      break;
    case GuestOp::Kind::kLoad: {
      if (chb_ != nullptr) {
        chb_->OnLoad(self, op.addr, op.size, /*pc=*/0);
      }
      uint64_t value = 0;
      const Tick lat = mem_.Read(id_, op.addr, op.size, &value);
      ctx.DeliverResult(value);
      return lat;
    }
    case GuestOp::Kind::kStore: {
      if (chb_ != nullptr) {
        chb_->OnStore(self, op.addr, op.size, /*pc=*/0);
      }
      const Tick lat = mem_.Write(id_, op.addr, op.size, op.value);
      ctx.DeliverResult(0);
      return lat;
    }
    case GuestOp::Kind::kAtomicAdd: {
      if (chb_ != nullptr) {
        chb_->OnAtomic(self, op.addr, 8, /*pc=*/0);
      }
      uint64_t old = 0;
      const Tick lat = mem_.AtomicAdd(id_, op.addr, op.value, &old);
      ctx.DeliverResult(old);
      return lat;
    }
    case GuestOp::Kind::kAtomicCas: {
      if (chb_ != nullptr) {
        chb_->OnAtomic(self, op.addr, 8, /*pc=*/0);
      }
      uint64_t old = 0;
      const Tick lat = mem_.AtomicCas(id_, op.addr, op.value, op.value2, &old);
      ctx.DeliverResult(old);
      return lat;
    }
    case GuestOp::Kind::kMonitor:
      return fail_or(ts_.Monitor(self, op.addr));
    case GuestOp::Kind::kUnmonitor:
      return fail_or(ts_.Unmonitor(self, op.addr));
    case GuestOp::Kind::kMwait: {
      const auto r = ts_.Mwait(self);
      ctx.DeliverResult(0);
      return r.latency;
    }
    case GuestOp::Kind::kStart:
      return fail_or(ts_.Start(self, op.vtid));
    case GuestOp::Kind::kStop:
      return fail_or(ts_.Stop(self, op.vtid));
    case GuestOp::Kind::kStopSelf:
      ctx.DeliverResult(0);
      ts_.Disable(self);
      return kStopIssueCycles;
    case GuestOp::Kind::kRpull:
      return fail_or(ts_.Rpull(self, op.vtid, op.reg));
    case GuestOp::Kind::kRpush:
      return fail_or(ts_.Rpush(self, op.vtid, op.reg, op.value));
    case GuestOp::Kind::kInvtid:
      return fail_or(ts_.Invtid(self, op.vtid, op.vtid2));
    case GuestOp::Kind::kCsrRead:
      return fail_or(ts_.ReadCsr(self, op.csr));
    case GuestOp::Kind::kCsrWrite:
      return fail_or(ts_.WriteCsr(self, op.csr, op.value));
    case GuestOp::Kind::kNone:
      break;
  }
  ctx.DeliverResult(0);
  return 1;
}

}  // namespace casc

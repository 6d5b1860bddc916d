#include "src/baseline/baseline.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace casc {

namespace {
std::string StatName(CoreId core, const char* suffix) {
  return "baseline.cpu" + std::to_string(core) + "." + suffix;
}
}  // namespace

BaselineCpu::BaselineCpu(Simulation& sim, MemorySystem& mem, const BaselineConfig& config,
                         CoreId core)
    : sim_(sim),
      mem_(mem),
      config_(config),
      core_(core),
      step_event_([this] { Step(); }),
      stat_switches_(sim.stats().Intern(StatName(core, "context_switches"))),
      stat_irqs_(sim.stats().Intern(StatName(core, "irqs"))),
      stat_mode_switches_(sim.stats().Intern(StatName(core, "mode_switches"))),
      stat_busy_cycles_(sim.stats().Intern(StatName(core, "busy_cycles"))) {}

BaselineCpu::~BaselineCpu() = default;

SoftThread* BaselineCpu::Spawn(const std::string& name, SoftThread::Body body,
                               std::function<void()> on_finish) {
  const uint32_t id = next_id_++;
  SoftThread& thread =
      threads_.emplace_back(kTcbBase + (static_cast<Addr>(core_) << 20) + id * 1024);
  if (free_blocks_.empty()) {
    free_blocks_.push_back(&blocks_.emplace_back());
  }
  thread.block_ = free_blocks_.back();
  free_blocks_.pop_back();
  thread.block_->name = name;
  thread.block_->body = std::move(body);
  thread.block_->on_finish = std::move(on_finish);
  runqueue_.push_back(&thread);
  ScheduleStep(1);
  return &thread;
}

void BaselineCpu::Wake(SoftThread* thread) {
  assert(thread != nullptr);
  if (thread->state_ != SoftThread::State::kBlocked) {
    return;
  }
  thread->state_ = SoftThread::State::kRunnable;
  runqueue_.push_back(thread);
  ScheduleStep(1);
}

void BaselineCpu::RaiseIrq(uint32_t vector) {
  pending_irqs_.push_back(vector);
  if (!step_event_.scheduled()) {
    // The core was halted: pay the idle-state exit latency before the IRQ
    // microcode begins.
    ScheduleStep(kIdleWakeCycles);
  }
}

void BaselineCpu::SetIrqHandler(uint32_t vector, IrqHandler handler) {
  irq_handlers_.push_back({vector, std::move(handler)});
}

void BaselineCpu::ScheduleStep(Tick delay) {
  const Tick when = sim_.now() + std::max<Tick>(1, delay);
  if (!step_event_.scheduled() || step_event_.when() > when) {
    sim_.queue().Schedule(&step_event_, when);
  }
}

Tick BaselineCpu::StateTraffic(Addr tcb, bool is_write) {
  // Register state moves through the cache hierarchy line by line; the first
  // access pays the full round trip, the rest stream behind it.
  const uint32_t lines = (StateBytes() + kLineSize - 1) / kLineSize;
  Tick lat = mem_.AccessLatency(core_, tcb, is_write, /*is_fetch=*/false);
  for (uint32_t i = 1; i < lines; i++) {
    mem_.AccessLatency(core_, tcb + i * kLineSize, is_write, false);
    lat += 2;  // pipelined line transfers
  }
  return lat;
}

SoftThread* BaselineCpu::PickNext() {
  while (!runqueue_.empty()) {
    SoftThread* t = runqueue_.front();
    runqueue_.pop_front();
    if (t->state_ == SoftThread::State::kRunnable) {
      return t;
    }
  }
  return nullptr;
}

// The record stays, marked finished. The block is emptied, which frees the
// finished coroutine frame and the body's captures, and goes back to the
// free list only after on_finish has returned: a callback that spawns must
// not be handed the block whose on_finish it is still running from.
void BaselineCpu::FinishCurrent() {
  SoftThread* t = current_;
  current_ = nullptr;
  t->state_ = SoftThread::State::kFinished;
  SoftThread::Block* block = std::exchange(t->block_, nullptr);
  if (block->on_finish) {
    block->on_finish();
  }
  *block = SoftThread::Block{};
  free_blocks_.push_back(block);
}

// Steps in place, the way Core::Cycle chains its ticks: when the next step
// would be the next dispatch anyway (EventQueue::AdvanceIfIdle), the clock
// moves to it and the loop goes on, which saves a heap round trip per step
// and changes no tick and no firing order. A step whose Wake, Spawn or
// RaiseIrq (from a handler, an on_finish or a thread body) already armed
// step_event_ keeps ScheduleStep's pull-earlier rule instead: descheduling
// and re-arming would draw a fresh sequence number and reorder same-tick
// events.
void BaselineCpu::Step() {
  for (;;) {
    const Tick delay = RunStep();
    if (delay == kIdle) {
      return;
    }
    if (step_event_.scheduled() ||
        !sim_.queue().AdvanceIfIdle(sim_.now() + std::max<Tick>(1, delay))) {
      ScheduleStep(delay);
      return;
    }
  }
}

// One chunk of kOpCheckInterval cycles (the IRQ-check granularity), or the
// whole rest once it fits. Further chunk boundaries are taken here too when
// nothing could observe them: each lies strictly before the first tick the
// queue would not let this core take in place (so no event fires in
// between, and no IRQ or wake can arrive), and, while another thread waits,
// strictly before the quantum expires. Each such boundary would have been a
// step that found no IRQ, no preemption and the same op, and took one more
// chunk. At least one cycle is left, so the step that completes the op runs
// as before.
Tick BaselineCpu::ComputeCycles(Tick left) {
  if (left <= kOpCheckInterval || step_event_.scheduled()) {
    // An armed step_event_ brings the next step to the end of this chunk or
    // sooner; see Step.
    return std::max<Tick>(1, std::min(left, kOpCheckInterval));
  }
  const Tick now = sim_.now();
  Tick horizon = sim_.queue().AdvanceHorizon();
  if (config_.quantum != 0 && !runqueue_.empty()) {
    horizon = std::min(horizon, dispatched_at_ + config_.quantum);
  }
  // Boundaries now + j * kOpCheckInterval, j >= 1, strictly before horizon.
  const Tick boundaries = horizon > now ? (horizon - now - 1) / kOpCheckInterval : 0;
  return std::min(boundaries + 1, (left - 1) / kOpCheckInterval) * kOpCheckInterval;
}

Tick BaselineCpu::RunStep() {
  // 1. Interrupts win: they preempt whatever is on the logical core.
  if (!pending_irqs_.empty()) {
    const uint32_t vector = pending_irqs_.front();
    pending_irqs_.pop_front();
    stat_irqs_++;
    Tick handler_cycles = 0;
    for (auto& [v, handler] : irq_handlers_) {
      if (v == vector && handler) {
        handler_cycles += handler();
      }
    }
    const Tick lat = kIrqEntryCycles + handler_cycles + kIrqExitCycles;
    stat_busy_cycles_ += lat;
    return lat;
  }

  // 2. Nothing on-cpu: dispatch from the runqueue (full switch-in cost).
  if (current_ == nullptr) {
    SoftThread* next = PickNext();
    if (next == nullptr) {
      return kIdle;  // Wake()/RaiseIrq() re-arms
    }
    current_ = next;
    current_->state_ = SoftThread::State::kRunning;
    dispatched_at_ = sim_.now();
    stepped_since_dispatch_ = false;
    stat_switches_++;
    const Tick cost = kSchedPickCycles + kSwitchSwCycles +
                      StateTraffic(current_->tcb(), /*is_write=*/false);
    stat_busy_cycles_ += cost;
    return cost;
  }

  // 3. Quantum preemption at op boundaries, once the dispatch has taken a
  // step.
  if (config_.quantum != 0 && stepped_since_dispatch_ &&
      sim_.now() - dispatched_at_ >= config_.quantum && !runqueue_.empty()) {
    SoftThread* t = current_;
    current_ = nullptr;
    t->state_ = SoftThread::State::kRunnable;
    runqueue_.push_back(t);
    const Tick save = StateTraffic(t->tcb(), /*is_write=*/true);
    stat_busy_cycles_ += save;
    return save;
  }

  // 4. Advance the current thread by one op (or one compute chunk).
  stepped_since_dispatch_ = true;
  SoftThread::Block& block = *current_->block_;
  SoftContext& ctx = block.ctx;
  if (!ctx.has_pending()) {
    if (!block.task.valid() || block.task.done()) {
      ctx.ResetLeaf();
      block.task = block.body(ctx);
    }
    ctx.ResumeLeaf(block.task.handle());
    if (block.task.done()) {
      FinishCurrent();
      return kSwitchSwCycles;  // teardown
    }
    if (!ctx.has_pending()) {
      return 1;  // bare suspension: one-cycle yield
    }
  }

  SoftOp& op = ctx.pending();
  Tick lat = 1;
  switch (op.kind) {
    case SoftOp::Kind::kCompute:
      lat = ComputeCycles(op.cycles);
      op.cycles -= std::min(op.cycles, lat);
      if (op.cycles == 0) {
        ctx.Complete(0);
      }
      break;
    case SoftOp::Kind::kLoad: {
      uint64_t value = 0;
      lat = mem_.Read(core_, op.addr, op.size, &value);
      ctx.Complete(value);
      break;
    }
    case SoftOp::Kind::kStore:
      lat = mem_.Write(core_, op.addr, op.size, op.value);
      ctx.Complete(0);
      break;
    case SoftOp::Kind::kAtomicAdd: {
      uint64_t old = 0;
      lat = mem_.AtomicAdd(core_, op.addr, op.value, &old);
      ctx.Complete(old);
      break;
    }
    case SoftOp::Kind::kYield:
      ctx.Complete(0);
      if (!runqueue_.empty()) {
        SoftThread* t = current_;
        current_ = nullptr;
        t->state_ = SoftThread::State::kRunnable;
        runqueue_.push_back(t);
        lat = StateTraffic(t->tcb(), /*is_write=*/true);
      }
      break;
    case SoftOp::Kind::kBlock: {
      ctx.Complete(0);
      SoftThread* t = current_;
      current_ = nullptr;
      t->state_ = SoftThread::State::kBlocked;
      lat = StateTraffic(t->tcb(), /*is_write=*/true);
      break;
    }
    case SoftOp::Kind::kEnterKernel:
      ctx.Complete(0);
      stat_mode_switches_++;
      lat = kSyscallEntryCycles;
      if (config_.kernel_uses_fp) {
        // User FP/vector state must be preserved before the kernel may touch
        // those registers (§2).
        lat += mem_.BulkLatency(MemLevel::kL1, kStateBytesFp - kStateBytes);
      }
      break;
    case SoftOp::Kind::kExitKernel:
      ctx.Complete(0);
      stat_mode_switches_++;
      lat = kSyscallExitCycles;
      if (config_.kernel_uses_fp) {
        lat += mem_.BulkLatency(MemLevel::kL1, kStateBytesFp - kStateBytes);
      }
      break;
    case SoftOp::Kind::kVmExit:
      ctx.Complete(0);
      stat_mode_switches_++;
      lat = kVmExitCycles;
      break;
    case SoftOp::Kind::kVmEnter:
      ctx.Complete(0);
      stat_mode_switches_++;
      lat = kVmEntryCycles;
      break;
    case SoftOp::Kind::kNone:
      ctx.Complete(0);
      break;
  }
  stat_busy_cycles_ += lat;
  return lat;
}

}  // namespace casc

// The baseline: today's architecture, for head-to-head comparison with the
// proposed hardware threading model. A BaselineCpu is one logical core that
// runs software threads multiplexed by an OS scheduler. Costs the paper
// attributes to context switching are modeled explicitly and charged through
// the same simulation substrate:
//   * mode switches on syscall entry/exit and VM-exit/entry [20, 46, 69],
//   * IRQ entry/exit (hard-IRQ context) for device interrupts,
//   * software context switches: scheduler decision plus register-state
//     save/restore as real memory traffic through the cache hierarchy,
//   * optional FP/vector state enlargement when the kernel uses FP (§2
//     "Access to All Registers in the Kernel"),
//   * quantum preemption (timeslice round robin / FCFS run-to-completion).
//
// Software threads are C++20 coroutines (same GuestTask machinery as native
// HTM programs) issuing timed ops through a SoftContext.
#ifndef SRC_BASELINE_BASELINE_H_
#define SRC_BASELINE_BASELINE_H_

#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/cpu/guest.h"  // GuestTask coroutine plumbing
#include "src/dev/irq.h"
#include "src/mem/memory_system.h"
#include "src/sim/simulation.h"

namespace casc {

// Privilege-mode switch costs (cycles), per direction.
inline constexpr Tick kSyscallEntryCycles = 150;
inline constexpr Tick kSyscallExitCycles = 150;
inline constexpr Tick kIrqEntryCycles = 300;
inline constexpr Tick kIrqExitCycles = 250;
inline constexpr Tick kVmExitCycles = 700;
inline constexpr Tick kVmEntryCycles = 500;
// Scheduler decision cost per context switch.
inline constexpr Tick kSchedPickCycles = 250;
// Fixed software path of a switch (pushes/pops, bookkeeping).
inline constexpr Tick kSwitchSwCycles = 150;
// Exit latency from the idle (halted) state when an IRQ arrives.
inline constexpr Tick kIdleWakeCycles = 900;
// Max compute chunk between interrupt checks (pipeline drain granularity).
// Chunk boundaries nothing can observe are stepped in closed form; see
// BaselineCpu::ComputeCycles.
inline constexpr Tick kOpCheckInterval = 10;
// TCB region (where saved register state lives).
inline constexpr Addr kTcbBase = 0x01000000;

struct BaselineConfig {
  // Kernel FP use forces the big state at each switch (kStateBytesFp instead
  // of kStateBytes).
  bool kernel_uses_fp = false;
  // Preemption timeslice in cycles; 0 = run to completion (FCFS).
  Tick quantum = 30000;
};

class BaselineCpu;
class SoftThread;

// One pending timed operation of a software thread.
struct SoftOp {
  enum class Kind : uint8_t {
    kNone = 0,
    kCompute,
    kLoad,
    kStore,
    kAtomicAdd,
    kYield,        // back of the runqueue
    kBlock,        // off-cpu until Wake()
    kEnterKernel,  // syscall-style mode switch in
    kExitKernel,   // mode switch out
    kVmExit,
    kVmEnter,
  };
  Kind kind = Kind::kNone;
  Addr addr = 0;
  uint64_t value = 0;
  uint32_t size = 8;
  Tick cycles = 0;
};

// Awaitable op interface for software threads (mirrors GuestContext).
class SoftContext {
 public:
  struct Awaiter {
    SoftContext* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    uint64_t await_resume() const noexcept { return ctx->result_; }
  };

  Awaiter Compute(Tick cycles) { return Issue({.kind = SoftOp::Kind::kCompute, .cycles = cycles}); }
  Awaiter Load(Addr addr, uint32_t size = 8) {
    return Issue({.kind = SoftOp::Kind::kLoad, .addr = addr, .size = size});
  }
  Awaiter Store(Addr addr, uint64_t value, uint32_t size = 8) {
    return Issue({.kind = SoftOp::Kind::kStore, .addr = addr, .value = value, .size = size});
  }
  Awaiter AtomicAdd(Addr addr, uint64_t delta) {
    return Issue({.kind = SoftOp::Kind::kAtomicAdd, .addr = addr, .value = delta});
  }
  Awaiter Yield() { return Issue({.kind = SoftOp::Kind::kYield}); }
  Awaiter Block() { return Issue({.kind = SoftOp::Kind::kBlock}); }
  Awaiter EnterKernel() { return Issue({.kind = SoftOp::Kind::kEnterKernel}); }
  Awaiter ExitKernel() { return Issue({.kind = SoftOp::Kind::kExitKernel}); }
  Awaiter VmExit() { return Issue({.kind = SoftOp::Kind::kVmExit}); }
  Awaiter VmEnter() { return Issue({.kind = SoftOp::Kind::kVmEnter}); }

  // Runs another coroutine as a subtask (same composition mechanism as
  // GuestContext::Call).
  SubtaskAwaiter Call(GuestTask task) { return SubtaskAwaiter{&leaf_, std::move(task)}; }
  void ResumeLeaf(std::coroutine_handle<> root) {
    std::coroutine_handle<> h = leaf_ ? leaf_ : root;
    h.resume();
  }
  void ResetLeaf() { leaf_ = nullptr; }

  // Core-side protocol.
  bool has_pending() const { return pending_.kind != SoftOp::Kind::kNone; }
  SoftOp& pending() { return pending_; }
  void Complete(uint64_t result) {
    pending_ = SoftOp{};
    result_ = result;
  }

 private:
  Awaiter Issue(SoftOp op) {
    pending_ = op;
    return Awaiter{this};
  }

  SoftOp pending_;
  uint64_t result_ = 0;
  std::coroutine_handle<> leaf_ = nullptr;
};

// A software thread as its callers see it: the pointer Spawn returns. The
// record holds only what may still be read after the thread finishes, its
// state and its TCB address, and lives as long as its BaselineCpu, so a
// pointer kept past the thread's end stays valid and Wake on it stays a
// no-op. Everything that runs the thread lives in a Block, which the CPU
// empties when the thread finishes and hands to a later Spawn (DESIGN.md §4e
// "Soft-thread storage").
class SoftThread {
 public:
  enum class State : uint8_t { kRunnable, kRunning, kBlocked, kFinished };

  using Body = std::function<GuestTask(SoftContext&)>;

  explicit SoftThread(Addr tcb) : tcb_(tcb) {}

  State state() const { return state_; }
  Addr tcb() const { return tcb_; }

 private:
  friend class BaselineCpu;
  // The execution block: held from Spawn until on_finish has returned.
  struct Block {
    std::string name;
    Body body;
    SoftContext ctx;
    GuestTask task;
    std::function<void()> on_finish;
  };

  Addr tcb_;
  Block* block_ = nullptr;  // null once finished
  State state_ = State::kRunnable;
};

// One logical core of the baseline machine.
class BaselineCpu : public IrqSink {
 public:
  // Handler runs host-side (wakes threads, reads device state) and returns
  // the in-handler cycles to charge.
  using IrqHandler = std::function<Tick()>;

  BaselineCpu(Simulation& sim, MemorySystem& mem, const BaselineConfig& config, CoreId core);
  ~BaselineCpu() override;

  const BaselineConfig& config() const { return config_; }
  CoreId core() const { return core_; }

  // Creates a software thread; it enters the runqueue immediately.
  SoftThread* Spawn(const std::string& name, SoftThread::Body body,
                    std::function<void()> on_finish = {});

  // Moves a blocked thread back to the runqueue (kernel wakeup path).
  void Wake(SoftThread* thread);

  // IrqSink: device interrupt delivery to this logical core.
  void RaiseIrq(uint32_t vector) override;
  void SetIrqHandler(uint32_t vector, IrqHandler handler);

  bool idle() const { return current_ == nullptr && runqueue_.empty() && pending_irqs_.empty(); }
  uint64_t context_switches() const { return stat_switches_.get(); }
  uint64_t irqs_handled() const { return stat_irqs_.get(); }
  // Execution blocks this CPU has made: the most threads alive at once,
  // counting a thread until its on_finish returns (tests; not a stat, so
  // the golden digest does not see it).
  size_t exec_blocks() const { return blocks_.size(); }

 private:
  // RunStep's result when the core went idle (no delay to schedule).
  static constexpr Tick kIdle = std::numeric_limits<Tick>::max();
  // The step event: runs steps in place while each next step would be the
  // next dispatch anyway, then schedules the one after.
  void Step();
  // One step of the core; returns its delay until the next step, or kIdle.
  Tick RunStep();
  // The cycles a compute op with `left` cycles still to go takes this step.
  Tick ComputeCycles(Tick left);
  void ScheduleStep(Tick delay);
  Tick StateTraffic(Addr tcb, bool is_write);
  uint32_t StateBytes() const {
    return config_.kernel_uses_fp ? kStateBytesFp : kStateBytes;
  }
  SoftThread* PickNext();
  void FinishCurrent();

  Simulation& sim_;
  MemorySystem& mem_;
  BaselineConfig config_;
  CoreId core_;
  // One record per Spawn, never freed (see SoftThread); the k-th Spawn's
  // id is k, which places its TCB.
  std::deque<SoftThread> threads_;
  uint32_t next_id_ = 0;
  // Execution blocks, and those no live thread holds.
  std::deque<SoftThread::Block> blocks_;
  std::vector<SoftThread::Block*> free_blocks_;
  std::deque<SoftThread*> runqueue_;
  SoftThread* current_ = nullptr;
  Tick dispatched_at_ = 0;
  // Whether current_ has taken a step of an op since its dispatch; quantum
  // preemption waits for one, so a quantum at or below the switch-in cost
  // still makes progress.
  bool stepped_since_dispatch_ = false;
  std::deque<uint32_t> pending_irqs_;
  std::vector<std::pair<uint32_t, IrqHandler>> irq_handlers_;
  LambdaEvent<std::function<void()>> step_event_;

  StatsRegistry::CounterHandle stat_switches_;
  StatsRegistry::CounterHandle stat_irqs_;
  StatsRegistry::CounterHandle stat_mode_switches_;
  StatsRegistry::CounterHandle stat_busy_cycles_;
};

}  // namespace casc

#endif  // SRC_BASELINE_BASELINE_H_

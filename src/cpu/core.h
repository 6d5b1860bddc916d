// A physical core: a small number of SMT slots multiplexing the runnable
// hardware threads selected by the per-core SchedQueue, per §4. Each slot
// executes either interpreted CASC-ISA instructions (fetched through the
// I-cache) or one pending native-coroutine operation per pick; both charge
// costs through the shared memory system and thread system.
//
// The interpreter is a direct-threaded engine (DESIGN.md §4j): predecoded
// lines carry per-slot handler ids dispatched through a computed-goto table
// (a portable switch on compilers without labels-as-values), and a
// predecode-time fusion pass pairs common two-instruction idioms into fused
// superinstruction heads. Fusion is timing-neutral by construction: the pair
// still retires one instruction per pick at its own tick — the head stages a
// continuation that lets the tail skip the predecode lookup and dispatch
// setup, while the timed fetch and every architectural effect run unchanged.
#ifndef SRC_CPU_CORE_H_
#define SRC_CPU_CORE_H_

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/cpu/guest.h"
#include "src/hwt/thread_system.h"
#include "src/mem/memory_system.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace casc {

// Execution latencies of the simple in-order pipeline (beyond memory).
inline constexpr Tick kAluCycles = 1;
inline constexpr Tick kMulCycles = 3;
inline constexpr Tick kDivCycles = 20;
inline constexpr Tick kBranchCycles = 1;

// Dispatch handler ids, in table order: one per opcode (same numbering as
// Opcode so predecode can translate with a bounds check), then the fused
// superinstruction heads, then the illegal-opcode trap. The X-macro keeps the
// enum, the computed-goto label table, and the switch cases in lockstep.
#define CASC_VM_HANDLERS(X)                                                              \
  X(Nop) X(Halt) X(Add) X(Sub) X(Mul) X(Div) X(And) X(Or) X(Xor) X(Sll) X(Srl) X(Sra)   \
  X(Slt) X(Sltu) X(Addi) X(Andi) X(Ori) X(Xori) X(Slli) X(Srli) X(Srai) X(Slti) X(Lui)  \
  X(Ld) X(Lw) X(Lh) X(Lb) X(Sd) X(Sw) X(Sh) X(Sb)                                       \
  X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) X(Bgeu) X(Jal) X(Jalr)                            \
  X(Csrrd) X(Csrwr) X(Monitor) X(Mwait) X(Start) X(Stop) X(Rpull) X(Rpush) X(Invtid)    \
  X(Amoadd) X(Hcall)                                                                    \
  X(FuseCmpBranch) X(FuseLoadAlu) X(FuseAddiStore) X(FuseMonitorMwait) X(Illegal)

enum VmHandler : uint8_t {
#define CASC_VM_ENUM(name) vm##name,
  CASC_VM_HANDLERS(CASC_VM_ENUM)
#undef CASC_VM_ENUM
  vmHandlerCount,
};
static_assert(vmNop == static_cast<uint8_t>(Opcode::kNop) &&
                  vmHcall == static_cast<uint8_t>(Opcode::kHcall) &&
                  vmFuseCmpBranch == static_cast<uint8_t>(Opcode::kCount),
              "handler ids must mirror Opcode numbering");

class Core {
 public:
  // Handler for the `hcall` host-escape instruction / test instrumentation.
  using HcallHandler = std::function<void(Core& core, HwThread& thread, int64_t code)>;

  Core(Simulation& sim, MemorySystem& mem, ThreadSystem& ts, CoreId id);

  CoreId id() const { return id_; }

  // Binds a native coroutine program to a local hardware thread. The
  // coroutine is (re)instantiated when the thread is started with no live
  // instance.
  void BindNative(Ptid ptid, NativeProgram program);

  void SetHcallHandler(HcallHandler handler) { hcall_ = std::move(handler); }

  // Attaches the dynamic race detector's access hooks (not owned; nullptr —
  // the default — keeps the data path free of observer calls beyond one
  // predictable branch).
  void SetConcurrencyObserver(ConcurrencyObserver* observer) { chb_ = observer; }

  // Arms the tick event if there is runnable work. Called at boot and by the
  // ThreadSystem wake hook.
  void Kick();

  uint64_t instructions_retired() const { return stat_instructions_.get(); }

  // Drops every predecoded line. Needed after writes that bypass the memory
  // system, e.g. Program::LoadInto at Machine::Load time.
  void InvalidatePredecodeAll();

  // Bulk steps of quiet ticks taken while some rotation thread was still
  // waiting on a latency (host-side; tests check the path is taken).
  uint64_t quiet_steps_with_waiters() const { return quiet_steps_with_waiters_; }

  uint64_t predecode_hits() const { return stat_predecode_hits_; }
  uint64_t predecode_misses() const { return stat_predecode_misses_; }
  // Fully-fused pair executions (head + staged tail) per pattern, and total.
  uint64_t fused_pairs(FusedOp kind) const {
    return stat_fused_[static_cast<size_t>(kind)];
  }
  uint64_t fused_pairs_total() const {
    uint64_t total = 0;
    for (uint32_t k = 1; k < kNumFusedOps; k++) {
      total += stat_fused_[k];
    }
    return total;
  }

 private:
  struct NativeState {
    NativeProgram program;
    GuestTask task;
    std::unique_ptr<GuestContext> ctx;
  };

  // The per-cycle tick fires every simulated tick the core is active; a
  // devirtualizable member call avoids std::function dispatch on that path.
  // It is the core's event-queue lane, and reports the core's quiet ticks.
  struct TickEvent final : public Event {
    explicit TickEvent(Core* c) : core(c) {}
    void Fire() override { core->Cycle(); }
    Tick QuietUntil() const override { return core->LaneQuietUntil(); }
    void AdvanceQuiet(Tick from, Tick to) override { core->AdvanceQuiet(from, to); }
    Core* core;
  };

  // Predecoded I-cache (host-side speedup, no timing effect): each line of
  // instruction memory is decoded once on first fetch and replayed as
  // handler-id-tagged slots until a write to the line invalidates it. Timed
  // fetches still run through the simulated cache hierarchy.
  static constexpr size_t kPredecodeLines = 512;  // direct-mapped, 32 KB of code
  static constexpr Addr kNoCodeLine = ~Addr{0};   // not line-aligned: matches nothing
  struct DecodedSlot {
    Instruction inst;
    Instruction tail;          // decoded tail copy when this slot heads a pair
    uint8_t handler = vmNop;   // dispatch id (a vmFuse* id when fused != kNone)
    uint8_t tail_handler = vmNop;
    uint8_t fused = 0;         // FusedOp of the pair rooted here
    bool tail_spans_next = false;  // the tail word lives in the next code line
  };
  struct PredecodedLine {
    Addr base = kNoCodeLine;
    bool tail_spans_next = false;  // slot 15 heads a pair into the next line
    Cache::LineRef fetch_ref;      // L1I hit memo for addresses in this line
    std::array<DecodedSlot, kLineSize / kInstBytes> slots;
  };
  // A staged fused-pair tail: after the head retires, the tail's next pick
  // validates (pc, epoch) and dispatches straight from the head's slot. Any
  // predecode fill or invalidation bumps code_epoch_, killing every staged
  // continuation — including self-modifying-code and DMA writes to either
  // line of the pair.
  struct FusedCont {
    Addr pc = kNoCodeLine;  // tail pc this continuation is armed for
    uint64_t epoch = 0;
    PredecodedLine* line = nullptr;  // line containing `pc` (null: spans lines)
    const DecodedSlot* head = nullptr;
    FusedOp kind = FusedOp::kNone;
  };

  void Cycle();
  // Quiet ticks (DESIGN.md §4e "Quiet lanes"). A tick is quiet when every
  // thread in the rotation is runnable, every ready one is a restored
  // native thread whose live task is mid-Compute, and the ready ones fit
  // the SMT slots: each is picked and burns one compute cycle, touching
  // only this core's state. A thread not yet ready bounds the stretch at
  // its ready_at. QuietUntil returns the first tick >= `at` that is not
  // quiet, assuming the core ticks at `at` (so `at` itself when `at` is not
  // quiet).
  Tick QuietUntil(Tick at) const;
  // Ends an in-place tick chain: caches QuietUntil(next) for the lane and
  // schedules it. Out of line, so that Cycle's per-tick loop compiles as it
  // did before quiet lanes for the cores that are never quiet.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void ScheduleLane(Tick next);
  // The lane's answer: the cached QuietUntil while no sched-queue change
  // or halt has made it stale, else the lane's own tick (not quiet).
  Tick LaneQuietUntil() const {
    const Tick at = tick_event_.when();
    if (ts_.halted() || ts_.queue(id_).generation() != quiet_gen_) {
      return at;
    }
    return std::max(at, quiet_until_);
  }
  // Applies the quiet ticks [from, to) in closed form.
  void AdvanceQuiet(Tick from, Tick to);
  void FillPredecodeLine(PredecodedLine& line, Addr base);
  void InvalidatePredecodeLine(Addr line) {
    // Unconditional: clearing an aliased entry only costs a future refill.
    PredecodedLine& entry = predecode_[(line >> 6) & (kPredecodeLines - 1)];
    bool dropped = entry.base != kNoCodeLine;
    entry.base = kNoCodeLine;
    // The span rule (§4j): a fused pair rooted at the end of the previous
    // line caches a copy of this line's first word as its tail, so a write
    // here must drop that line too or the stale tail would keep executing.
    PredecodedLine& prev = predecode_[((line - kLineSize) >> 6) & (kPredecodeLines - 1)];
    if (prev.tail_spans_next && prev.base == line - kLineSize) {
      prev.base = kNoCodeLine;
      prev.tail_spans_next = false;
      dropped = true;
    }
    if (dropped) {
      code_epoch_++;
    }
  }
  // Executes one step for `t`; returns the latency consumed.
  Tick Step(HwThread& t);
  Tick StepInterpreted(HwThread& t);
  Tick StepNative(HwThread& t, NativeState& ns);
  Tick ExecuteNativeOp(HwThread& t, GuestContext& ctx, const GuestOp& op);
  // Instruction semantics, dispatched by handler id; returns execute latency
  // (fetch handled by caller). `line`/`slot` are non-null only when dispatch
  // may stage a fused continuation. The handler bodies (src/cpu/dispatch.inc)
  // are built once, as a computed-goto table where the toolchain supports
  // labels-as-values and as a portable switch elsewhere: a build-time
  // platform choice, not a run-time knob.
  Tick DispatchSlot(HwThread& t, const Instruction& inst, uint8_t handler, PredecodedLine* line,
                    const DecodedSlot* slot) {
#if CASC_HAS_COMPUTED_GOTO
    return ExecSlotGoto(t, inst, handler, line, slot);
#else
    return ExecSlotSwitch(t, inst, handler, line, slot);
#endif
  }
#if CASC_HAS_COMPUTED_GOTO
  Tick ExecSlotGoto(HwThread& t, const Instruction& inst, uint8_t handler, PredecodedLine* line,
                    const DecodedSlot* slot);
#else
  Tick ExecSlotSwitch(HwThread& t, const Instruction& inst, uint8_t handler, PredecodedLine* line,
                      const DecodedSlot* slot);
#endif
  // Single-tick faultless ALU subset (IsFusableAlu) for fused heads.
  // Defined inline: it runs once per fused load+ALU / addi+store pair, and
  // the handlers in dispatch.inc must absorb it rather than pay a call.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void
  ExecFusableAlu(HwThread& t, const Instruction& inst) {
    const uint64_t rs1 = t.ReadGpr(inst.rs1);
    const uint64_t rs2 = t.ReadGpr(inst.rs2);
    const int64_t simm = inst.imm;
    const uint64_t zimm16 = static_cast<uint16_t>(inst.imm);
    uint64_t r = 0;
    switch (inst.op) {
      case Opcode::kAdd:
        r = rs1 + rs2;
        break;
      case Opcode::kSub:
        r = rs1 - rs2;
        break;
      case Opcode::kAnd:
        r = rs1 & rs2;
        break;
      case Opcode::kOr:
        r = rs1 | rs2;
        break;
      case Opcode::kXor:
        r = rs1 ^ rs2;
        break;
      case Opcode::kSll:
        r = rs1 << (rs2 & 63);
        break;
      case Opcode::kSrl:
        r = rs1 >> (rs2 & 63);
        break;
      case Opcode::kSra:
        r = static_cast<uint64_t>(static_cast<int64_t>(rs1) >> (rs2 & 63));
        break;
      case Opcode::kSlt:
        r = static_cast<int64_t>(rs1) < static_cast<int64_t>(rs2) ? 1 : 0;
        break;
      case Opcode::kSltu:
        r = rs1 < rs2 ? 1 : 0;
        break;
      case Opcode::kAddi:
        r = rs1 + static_cast<uint64_t>(simm);
        break;
      case Opcode::kAndi:
        r = rs1 & zimm16;
        break;
      case Opcode::kOri:
        r = rs1 | zimm16;
        break;
      case Opcode::kXori:
        r = rs1 ^ zimm16;
        break;
      case Opcode::kSlli:
        r = rs1 << (inst.imm & 63);
        break;
      case Opcode::kSrli:
        r = rs1 >> (inst.imm & 63);
        break;
      case Opcode::kSrai:
        r = static_cast<uint64_t>(static_cast<int64_t>(rs1) >> (inst.imm & 63));
        break;
      case Opcode::kSlti:
        r = static_cast<int64_t>(rs1) < simm ? 1 : 0;
        break;
      case Opcode::kLui:
        r = zimm16 << 16;
        break;
      default:
        return;  // unreachable: heads are filtered by IsFusableAlu at predecode
    }
    t.WriteGpr(inst.rd, r);
  }
  void StageFusedTail(HwThread& t, Addr tail_pc, PredecodedLine* line, const DecodedSlot* slot) {
    FusedCont& c = cont_[t.ptid() - ptid_base_];
    c.pc = tail_pc;
    c.epoch = code_epoch_;
    c.line = slot->tail_spans_next ? nullptr : line;
    c.head = slot;
    c.kind = static_cast<FusedOp>(slot->fused);
  }
  static uint8_t HandlerOf(Opcode op) {
    const uint8_t raw = static_cast<uint8_t>(op);
    return raw < static_cast<uint8_t>(Opcode::kCount) ? raw : static_cast<uint8_t>(vmIllegal);
  }

  Simulation& sim_;
  MemorySystem& mem_;
  ThreadSystem& ts_;
  CoreId id_;
  Tick l1i_hit_latency_;  // hoisted from mem config: read once per instruction
  TickEvent tick_event_;
  std::vector<HwThread*> picked_;  // PickUpTo scratch, sized smt_width at construction
  std::vector<NativeState> native_;  // by local thread; empty program: interpreted
  HcallHandler hcall_;
  ConcurrencyObserver* chb_ = nullptr;
  // Bumped on every predecode fill/invalidation; validates continuations.
  uint64_t code_epoch_ = 1;
  bool hears_code_writes_ = false;  // code-write listener registered (first fill)
  Ptid ptid_base_;                // first local ptid; indexes native_ and cont_
  std::vector<FusedCont> cont_;   // one staged continuation per local thread
  std::array<PredecodedLine, kPredecodeLines> predecode_;
  uint64_t quiet_steps_with_waiters_ = 0;
  uint64_t stat_predecode_hits_ = 0;
  uint64_t stat_predecode_misses_ = 0;
  std::array<uint64_t, kNumFusedOps> stat_fused_{};
  StatsRegistry::CounterHandle stat_instructions_;
  StatsRegistry::CounterHandle stat_active_cycles_;
  StatsRegistry::CounterHandle stat_idle_wakeups_;
  // QuietUntil cache for the lane, taken by Cycle when it schedules the
  // lane. Until the lane fires, only other events can change this core's
  // threads, and every wake, block or stop changes the sched-queue
  // generation; bulk steps keep the cache true.
  Tick quiet_until_ = 0;
  uint64_t quiet_gen_ = 0;  // sched-queue generation the cache was taken at
  bool any_native_ = false;  // a core with no native thread is never quiet
};

}  // namespace casc

#endif  // SRC_CPU_CORE_H_

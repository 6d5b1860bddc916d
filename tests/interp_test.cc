// Interpreter golden-model tests: every ALU/memory/branch instruction's
// architectural effect is checked against a host-side computation over
// randomized operands (TEST_P sweep per opcode family).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/cpu/machine.h"
#include "src/hwt/tracer.h"
#include "src/isa/isa.h"

namespace casc {
namespace {

// Runs a single R-format ALU instruction with the given operand values and
// returns the destination register content.
uint64_t RunAlu(Opcode op, uint64_t a, uint64_t b) {
  Machine m;
  const Ptid p = m.threads().PtidOf(0, 0);
  Program prog;
  {
    Instruction inst;
    inst.op = op;
    inst.rd = 12;
    inst.rs1 = 10;
    inst.rs2 = 11;
    const uint32_t word = Encode(inst);
    const uint32_t halt = Encode(Instruction{Opcode::kHalt, 0, 0, 0, 0});
    prog.base = 0x1000;
    prog.bytes.resize(8);
    memcpy(prog.bytes.data(), &word, 4);
    memcpy(prog.bytes.data() + 4, &halt, 4);
  }
  m.Load(0, 0, prog, /*supervisor=*/true);
  m.threads().thread(p).WriteGpr(10, a);
  m.threads().thread(p).WriteGpr(11, b);
  m.Start(p);
  m.RunToQuiescence();
  return m.threads().thread(p).ReadGpr(12);
}

struct AluCase {
  Opcode op;
  std::function<uint64_t(uint64_t, uint64_t)> golden;
  const char* name;
};

class AluGoldenTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluGoldenTest, MatchesHostSemantics) {
  const AluCase& c = GetParam();
  Rng rng(static_cast<uint64_t>(c.op) * 17 + 5);
  const uint64_t interesting[] = {0,    1,          2,          0x7fffffffffffffffull,
                                  ~0ull, 0x8000000000000000ull, 63,        64,
                                  0xffffffffull};
  for (uint64_t a : interesting) {
    for (uint64_t b : interesting) {
      if (c.op == Opcode::kDiv && b == 0) {
        continue;  // raises an exception; covered elsewhere
      }
      EXPECT_EQ(RunAlu(c.op, a, b), c.golden(a, b)) << c.name << " a=" << a << " b=" << b;
    }
  }
  for (int i = 0; i < 12; i++) {
    const uint64_t a = rng.Next();
    uint64_t b = rng.Next();
    if (c.op == Opcode::kDiv && b == 0) {
      b = 1;
    }
    EXPECT_EQ(RunAlu(c.op, a, b), c.golden(a, b)) << c.name << " a=" << a << " b=" << b;
  }
}

int64_t S(uint64_t v) { return static_cast<int64_t>(v); }

INSTANTIATE_TEST_SUITE_P(
    Ops, AluGoldenTest,
    ::testing::Values(
        AluCase{Opcode::kAdd, [](uint64_t a, uint64_t b) { return a + b; }, "add"},
        AluCase{Opcode::kSub, [](uint64_t a, uint64_t b) { return a - b; }, "sub"},
        AluCase{Opcode::kMul, [](uint64_t a, uint64_t b) { return a * b; }, "mul"},
        AluCase{Opcode::kDiv,
                [](uint64_t a, uint64_t b) {
                  if (S(a) == INT64_MIN && S(b) == -1) {
                    return a;
                  }
                  return static_cast<uint64_t>(S(a) / S(b));
                },
                "div"},
        AluCase{Opcode::kAnd, [](uint64_t a, uint64_t b) { return a & b; }, "and"},
        AluCase{Opcode::kOr, [](uint64_t a, uint64_t b) { return a | b; }, "or"},
        AluCase{Opcode::kXor, [](uint64_t a, uint64_t b) { return a ^ b; }, "xor"},
        AluCase{Opcode::kSll, [](uint64_t a, uint64_t b) { return a << (b & 63); }, "sll"},
        AluCase{Opcode::kSrl, [](uint64_t a, uint64_t b) { return a >> (b & 63); }, "srl"},
        AluCase{Opcode::kSra,
                [](uint64_t a, uint64_t b) {
                  return static_cast<uint64_t>(S(a) >> (b & 63));
                },
                "sra"},
        AluCase{Opcode::kSlt,
                [](uint64_t a, uint64_t b) { return static_cast<uint64_t>(S(a) < S(b)); },
                "slt"},
        AluCase{Opcode::kSltu,
                [](uint64_t a, uint64_t b) { return static_cast<uint64_t>(a < b); }, "sltu"}),
    [](const auto& info) { return info.param.name; });

// --- immediate forms --------------------------------------------------------

uint64_t RunImm(const std::string& src, uint64_t a0_init = 0) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0, src + "\nhalt\n", /*supervisor=*/true);
  m.threads().thread(p).WriteGpr(10, a0_init);
  m.Start(p);
  m.RunToQuiescence();
  return m.threads().thread(p).ReadGpr(12);  // a2
}

TEST(ImmediateGoldenTest, SignExtensionRules) {
  // addi/slti sign-extend; andi/ori/xori zero-extend (so lui+ori builds
  // 32-bit constants without sign pollution).
  EXPECT_EQ(RunImm("addi a2, a0, -1", 5), 4u);
  EXPECT_EQ(RunImm("addi a2, a0, -32768", 0), static_cast<uint64_t>(-32768));
  EXPECT_EQ(RunImm("ori a2, a0, 0x8000", 0), 0x8000u);
  EXPECT_EQ(RunImm("andi a2, a0, 0xff00", 0x1234), 0x1200u);
  EXPECT_EQ(RunImm("xori a2, a0, 0xffff", 0), 0xffffu);
  EXPECT_EQ(RunImm("slti a2, a0, -5", static_cast<uint64_t>(-6)), 1u);
  EXPECT_EQ(RunImm("slti a2, a0, -5", 0), 0u);
  EXPECT_EQ(RunImm("lui a2, 0xffff", 0), 0xffff0000u);
  EXPECT_EQ(RunImm("srai a2, a0, 4", 0x8000000000000000ull), 0xf800000000000000ull);
  EXPECT_EQ(RunImm("srli a2, a0, 4", 0x8000000000000000ull), 0x0800000000000000ull);
}

TEST(ImmediateGoldenTest, Li64BitBuilds32BitConstants) {
  for (uint64_t v : {0ull, 1ull, 0x7fffull, 0x8000ull, 0xffffull, 0x10000ull, 0xdeadbeefull,
                     0xffffffffull}) {
    Machine m;
    const Ptid p =
        m.LoadSource(0, 0, "li a2, " + std::to_string(v) + "\nhalt\n", /*supervisor=*/true);
    m.Start(p);
    m.RunToQuiescence();
    EXPECT_EQ(m.threads().thread(p).ReadGpr(12), v);
  }
}

// --- memory access sizes -----------------------------------------------------

TEST(MemoryGoldenTest, LoadStoreSizesZeroExtend) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x8000\n"
                              "  li a0, 0xffff\n"
                              "  lui a0, 0x89ab\n"
                              "  ori a0, a0, 0xcdef\n"  // a0 = 0x89abcdef
                              "  sd a0, 0(a1)\n"
                              "  lb a2, 0(a1)\n"
                              "  lh a3, 0(a1)\n"
                              "  lw a4, 0(a1)\n"
                              "  ld a5, 0(a1)\n"
                              "  sb a0, 16(a1)\n"
                              "  ld a6, 16(a1)\n"
                              "  halt\n",
                              true);
  m.Start(p);
  m.RunToQuiescence();
  auto& t = m.threads().thread(p);
  EXPECT_EQ(t.ReadGpr(12), 0xefu);
  EXPECT_EQ(t.ReadGpr(13), 0xcdefu);
  EXPECT_EQ(t.ReadGpr(14), 0x89abcdefu);
  EXPECT_EQ(t.ReadGpr(15), 0x89abcdefu);
  EXPECT_EQ(t.ReadGpr(16), 0xefu);
}

// --- control flow -------------------------------------------------------------

TEST(BranchGoldenTest, AllComparisonsBothDirections) {
  struct Case {
    const char* op;
    uint64_t a;
    uint64_t b;
    bool taken;
  };
  const Case cases[] = {
      {"beq", 5, 5, true},   {"beq", 5, 6, false},
      {"bne", 5, 6, true},   {"bne", 5, 5, false},
      {"blt", static_cast<uint64_t>(-1), 0, true},  {"blt", 0, static_cast<uint64_t>(-1), false},
      {"bge", 0, static_cast<uint64_t>(-1), true},  {"bge", static_cast<uint64_t>(-1), 0, false},
      {"bltu", 0, static_cast<uint64_t>(-1), true}, {"bltu", static_cast<uint64_t>(-1), 0, false},
      {"bgeu", static_cast<uint64_t>(-1), 0, true}, {"bgeu", 0, static_cast<uint64_t>(-1), false},
  };
  for (const Case& c : cases) {
    Machine m;
    const Ptid p = m.LoadSource(0, 0,
                                std::string("  ") + c.op +
                                    " a0, a1, yes\n"
                                    "  li a2, 1\n"
                                    "  halt\n"
                                    "yes:\n"
                                    "  li a2, 2\n"
                                    "  halt\n",
                                true);
    m.threads().thread(p).WriteGpr(10, c.a);
    m.threads().thread(p).WriteGpr(11, c.b);
    m.Start(p);
    m.RunToQuiescence();
    EXPECT_EQ(m.threads().thread(p).ReadGpr(12), c.taken ? 2u : 1u)
        << c.op << " " << c.a << "," << c.b;
  }
}

TEST(BranchGoldenTest, CallLinksAndReturns) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 1\n"
                              "  call fn\n"
                              "  addi a0, a0, 100\n"  // runs after ret
                              "  halt\n"
                              "fn:\n"
                              "  addi a0, a0, 10\n"
                              "  ret\n",
                              true);
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.threads().thread(p).ReadGpr(10), 111u);
}

TEST(BranchGoldenTest, JalrComputedTarget) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  la a1, target\n"
                              "  jalr a3, a1, 0\n"
                              "  halt\n"
                              "target:\n"
                              "  li a2, 77\n"
                              "  halt\n",
                              true);
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.threads().thread(p).ReadGpr(12), 77u);
  // Link register holds the fall-through address.
  EXPECT_NE(m.threads().thread(p).ReadGpr(13), 0u);
}

TEST(AmoaddGoldenTest, ReturnsOldValueAndAccumulates) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x8000\n"
                              "  li a0, 100\n"
                              "  sd a0, 0(a1)\n"
                              "  li a2, 5\n"
                              "  amoadd a3, a1, a2\n"  // a3 = 100, mem = 105
                              "  amoadd a4, a1, a2\n"  // a4 = 105, mem = 110
                              "  halt\n",
                              true);
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.threads().thread(p).ReadGpr(13), 100u);
  EXPECT_EQ(m.threads().thread(p).ReadGpr(14), 105u);
  EXPECT_EQ(m.mem().phys().Read64(0x8000), 110u);
}

TEST(InterpGoldenTest, R0IsHardwiredZero) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 5\n"
                              "  add r0, a0, a0\n"  // write to r0 is dropped
                              "  add a2, r0, r0\n"
                              "  halt\n",
                              true);
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.threads().thread(p).ReadGpr(0), 0u);
  EXPECT_EQ(m.threads().thread(p).ReadGpr(12), 0u);
}

// --- predecoded I-cache + fusion (§4e, §4j) ---------------------------------

// 200 iterations of add/sd/ld/addi/bne: 1005 instructions, a0 = 20100.
constexpr const char* kCountLoop =
    "  li a0, 0\n"
    "  li a1, 200\n"
    "  li a2, 0x8000\n"
    "loop:\n"
    "  add a0, a0, a1\n"
    "  sd a0, 0(a2)\n"
    "  ld a3, 0(a2)\n"
    "  addi a1, a1, -1\n"
    "  bne a1, r0, loop\n"
    "  halt\n";

// Predecode and fusion are host-side speedups only. This loop's figures are
// the ones the per-fetch-decode, unfused, and switch-dispatch interpreters
// all produced bit for bit: the same instructions retire at the same ticks
// with the same thread-state trace, while its ld+addi pairs run fused once
// per iteration (the addi tail then can't also head a cmp_branch pair, so
// the mix is all load_alu).
TEST(InterpEngineTest, CountLoopTimingPinned) {
  Machine m;
  ThreadTracer tracer;
  m.threads().SetTracer(&tracer);
  const Ptid p = m.LoadSource(0, 0, kCountLoop, /*supervisor=*/true);
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.core(0).instructions_retired(), 1005u);
  EXPECT_EQ(m.sim().now(), 2736u);
  EXPECT_EQ(m.threads().thread(p).ReadGpr(10), 20100u);
  EXPECT_FALSE(m.halted());
  EXPECT_GT(m.core(0).predecode_hits(), 1000u);
  std::vector<std::tuple<Tick, Ptid, TraceCause>> events;
  for (const ThreadTracer::Event& e : tracer.events()) {
    events.emplace_back(e.tick, e.ptid, e.cause);
  }
  const std::vector<std::tuple<Tick, Ptid, TraceCause>> expected = {
      {0, p, TraceCause::kStart}, {2736, p, TraceCause::kStop}};
  EXPECT_EQ(events, expected);
  EXPECT_EQ(m.core(0).fused_pairs(FusedOp::kLoadAlu), 200u);
  EXPECT_EQ(m.core(0).fused_pairs_total(), 200u);
}

TEST(InterpEngineTest, CountLoopQuietAdvancesPastLiveHostEvent) {
  // Same loop as CountLoopTimingPinned, with an unrelated host event live far
  // in the future. The core must still step every tick in place rather than
  // dispatching its tick event each cycle, and simulated timing must not move.
  Machine m;
  ThreadTracer tracer;
  m.threads().SetTracer(&tracer);
  const Ptid p = m.LoadSource(0, 0, kCountLoop, /*supervisor=*/true);
  uint64_t loop_events = 0;
  m.sim().queue().ScheduleFn(1'000'000,
                             [&] { loop_events = m.sim().TotalEventsFired(); });
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.core(0).instructions_retired(), 1005u);
  EXPECT_EQ(m.threads().thread(p).ReadGpr(10), 20100u);
  EXPECT_EQ(m.sim().now(), 1'000'000u);
  std::vector<std::tuple<Tick, Ptid, TraceCause>> events;
  for (const ThreadTracer::Event& e : tracer.events()) {
    events.emplace_back(e.tick, e.ptid, e.cause);
  }
  const std::vector<std::tuple<Tick, Ptid, TraceCause>> expected = {
      {0, p, TraceCause::kStart}, {2736, p, TraceCause::kStop}};
  EXPECT_EQ(events, expected);
  // Events dispatched up to and including the host event: a handful, not
  // one per issue tick.
  EXPECT_GT(loop_events, 0u);
  EXPECT_LE(loop_events, 8u);
}

TEST(PredecodeTest, SelfModifyingCodeObservedAfterStore) {
  // Overwriting an already-predecoded instruction word must invalidate the
  // cached line: the rewritten instruction executes, not the stale decode.
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  la a1, target\n"
                              "  sw a2, 0(a1)\n"
                              "target:\n"
                              "  addi a0, r0, 55\n"
                              "  halt\n",
                              /*supervisor=*/true);
  // a2 holds the replacement encoding "addi a0, r0, 77".
  m.threads().thread(p).WriteGpr(12, Encode(Instruction{Opcode::kAddi, 10, 0, 0, 77}));
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.threads().thread(p).ReadGpr(10), 77u);
}

// Regression for the span rule: a fused pair whose head sits in the last
// slot of a predecode line caches a copy of the *next* line's first word as
// its tail. A store to that next line must drop the previous line's entry
// too, or the head keeps replaying the stale tail. Before the fix, this test
// fell through to the old branch target and read a4 == 55.
TEST(FusionTest, SpanningPairTailWriteInvalidatesHeadLine) {
  // Hand-placed so the cmp+branch head lands in slot 15 of the line at
  // 0x1000 and its branch tail is word 0 of the line at 0x1040:
  //   idx0   addi a1, r0, 0x1040   ; a1 = tail word address
  //   idx1   addi a3, r0, 1        ; first-pass flag
  //   idx2   beq  r0, r0, ->idx15  ; jump to the head
  //   idx3   sw   a2, 0(a1)        ; second pass: overwrite the tail word
  //   idx4   addi a3, r0, 0
  //   idx5   beq  r0, r0, ->idx15
  //   idx6..14  nop
  //   idx15  addi a5, a5, 1        ; HEAD (fusable ALU, slot 15)
  //   idx16  bne  a3, r0, ->idx3   ; TAIL (word 0 of the next line)
  //   idx17  addi a4, r0, 55       ; stale-tail fall-through
  //   idx18  halt
  //   idx19  addi a4, r0, 99       ; target of the rewritten tail
  //   idx20  halt
  auto branch_imm = [](int from_idx, int to_idx) {
    return to_idx - from_idx - 1;  // target = pc + 4 + imm*4
  };
  std::vector<uint32_t> words = {
      Encode(Instruction{Opcode::kAddi, 11, 0, 0, 0x1040}),
      Encode(Instruction{Opcode::kAddi, 13, 0, 0, 1}),
      Encode(Instruction{Opcode::kBeq, 0, 0, 0, branch_imm(2, 15)}),
      Encode(Instruction{Opcode::kSw, 12, 11, 0, 0}),
      Encode(Instruction{Opcode::kAddi, 13, 0, 0, 0}),
      Encode(Instruction{Opcode::kBeq, 0, 0, 0, branch_imm(5, 15)}),
  };
  while (words.size() < 15) {
    words.push_back(Encode(Instruction{Opcode::kNop, 0, 0, 0, 0}));
  }
  words.push_back(Encode(Instruction{Opcode::kAddi, 15, 15, 0, 1}));          // idx15
  words.push_back(Encode(Instruction{Opcode::kBne, 13, 0, 0, branch_imm(16, 3)}));  // idx16
  words.push_back(Encode(Instruction{Opcode::kAddi, 14, 0, 0, 55}));          // idx17
  words.push_back(Encode(Instruction{Opcode::kHalt, 0, 0, 0, 0}));            // idx18
  words.push_back(Encode(Instruction{Opcode::kAddi, 14, 0, 0, 99}));          // idx19
  words.push_back(Encode(Instruction{Opcode::kHalt, 0, 0, 0, 0}));            // idx20
  Machine m;
  Program prog;
  prog.base = 0x1000;  // 64-aligned: idx15 is the line's last slot
  prog.bytes.resize(words.size() * 4);
  memcpy(prog.bytes.data(), words.data(), prog.bytes.size());
  m.Load(0, 0, prog, /*supervisor=*/true);
  const Ptid p = m.threads().PtidOf(0, 0);
  // a2 holds the replacement tail: "beq r0, r0, ->idx19".
  m.threads().thread(p).WriteGpr(12, Encode(Instruction{Opcode::kBeq, 0, 0, 0, 2}));
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_EQ(m.threads().thread(p).ReadGpr(14), 99u);  // not the stale 55
  EXPECT_EQ(m.threads().thread(p).ReadGpr(15), 2u);   // head ran twice
  EXPECT_GT(m.core(0).fused_pairs(FusedOp::kCmpBranch), 0u);
}

// A fault on the head of a fused pair must de-fuse: the exception fires with
// the head's pc, no continuation is staged, and the run ends at the tick the
// unfused interpreter reached.
TEST(FusionTest, MidSequenceFaultDeFuses) {
  Machine m;
  m.mem().AddSupervisorOnlyRange(0x20000, 0x1000);
  // User mode, no handler installed: ld faults (kPageFault) and the machine
  // halts. ld+add is a kLoadAlu pair.
  const Ptid p = m.LoadSource(0, 0,
                              "  lui a2, 2\n"       // a2 = 0x20000
                              "  ld a3, 0(a2)\n"    // faults: supervisor-only
                              "  add a4, a3, a3\n"  // fused tail, must not run
                              "  halt\n",
                              /*supervisor=*/false);
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.halt_why(), HaltReason::kUnhandledException);
  EXPECT_EQ(m.sim().now(), 277u);
  EXPECT_EQ(m.core(0).instructions_retired(), 2u);
  EXPECT_EQ(m.threads().thread(p).ReadGpr(13), 0u);  // load never completed
  EXPECT_EQ(m.threads().thread(p).ReadGpr(14), 0u);  // tail never executed
  EXPECT_EQ(m.core(0).fused_pairs_total(), 0u);
}

}  // namespace
}  // namespace casc

// Unit tests for instruction encoding/decoding and the assembler.
#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/mem/phys_mem.h"

namespace casc {
namespace {

TEST(EncodingTest, RoundTripRFormat) {
  const Instruction in{Opcode::kAdd, 3, 7, 11, 0};
  EXPECT_EQ(Decode(Encode(in)), in);
}

TEST(EncodingTest, RoundTripIFormatNegativeImm) {
  const Instruction in{Opcode::kAddi, 5, 6, 0, -42};
  EXPECT_EQ(Decode(Encode(in)), in);
}

TEST(EncodingTest, RoundTripJFormat) {
  for (int32_t imm : {0, 1, -1, 1000, -1000, (1 << 25) - 1, -(1 << 25)}) {
    const Instruction in{Opcode::kJal, 0, 0, 0, imm};
    EXPECT_EQ(Decode(Encode(in)).imm, imm) << imm;
  }
}

TEST(EncodingTest, AllOpcodesRoundTrip) {
  for (uint32_t op = 0; op < static_cast<uint32_t>(Opcode::kCount); op++) {
    Instruction in;
    in.op = static_cast<Opcode>(op);
    in.rd = 1;
    in.rs1 = 2;
    if (!IsIFormat(in.op) && !IsJFormat(in.op)) {
      in.rs2 = 3;
    } else if (!IsJFormat(in.op)) {
      in.imm = 9;
    } else {
      in.imm = 9;
      in.rd = in.rs1 = 0;
    }
    EXPECT_EQ(Decode(Encode(in)), in) << OpcodeName(in.op);
  }
}

TEST(RegisterTest, ParsesNamesAndAliases) {
  EXPECT_EQ(ParseRegister("r0"), 0);
  EXPECT_EQ(ParseRegister("r31"), 31);
  EXPECT_EQ(ParseRegister("zero"), 0);
  EXPECT_EQ(ParseRegister("ra"), 31);
  EXPECT_EQ(ParseRegister("sp"), 30);
  EXPECT_EQ(ParseRegister("a0"), 10);
  EXPECT_EQ(ParseRegister("a7"), 17);
  EXPECT_EQ(ParseRegister("t0"), 18);
  EXPECT_EQ(ParseRegister("bogus"), -1);
  EXPECT_EQ(ParseRegister("r32"), -1);
}

Program MustAssemble(const std::string& src, Addr base = 0x1000) {
  auto result = Assembler::Assemble(src, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

Instruction InstAt(const Program& p, Addr addr) {
  uint32_t word = 0;
  std::memcpy(&word, &p.bytes[addr - p.base], 4);
  return Decode(word);
}

TEST(AssemblerTest, BasicArithmetic) {
  const Program p = MustAssemble("add a0, a1, a2\naddi t0, a0, -5\n");
  const Instruction i0 = InstAt(p, 0x1000);
  EXPECT_EQ(i0.op, Opcode::kAdd);
  EXPECT_EQ(i0.rd, 10);
  EXPECT_EQ(i0.rs1, 11);
  EXPECT_EQ(i0.rs2, 12);
  const Instruction i1 = InstAt(p, 0x1004);
  EXPECT_EQ(i1.op, Opcode::kAddi);
  EXPECT_EQ(i1.imm, -5);
}

TEST(AssemblerTest, LiShortAndLong) {
  const Program p = MustAssemble("li a0, 100\nli a1, 0x12345678\n");
  EXPECT_EQ(InstAt(p, 0x1000).op, Opcode::kAddi);
  EXPECT_EQ(InstAt(p, 0x1004).op, Opcode::kLui);
  EXPECT_EQ(InstAt(p, 0x1004).imm, 0x1234);
  EXPECT_EQ(InstAt(p, 0x1008).op, Opcode::kOri);
  EXPECT_EQ(InstAt(p, 0x1008).imm, 0x5678);
}

TEST(AssemblerTest, LabelsAndBranches) {
  const Program p = MustAssemble(
      "loop:\n"
      "  addi a0, a0, 1\n"
      "  bne a0, a1, loop\n"
      "  halt\n");
  const Instruction br = InstAt(p, 0x1004);
  EXPECT_EQ(br.op, Opcode::kBne);
  EXPECT_EQ(br.imm, -2);  // back to 0x1000 from pc+4 = 0x1008
  EXPECT_EQ(p.Symbol("loop"), 0x1000u);
}

TEST(AssemblerTest, MemoryOperands) {
  const Program p = MustAssemble("ld a0, 16(sp)\nsd a1, -8(a0)\nlw a2, (a3)\n");
  const Instruction ld = InstAt(p, 0x1000);
  EXPECT_EQ(ld.op, Opcode::kLd);
  EXPECT_EQ(ld.rd, 10);
  EXPECT_EQ(ld.rs1, 30);
  EXPECT_EQ(ld.imm, 16);
  const Instruction sd = InstAt(p, 0x1004);
  EXPECT_EQ(sd.op, Opcode::kSd);
  EXPECT_EQ(sd.rd, 11);   // source value register
  EXPECT_EQ(sd.rs1, 10);  // base
  EXPECT_EQ(sd.imm, -8);
  EXPECT_EQ(InstAt(p, 0x1008).imm, 0);
}

TEST(AssemblerTest, ExtensionInstructions) {
  const Program p = MustAssemble(
      "monitor a0\n"
      "mwait\n"
      "start a1\n"
      "stop a2\n"
      "rpull a3, a1, pc\n"
      "rpush a1, edp, a4\n"
      "invtid a1, a2\n");
  EXPECT_EQ(InstAt(p, 0x1000).op, Opcode::kMonitor);
  EXPECT_EQ(InstAt(p, 0x1000).rs1, 10);
  EXPECT_EQ(InstAt(p, 0x1004).op, Opcode::kMwait);
  EXPECT_EQ(InstAt(p, 0x1008).op, Opcode::kStart);
  EXPECT_EQ(InstAt(p, 0x100c).op, Opcode::kStop);
  const Instruction rpull = InstAt(p, 0x1010);
  EXPECT_EQ(rpull.op, Opcode::kRpull);
  EXPECT_EQ(rpull.rd, 13);
  EXPECT_EQ(rpull.rs1, 11);
  EXPECT_EQ(rpull.imm, static_cast<int32_t>(RemoteReg::kPc));
  const Instruction rpush = InstAt(p, 0x1014);
  EXPECT_EQ(rpush.op, Opcode::kRpush);
  EXPECT_EQ(rpush.rs1, 11);
  EXPECT_EQ(rpush.rd, 14);
  EXPECT_EQ(rpush.imm, static_cast<int32_t>(RemoteReg::kEdp));
  const Instruction inv = InstAt(p, 0x1018);
  EXPECT_EQ(inv.op, Opcode::kInvtid);
  EXPECT_EQ(inv.rs1, 11);
  EXPECT_EQ(inv.rs2, 12);
}

TEST(AssemblerTest, CsrNamesResolve) {
  const Program p = MustAssemble("csrrd a0, ptid\ncsrwr edp, a1\ncsrrd a2, 7\n");
  EXPECT_EQ(InstAt(p, 0x1000).imm, static_cast<int32_t>(Csr::kPtid));
  const Instruction wr = InstAt(p, 0x1004);
  EXPECT_EQ(wr.op, Opcode::kCsrwr);
  EXPECT_EQ(wr.imm, static_cast<int32_t>(Csr::kEdp));
  EXPECT_EQ(wr.rd, 11);
  EXPECT_EQ(InstAt(p, 0x1008).imm, 7);
}

TEST(AssemblerTest, DirectivesAndSymbols) {
  const Program p = MustAssemble(
      "  j over\n"
      "data:\n"
      "  .word 0xabcdef0123456789\n"
      "  .space 8\n"
      "over:\n"
      "  la a0, data\n"
      "  halt\n");
  EXPECT_EQ(p.Symbol("data"), 0x1004u);
  EXPECT_EQ(p.Symbol("over"), 0x1014u);
  uint64_t w = 0;
  std::memcpy(&w, &p.bytes[4], 8);
  EXPECT_EQ(w, 0xabcdef0123456789ull);
  // la expands to lui+ori of 0x1004.
  EXPECT_EQ(InstAt(p, 0x1014).op, Opcode::kLui);
  EXPECT_EQ(InstAt(p, 0x1018).imm, 0x1004);
}

TEST(AssemblerTest, CallAndRet) {
  const Program p = MustAssemble(
      "  call func\n"
      "  halt\n"
      "func:\n"
      "  ret\n");
  const Instruction call = InstAt(p, 0x1000);
  EXPECT_EQ(call.op, Opcode::kJal);
  EXPECT_EQ(call.imm, 1);  // 0x1008 from 0x1004
  const Instruction ret = InstAt(p, 0x1008);
  EXPECT_EQ(ret.op, Opcode::kJalr);
  EXPECT_EQ(ret.rs1, 31);
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  auto r = Assembler::Assemble("nop\nfrobnicate a0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
  r = Assembler::Assemble("beq a0, a1, nowhere\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown symbol"), std::string::npos);
  r = Assembler::Assemble("dup:\nnop\ndup:\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate"), std::string::npos);
}

TEST(AssemblerTest, LoadIntoMemory) {
  PhysicalMemory mem;
  const Program p = MustAssemble("li a0, 7\nhalt\n");
  p.LoadInto(mem);
  EXPECT_EQ(Decode(mem.Read32(0x1000)).op, Opcode::kAddi);
  EXPECT_EQ(Decode(mem.Read32(0x1004)).op, Opcode::kHalt);
}

TEST(DisassemblerTest, FormatsCommonForms) {
  EXPECT_EQ(Disassemble(Instruction{Opcode::kAdd, 1, 2, 3, 0}), "add r1, r2, r3");
  EXPECT_EQ(Disassemble(Instruction{Opcode::kLd, 4, 5, 0, 16}), "ld r4, 16(r5)");
  EXPECT_EQ(Disassemble(Instruction{Opcode::kMwait, 0, 0, 0, 0}), "mwait");
  EXPECT_EQ(Disassemble(Instruction{Opcode::kStart, 0, 9, 0, 0}), "start r9");
}

TEST(HarnessThreadsTest, ParsesTheSymbolConvention) {
  const Program p = MustAssemble(R"(
    t0_entry:
    t0_main:
      halt
    t2_entry:
    t2_user:
      halt
    t2_edp:
      .space 64
    t2_tdt:
      .word 0
      .word 0
      .word 0
      .word 0
    t2_tdt_end:
    t10_entry:
      halt
  )");
  const std::vector<HarnessThread> threads = HarnessThreads(p);
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_EQ(threads[0].ptid, 0u);
  EXPECT_TRUE(threads[0].auto_start);
  EXPECT_TRUE(threads[0].supervisor);
  EXPECT_EQ(threads[0].edp, 0u);
  EXPECT_EQ(threads[1].ptid, 2u);
  EXPECT_FALSE(threads[1].auto_start);
  EXPECT_FALSE(threads[1].supervisor);
  EXPECT_EQ(threads[1].edp, p.Symbol("t2_edp"));
  EXPECT_EQ(threads[1].tdtr, p.Symbol("t2_tdt"));
  EXPECT_EQ(threads[1].tdt_size, 2u);
  EXPECT_EQ(threads[2].ptid, 10u);  // ptid order, not symbol-name order
  EXPECT_EQ(threads[2].entry, p.Symbol("t10_entry"));
}

TEST(HarnessThreadsTest, TdtNeedsBothBoundsAndPlainDecimalPtids) {
  const Program p = MustAssemble(R"(
    t0_entry:
      halt
    t0_tdt:
      .word 0
      .word 0
    t1_entry:
      halt
    t1_tdt_end:
      .word 0
      .word 0
    t1_tdt:
    t01_entry:
    tx_entry:
    t_entry:
      halt
  )");
  const std::vector<HarnessThread> threads = HarnessThreads(p);
  ASSERT_EQ(threads.size(), 2u);
  // t0_tdt without t0_tdt_end, and t1's end below its base: no TDT.
  EXPECT_EQ(threads[0].tdtr, 0u);
  EXPECT_EQ(threads[0].tdt_size, 0u);
  EXPECT_EQ(threads[1].tdtr, 0u);
  EXPECT_EQ(threads[1].tdt_size, 0u);
  EXPECT_TRUE(HarnessThreads(MustAssemble("halt\n")).empty());
}

}  // namespace
}  // namespace casc

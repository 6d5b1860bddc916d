// Tests for the differential-fuzzing stack (src/verify): the untimed
// reference model, the harness conventions, the program generator, the
// lattice runner, and the shrinker.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/verify/chaos_plan.h"
#include "src/verify/diff_runner.h"
#include "src/verify/harness.h"
#include "src/verify/prog_gen.h"
#include "src/verify/ref_model.h"
#include "src/verify/shrink.h"

namespace casc {
namespace verify {
namespace {

Program MustAssemble(const std::string& source) {
  AssembleResult res = Assembler::Assemble(source, 0x1000);
  EXPECT_TRUE(res.ok) << res.error;
  return res.program;
}

// ---------------------------------------------------------------------------
// Reference model

TEST(RefModel, RunsStraightLineArithmetic) {
  const Program p = MustAssemble(R"(
    li r1, 7
    li r2, 5
    add r3, r1, r2
    mul r4, r3, r3
    halt
  )");
  RefMachine m{RefConfig{}};
  m.mem().Write(p.base, p.bytes.data(), p.bytes.size());
  m.InitThread(0, p.base, /*supervisor=*/true);
  m.Start(0);
  ASSERT_TRUE(m.Run(1000));
  EXPECT_EQ(m.thread(0).arch.gpr[3], 12u);
  EXPECT_EQ(m.thread(0).arch.gpr[4], 144u);
  EXPECT_EQ(m.thread(0).state, ThreadState::kDisabled);
}

TEST(RefModel, DivideByZeroWithoutEdpHaltsMachine) {
  const Program p = MustAssemble(R"(
    li r2, 0
    div r1, r1, r2
    halt
  )");
  RefMachine m{RefConfig{}};
  m.mem().Write(p.base, p.bytes.data(), p.bytes.size());
  m.InitThread(0, p.base, /*supervisor=*/true);
  m.Start(0);
  ASSERT_TRUE(m.Run(1000));
  EXPECT_TRUE(m.halted());
  EXPECT_NE(m.halt_reason().find("divide-by-zero"), std::string::npos);
}

TEST(RefModel, ExceptionWithEdpWritesDescriptorAndDisables) {
  const Program p = MustAssemble(R"(
    start:
      csrrd r1, 63
      halt
    .align 64
    edp:
      .space 64
  )");
  RefMachine m{RefConfig{}};
  m.mem().Write(p.base, p.bytes.data(), p.bytes.size());
  const Addr edp = p.Symbol("edp");
  m.InitThread(0, p.Symbol("start"), /*supervisor=*/true, edp);
  m.Start(0);
  ASSERT_TRUE(m.Run(1000));
  EXPECT_FALSE(m.halted());
  EXPECT_EQ(m.exception_count(ExceptionType::kIllegalInstruction), 1u);
  EXPECT_EQ(m.thread(0).state, ThreadState::kDisabled);
  // Descriptor: type at +0, ptid at +4, pc at +8.
  EXPECT_EQ(m.mem().ReadUint(edp, 4), static_cast<uint64_t>(ExceptionType::kIllegalInstruction));
  EXPECT_EQ(m.mem().ReadUint(edp + 4, 4), 0u);
  EXPECT_EQ(m.mem().ReadUint(edp + 8, 8), p.Symbol("start"));
}

TEST(RefModel, UserModeManagementIsPermissionChecked) {
  // A user thread with no TDT has no valid translations: start faults with
  // invalid-vtid and, with no edp, halts the machine.
  const Program p = MustAssemble(R"(
    li r1, 1
    start r1
    halt
  )");
  RefMachine m{RefConfig{}};
  m.mem().Write(p.base, p.bytes.data(), p.bytes.size());
  m.InitThread(0, p.base, /*supervisor=*/false);
  m.Start(0);
  ASSERT_TRUE(m.Run(1000));
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.exception_count(ExceptionType::kInvalidVtid), 1u);
}

TEST(RefModel, MonitorMwaitHandshake) {
  // t0 watches its line and blocks; t1 stores to it; t0 resumes and halts.
  const Program p = MustAssemble(R"(
    t0:
      la r5, line
      monitor r5
      mwait
      ld r6, 0(r5)
      halt
    t1:
      la r5, line
      li r6, 99
      sd r6, 0(r5)
      halt
    .align 64
    line:
      .space 64
  )");
  RefMachine m{RefConfig{}};
  m.mem().Write(p.base, p.bytes.data(), p.bytes.size());
  m.InitThread(0, p.Symbol("t0"), true);
  m.InitThread(1, p.Symbol("t1"), true);
  m.Start(0);
  m.Start(1);
  ASSERT_TRUE(m.Run(1000));
  EXPECT_EQ(m.thread(0).arch.gpr[6], 99u);
  EXPECT_EQ(m.thread(0).state, ThreadState::kDisabled);
}

// ---------------------------------------------------------------------------
// Harness

TEST(Harness, SimAndRefAgreeOnSimpleProgram) {
  const Program p = MustAssemble(R"(
    t0_entry:
    t0_main:
      la r28, t0_data
      li r1, 3
      li r2, 4
      mul r3, r1, r2
      sd r3, 0(r28)
      halt
    .align 64
    t0_data:
      .space 64
  )");
  const auto threads = HarnessThreads(p);
  const LatticePoint& pt = DefaultLattice()[0];
  SimRun run(p, threads, pt.machine);
  Snapshot sim = run.Run(1'000'000);
  RefConfig rc;
  Snapshot ref = RunOnRef(p, threads, rc, 100'000);
  EXPECT_EQ(CompareSnapshots(ref, sim, DescriptorMaskRanges(threads), "ref", "sim"), "");
  EXPECT_EQ(run.CheckInvariants(), "");
}

// ---------------------------------------------------------------------------
// Differential runner on handwritten fault gadgets

TEST(DiffRunner, FaultGadgetsMatchEverywhere) {
  const char* kSources[] = {
      // divide by zero, descriptor written
      R"(
        t0_entry:
        t0_main:
          li r2, 0
          div r1, r1, r2
          halt
        t0_edp:
          .space 64
      )",
      // illegal CSR
      R"(
        t0_entry:
        t0_main:
          csrrd r1, 63
          halt
        t0_edp:
          .space 64
      )",
      // user-mode page fault on the supervisor-only low range
      R"(
        t0_entry:
        t0_main:
        t0_user:
          li r2, 256
          ld r1, 0(r2)
          halt
        t0_edp:
          .space 64
      )",
      // invalid vtid under every model (99 >= threads and >= tdt size)
      R"(
        t0_entry:
        t0_main:
          li r1, 99
          start r1
          halt
        t0_edp:
          .space 64
      )",
  };
  for (const char* src : kSources) {
    DiffOptions opts;
    const DiffFailure f = RunDifferentialSource(src, opts);
    EXPECT_FALSE(f.failed) << f.config << "/" << f.category << ": " << f.detail;
  }
}

TEST(DiffRunner, ReportsAssemblyErrors) {
  DiffOptions opts;
  const DiffFailure f = RunDifferentialSource("bogus r1, r2\n", opts);
  EXPECT_TRUE(f.failed);
  EXPECT_EQ(f.category, "assemble");
}

// ---------------------------------------------------------------------------
// Generator

TEST(ProgGen, GeneratedProgramsAssembleAndPassDifferential) {
  for (uint64_t seed = 100; seed < 106; seed++) {
    const std::string source = GenerateProgram(seed);
    AssembleResult res = Assembler::Assemble(source, 0x1000);
    ASSERT_TRUE(res.ok) << "seed " << seed << ": " << res.error;
    DiffOptions opts;
    const DiffFailure f = RunDifferentialSource(source, opts);
    EXPECT_FALSE(f.failed) << "seed " << seed << " [" << f.config << "/" << f.category
                           << "]: " << f.detail;
  }
}

TEST(ProgGen, DeterministicForSameSeed) {
  EXPECT_EQ(GenerateProgram(42), GenerateProgram(42));
  EXPECT_NE(GenerateProgram(42), GenerateProgram(43));
}

// ---------------------------------------------------------------------------
// Chaos-differential fuzzing (DESIGN.md §4k)

std::string ReadCorpusFile(const std::string& name) {
  std::ifstream in(std::filesystem::path(CASC_CORPUS_DIR) / name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ChaosPlan, MakeIsDeterministicAndMaskNarrowingIsStable) {
  const ChaosPlan a = MakeChaosPlan(5, kChaosMaskAll);
  const ChaosPlan b = MakeChaosPlan(5, kChaosMaskAll);
  ASSERT_EQ(a.specs.size(), 3u);
  for (size_t i = 0; i < a.specs.size(); i++) {
    EXPECT_EQ(a.specs[i].cls, b.specs[i].cls);
    EXPECT_EQ(a.specs[i].every, b.specs[i].every);
    EXPECT_EQ(a.specs[i].max_faults, b.specs[i].max_faults);
  }
  // Narrowing the mask keeps each surviving class's cadence: shrinking the
  // campaign never reshuffles what remains.
  const ChaosPlan narrow = MakeChaosPlan(5, kChaosMaskMigrationCrash);
  ASSERT_EQ(narrow.specs.size(), 1u);
  EXPECT_EQ(narrow.specs[0].cls, FaultClass::kMigrationCrash);
  EXPECT_EQ(narrow.specs[0].every, a.specs[1].every);
  EXPECT_EQ(narrow.specs[0].max_faults, a.specs[1].max_faults);
}

TEST(ChaosPlan, HeaderRoundTripsThroughCasmComments) {
  ChaosPlan plan = MakeChaosPlan(42, kChaosMaskAll, 123'456);
  const std::string header = FormatChaosPlanHeader(plan);
  ChaosPlan parsed;
  ASSERT_TRUE(ParseChaosPlanHeader(header + "t0_entry:\n  halt\n", &parsed));
  EXPECT_EQ(parsed.seed, plan.seed);
  EXPECT_EQ(parsed.watchdog_ticks, plan.watchdog_ticks);
  ASSERT_EQ(parsed.specs.size(), plan.specs.size());
  for (size_t i = 0; i < plan.specs.size(); i++) {
    EXPECT_EQ(parsed.specs[i].cls, plan.specs[i].cls);
    EXPECT_EQ(parsed.specs[i].every, plan.specs[i].every);
    EXPECT_EQ(parsed.specs[i].max_faults, plan.specs[i].max_faults);
  }
  ChaosPlan none;
  EXPECT_FALSE(ParseChaosPlanHeader("# just a comment\nt0_entry:\n  halt\n", &none));
}

// Each cross-core corpus fixture carries its own chaos plan in `# chaos-*`
// header comments. Replayed on the two-core lattice, the campaign must
// actually bite (injections > 0) and every point must satisfy the liveness
// oracle — quiesce or structured halt, never a wedge.
TEST(ChaosDiff, CorpusFixturesSurviveTheirFaultCampaigns) {
  for (const char* name : {"fabric_fault.casm", "migration_crash.casm",
                           "remote_start_race.casm"}) {
    SCOPED_TRACE(name);
    const std::string source = ReadCorpusFile(name);
    DiffOptions opts;
    opts.num_cores = 2;
    ASSERT_TRUE(ParseChaosPlanHeader(source, &opts.chaos));
    const DiffFailure f = RunDifferentialSource(source, opts);
    EXPECT_FALSE(f.failed) << "[" << f.config << "/" << f.category << "]: " << f.detail;
    EXPECT_GT(f.chaos_injected, 0u);
  }
}

// The deliberately wedged fixture (no restart budget, unbounded fault
// schedule) must be caught by the bounded-progress watchdog — and the joint
// shrinker must minimize the program while keeping the one-spec schedule
// that still wedges it.
TEST(ChaosDiff, WedgedFixtureIsCaughtByWatchdogAndShrinksJointly) {
  const std::string source = ReadCorpusFile("wedge_restart_storm.casm");
  DiffOptions opts;
  opts.points = {0};  // one lattice point keeps the storm affordable
  ASSERT_TRUE(ParseChaosPlanHeader(source, &opts.chaos));
  opts.chaos.watchdog_ticks = 100'000;
  const DiffFailure f = RunDifferentialSource(source, opts);
  ASSERT_TRUE(f.failed);
  EXPECT_EQ(f.category, "wedge");

  const PlanShrinkResult r = ShrinkWithPlan(
      source, opts.chaos, [&](const std::string& s, const ChaosPlan& plan) {
        DiffOptions o = opts;
        o.chaos = plan;
        const DiffFailure cf = RunDifferentialSource(s, o);
        return cf.failed && cf.config == f.config && cf.category == f.category;
      });
  const DiffFailure sf = [&] {
    DiffOptions o = opts;
    o.chaos = r.plan;
    return RunDifferentialSource(r.source, o);
  }();
  EXPECT_TRUE(sf.failed);
  EXPECT_EQ(sf.category, "wedge");
  EXPECT_LT(CountInstructions(r.source), CountInstructions(source));
  ASSERT_EQ(r.plan.specs.size(), 1u);
  EXPECT_EQ(r.plan.specs[0].cls, FaultClass::kMigrationCrash);
}

// ---------------------------------------------------------------------------
// Shrinker

TEST(Shrink, DeletesIrrelevantInstructionsAndSimplifiesOperands) {
  const std::string source =
      "start:\n"
      "  li r1, 5\n"
      "  addi r2, r0, 9\n"
      "  li r3, 77\n"
      "  mul r4, r3, r3\n"
      "  halt\n";
  // Failure: "the program still contains a mul". Everything else should go.
  auto still_fails = [](const std::string& s) {
    if (!Assembler::Assemble(s, 0x1000).ok) {
      return false;
    }
    return s.find("mul") != std::string::npos;
  };
  const std::string shrunk = Shrink(source, still_fails);
  EXPECT_NE(shrunk.find("mul"), std::string::npos);
  EXPECT_EQ(shrunk.find("li r1"), std::string::npos);
  EXPECT_EQ(shrunk.find("addi"), std::string::npos);
  // Operand simplification turned `li r3, 77` (kept: mul reads r3? no — the
  // li itself is deletable) into nothing, and mul's operands stay register
  // tokens. Labels and halt survive by construction.
  EXPECT_NE(shrunk.find("start:"), std::string::npos);
  EXPECT_NE(shrunk.find("halt"), std::string::npos);
  EXPECT_EQ(CountInstructions(shrunk), 2u);  // mul + halt
}

TEST(Shrink, SimplifiesIntegerLiteralsTowardZero) {
  const std::string source = "  li r1, 500\n  sd r1, 48(r28)\n  halt\n";
  // Failure: an sd to some r28 offset exists (any literal values do).
  auto still_fails = [](const std::string& s) {
    if (!Assembler::Assemble(s, 0x1000).ok) {
      return false;
    }
    return s.find("sd r1") != std::string::npos;
  };
  const std::string shrunk = Shrink(source, still_fails);
  EXPECT_NE(shrunk.find("sd r1, 0(r28)"), std::string::npos) << shrunk;
  EXPECT_EQ(shrunk.find("500"), std::string::npos);
  // Register names must never be rewritten.
  EXPECT_NE(shrunk.find("r28"), std::string::npos);
}

TEST(Shrink, CountInstructionsSkipsLabelsDirectivesComments) {
  EXPECT_EQ(CountInstructions("lab:\n.align 64\n# c\n  add r1, r2, r3\n  halt\n"), 2u);
  EXPECT_EQ(CountInstructions("a:\nb:\n  .word 5\n"), 0u);
}

}  // namespace
}  // namespace verify
}  // namespace casc

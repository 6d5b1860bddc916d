// Tests for casc-race, the two-tier concurrency analyzer: the static
// happens-before rules (src/analysis/hb.cc — data-race, lost-wakeup,
// monitor-store-race, unsynchronized-start) and the dynamic vector-clock
// detector (src/verify/race_detector.cc) that confirms static findings on
// real executions. Every static rule gets a positive and a negative fixture;
// the dynamic tier re-runs the key ones on the simulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/isa/assembler.h"
#include "src/verify/harness.h"
#include "src/verify/race_detector.h"

namespace casc {
namespace {

Program MustAssemble(const std::string& source) {
  AssembleResult res = Assembler::Assemble(source, 0x1000);
  EXPECT_TRUE(res.ok) << res.error;
  return res.program;
}

analysis::LintResult LintSource(const std::string& source) {
  return analysis::Lint(MustAssemble(source), analysis::LintOptions{});
}

const analysis::Diagnostic* Find(const analysis::LintResult& result,
                                 const std::string& rule_id) {
  for (const analysis::Diagnostic& d : result.diagnostics) {
    if (d.rule_id == rule_id) {
      return &d;
    }
  }
  return nullptr;
}

// Two auto-started mains storing the same value into the same shared word:
// the canonical race. Also the shape the dynamic tier must confirm.
const char kRacySource[] = R"(
t0_entry:
t0_main:
  la r28, shared
  li r29, 7
  sd r29, 0(r28)
  halt
t1_entry:
t1_main:
  la r28, shared
  li r29, 7
  sd r29, 0(r28)
  halt
.align 64
shared:
  .space 64
)";

// The full monitor/mwait handshake from tests/corpus/clean_handshake.casm:
// arm before start, guarded re-check, payload published before the flag.
const char kHandshakeSource[] = R"(
t0_entry:
t0_main:
  la r28, flag
  la r27, result
  monitor r28
  li r25, 1
  start r25
t0_wait:
  ld r26, 0(r28)
  bne r26, r0, t0_done
  mwait
  j t0_wait
t0_done:
  ld r24, 0(r27)
  halt
t1_entry:
  la r28, flag
  la r27, result
  li r29, 42
  sd r29, 0(r27)
  li r29, 1
  sd r29, 0(r28)
  halt
.align 64
flag:
  .space 64
result:
  .space 64
)";

// ---------------------------------------------------------------------------
// Static tier: data-race

TEST(StaticRace, ConcurrentStoresToSharedWordRace) {
  const analysis::LintResult r = LintSource(kRacySource);
  const analysis::Diagnostic* d = Find(r, analysis::rules::kDataRace);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kError);
  EXPECT_NE(d->message.find("t0 store"), std::string::npos);
  EXPECT_NE(d->message.find("t1 store"), std::string::npos);
  EXPECT_FALSE(r.ok());
}

TEST(StaticRace, DisjointStoresAreClean) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, a_word
  li r29, 7
  sd r29, 0(r28)
  halt
t1_entry:
t1_main:
  la r28, b_word
  li r29, 7
  sd r29, 0(r28)
  halt
.align 64
a_word:
  .space 64
b_word:
  .space 64
)");
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_TRUE(r.ok());
}

TEST(StaticRace, AtomicRmwPairIsExempt) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, ctr
  li r29, 1
  amoadd r3, r28, r29
  halt
t1_entry:
t1_main:
  la r28, ctr
  li r29, 1
  amoadd r3, r28, r29
  halt
.align 64
ctr:
  .space 64
)");
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_TRUE(r.ok());
}

TEST(StaticRace, AtomicVersusPlainStoreStillRaces) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, ctr
  li r29, 1
  amoadd r3, r28, r29
  halt
t1_entry:
t1_main:
  la r28, ctr
  li r29, 5
  sd r29, 0(r28)
  halt
.align 64
ctr:
  .space 64
)");
  ASSERT_NE(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(StaticRace, LintAllowSuppressesSeededRace) {
  // The diagnostic lands on the lower-address store (t0's), so the
  // suppression there silences the pair.
  std::string source = kRacySource;
  const std::string site = "  sd r29, 0(r28)\n  halt\nt1_entry:";
  const size_t at = source.find(site);
  ASSERT_NE(at, std::string::npos);
  source.replace(at, site.size(),
                 "  sd r29, 0(r28) ; lint-allow: data-race\n  halt\nt1_entry:");
  const analysis::LintResult r =
      analysis::Lint(MustAssemble(source), analysis::LintOptions{});
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------------------
// Static tier: lost-wakeup

TEST(StaticRace, LoadBeforeArmWithoutReloadIsLostWakeup) {
  const analysis::LintResult r = LintSource(R"(
  li r1, 0x2000
  ld r2, 0(r1)
  monitor r1
  mwait
  halt
)");
  const analysis::Diagnostic* d = Find(r, analysis::rules::kLostWakeup);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kWarning);
  EXPECT_EQ(d->line, 5);  // reported at the mwait
}

TEST(StaticRace, ReloadAfterArmClosesTheWindow) {
  const analysis::LintResult r = LintSource(R"(
  li r1, 0x2000
  ld r2, 0(r1)
  monitor r1
  ld r2, 0(r1)
  mwait
  halt
)");
  EXPECT_EQ(Find(r, analysis::rules::kLostWakeup), nullptr);
}

TEST(StaticRace, ArmBeforeFirstLoadIsClean) {
  const analysis::LintResult r = LintSource(R"(
  li r1, 0x2000
  monitor r1
  ld r2, 0(r1)
  mwait
  halt
)");
  EXPECT_EQ(Find(r, analysis::rules::kLostWakeup), nullptr);
}

// ---------------------------------------------------------------------------
// Static tier: monitor-store-race

TEST(StaticRace, TwoUnorderedReleasesIntoWatchedLineWarn) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, flag
  li r29, 1
  sd r29, 0(r28)
  halt
t1_entry:
t1_main:
  la r28, flag
  li r29, 2
  sd r29, 0(r28)
  halt
t2_entry:
t2_main:
  la r28, flag
  monitor r28
  mwait
  halt
.align 64
flag:
  .space 64
)");
  const analysis::Diagnostic* d = Find(r, analysis::rules::kMonitorStoreRace);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kWarning);
  // Stores into a watched line are the protocol's releases, not data races.
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
}

TEST(StaticRace, SingleReleaseIntoWatchedLineIsClean) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, flag
  li r29, 1
  sd r29, 0(r28)
  halt
t2_entry:
t2_main:
  la r28, flag
  monitor r28
  mwait
  halt
.align 64
flag:
  .space 64
)");
  EXPECT_EQ(Find(r, analysis::rules::kMonitorStoreRace), nullptr);
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------------------
// Static tier: unsynchronized-start

TEST(StaticRace, ParentReadOfChildOutputWithoutSyncIsFlagged) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, out
  li r25, 1
  start r25
  ld r26, 0(r28)
  halt
t1_entry:
  la r28, out
  li r29, 5
  sd r29, 0(r28)
  halt
.align 64
out:
  .space 64
)");
  const analysis::Diagnostic* d = Find(r, analysis::rules::kUnsyncStart);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kError);
  EXPECT_FALSE(r.ok());
}

TEST(StaticRace, StopClosesTheParentChildWindow) {
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, out
  li r25, 1
  start r25
  stop r25
  ld r26, 0(r28)
  halt
t1_entry:
  la r28, out
  li r29, 5
  sd r29, 0(r28)
  halt
.align 64
out:
  .space 64
)");
  EXPECT_EQ(Find(r, analysis::rules::kUnsyncStart), nullptr);
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_TRUE(r.ok());
}

TEST(StaticRace, ParentWritesBeforeStartAreOrdered) {
  // start is a release of everything the parent did so far: the child may
  // read it freely.
  const analysis::LintResult r = LintSource(R"(
t0_entry:
t0_main:
  la r28, in_word
  li r29, 9
  sd r29, 0(r28)
  li r25, 1
  start r25
  halt
t1_entry:
  la r28, in_word
  ld r26, 0(r28)
  halt
.align 64
in_word:
  .space 64
)");
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_EQ(Find(r, analysis::rules::kUnsyncStart), nullptr);
  EXPECT_TRUE(r.ok());
}

TEST(StaticRace, MonitorHandshakeIsCleanOnBothSides) {
  const analysis::LintResult r = LintSource(kHandshakeSource);
  EXPECT_EQ(Find(r, analysis::rules::kDataRace), nullptr);
  EXPECT_EQ(Find(r, analysis::rules::kUnsyncStart), nullptr);
  EXPECT_EQ(Find(r, analysis::rules::kLostWakeup), nullptr);
  EXPECT_EQ(Find(r, analysis::rules::kMonitorStoreRace), nullptr);
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------------------
// Dynamic tier: the vector-clock confirmer on real executions

struct DynamicResult {
  bool clean = false;
  std::vector<verify::RaceReport> reports;
  verify::Snapshot snapshot;
};

DynamicResult RunWithDetector(const std::string& source) {
  const Program p = MustAssemble(source);
  MachineConfig cfg;
  cfg.num_cores = 1;
  const std::vector<HarnessThread> threads = HarnessThreads(p);
  EXPECT_FALSE(threads.empty());
  verify::SimRun run(p, threads, cfg);
  verify::RaceDetector detector(run.machine().threads().num_threads());
  run.machine().SetConcurrencyObserver(&detector);
  DynamicResult out;
  out.snapshot = run.Run(1'000'000);
  EXPECT_TRUE(out.snapshot.quiesced);
  out.clean = detector.clean();
  out.reports.assign(detector.reports().begin(), detector.reports().end());
  return out;
}

TEST(DynamicRace, ConfirmsTheStaticDataRaceFixture) {
  const DynamicResult r = RunWithDetector(kRacySource);
  EXPECT_FALSE(r.clean);
  ASSERT_FALSE(r.reports.empty());
  const Program p = MustAssemble(kRacySource);
  const Addr shared = p.Symbol("shared");
  EXPECT_GE(r.reports.front().addr, shared);
  EXPECT_LT(r.reports.front().addr, shared + 8);
  EXPECT_TRUE(r.reports.front().prev.is_write);
  EXPECT_TRUE(r.reports.front().cur.is_write);
  EXPECT_NE(r.reports.front().prev.ptid, r.reports.front().cur.ptid);
}

TEST(DynamicRace, HandshakeRunsCleanAndDeliversThePayload) {
  const DynamicResult r = RunWithDetector(kHandshakeSource);
  EXPECT_TRUE(r.clean) << verify::RaceDetector::Format(r.reports.front(), nullptr);
  ASSERT_GT(r.snapshot.threads.size(), 0u);
  EXPECT_EQ(r.snapshot.threads[0].arch.gpr[24], 42u);  // payload observed
}

TEST(DynamicRace, StartPublishesParentWritesToTheChild) {
  const DynamicResult r = RunWithDetector(R"(
t0_entry:
t0_main:
  la r28, in_word
  li r29, 9
  sd r29, 0(r28)
  li r25, 1
  start r25
  halt
t1_entry:
  la r28, in_word
  ld r26, 0(r28)
  halt
.align 64
in_word:
  .space 64
)");
  EXPECT_TRUE(r.clean) << verify::RaceDetector::Format(r.reports.front(), nullptr);
}

TEST(DynamicRace, AtomicIncrementsAreExempt) {
  const DynamicResult r = RunWithDetector(R"(
t0_entry:
t0_main:
  la r28, ctr
  li r29, 1
  amoadd r3, r28, r29
  halt
t1_entry:
t1_main:
  la r28, ctr
  li r29, 1
  amoadd r3, r28, r29
  halt
.align 64
ctr:
  .space 64
)");
  EXPECT_TRUE(r.clean) << verify::RaceDetector::Format(r.reports.front(), nullptr);
}

TEST(DynamicRace, FormatNamesBothSites) {
  const DynamicResult r = RunWithDetector(kRacySource);
  ASSERT_FALSE(r.reports.empty());
  const Program p = MustAssemble(kRacySource);
  const std::string text = verify::RaceDetector::Format(r.reports.front(), &p);
  EXPECT_NE(text.find("race on"), std::string::npos);
  EXPECT_NE(text.find("line"), std::string::npos);  // symbolized via Program
}

// A detector sized short for the machine reports the ptids it was not
// built for instead of indexing past its clocks.
TEST(DynamicRace, PtidBeyondDetectorIsAReportedError) {
  verify::RaceDetector detector(2);
  detector.OnStore(2, 0x2000, 8, 0x1000);
  detector.OnThreadStart(0, 7);
  detector.OnThreadStop(9, 1);
  detector.OnLoad(2, 0x2000, 8, 0x1004);  // ptid 2 again: one error per ptid
  detector.OnMonitorArm(3, 0x2000);
  detector.OnMwaitReturn(3);
  detector.OnThreadDisabled(4);
  EXPECT_FALSE(detector.clean());
  EXPECT_TRUE(detector.reports().empty());
  ASSERT_EQ(detector.errors().size(), 5u);
  EXPECT_NE(detector.errors()[0].find("ptid 2 is beyond its 2 thread(s)"), std::string::npos);
  EXPECT_NE(detector.errors()[1].find("ptid 7"), std::string::npos);
  EXPECT_NE(detector.errors()[2].find("ptid 9"), std::string::npos);
  // Threads the detector was built for are still checked as before.
  detector.OnStore(0, 0x3000, 8, 0x1000);
  detector.OnStore(1, 0x3000, 8, 0x1008);
  EXPECT_EQ(detector.reports().size(), 1u);
}

// t0 declares t0_tdt but no t0_tdt_end. Under the one harness rule that is
// no TDT at all, so `start 1` goes through the supervisor identity map to
// ptid 1: the simulator runs t1, and the static tier must treat t1 as live
// too (a zero-size table would hide t1 and its race from lint).
const char kHalfTdtSource[] = R"(
t0_entry:
t0_main:
  li r25, 1
  start r25
  la r28, shared
  li r29, 7
  sd r29, 0(r28)
  halt
t1_entry:
  la r28, shared
  li r29, 8
  sd r29, 0(r28)
  halt
.align 64
t0_tdt:
  .space 64
.align 64
shared:
  .space 64
)";

TEST(HarnessAgreement, TdtWithoutEndReadsTheSameToLintAndSim) {
  const std::vector<HarnessThread> threads = HarnessThreads(MustAssemble(kHalfTdtSource));
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[0].tdtr, 0u);
  const analysis::LintResult lint = LintSource(kHalfTdtSource);
  const analysis::Diagnostic* race = Find(lint, analysis::rules::kDataRace);
  ASSERT_NE(race, nullptr);
  EXPECT_NE(race->message.find("t1 store"), std::string::npos) << race->message;
  const DynamicResult r = RunWithDetector(kHalfTdtSource);
  ASSERT_GT(r.snapshot.threads.size(), 1u);
  EXPECT_EQ(r.snapshot.threads[1].arch.gpr[29], 8u);  // t1 ran
  EXPECT_FALSE(r.clean);
}

}  // namespace
}  // namespace casc

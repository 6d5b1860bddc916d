// Tests for the hardware threading model: ptid state machine, TDT
// translation and permissions (Table 1), vtid cache + invtid, tiered context
// store, weighted scheduling queue, exception descriptors, and monitor/mwait
// integration.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hwt/context_store.h"
#include "src/hwt/exception.h"
#include "src/hwt/sched_queue.h"
#include "src/hwt/tdt.h"
#include "src/hwt/thread_system.h"
#include "src/mem/memory_system.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"

namespace casc {
namespace {

constexpr Addr kTdtBase = 0x20000;

class HwtTest : public ::testing::Test {
 protected:
  HwtTest() : sim_(3.0), mem_(sim_, MemConfig{}, 2), ts_(sim_, mem_, MakeConfig(), 2) {}

  static HwtConfig MakeConfig() {
    HwtConfig cfg;
    cfg.threads_per_core = 16;
    cfg.rf_slots = 4;
    cfg.l2_slots = 4;
    cfg.l3_slots = 4;
    return cfg;
  }

  // Installs a TDT for `issuer` with one entry: vtid 0 -> (target, perms).
  void InstallTdt(Ptid issuer, Ptid target, uint8_t perms, uint64_t size = 1) {
    TdtEntry{target, perms}.WriteTo(mem_, kTdtBase, 0);
    ts_.thread(issuer).arch().tdtr = kTdtBase;
    ts_.thread(issuer).arch().tdt_size = size;
  }

  Simulation sim_;
  MemorySystem mem_;
  ThreadSystem ts_;
};

TEST_F(HwtTest, ThreadsStartDisabled) {
  for (Ptid p = 0; p < ts_.num_threads(); p++) {
    EXPECT_EQ(ts_.thread(p).state(), ThreadState::kDisabled);
  }
  EXPECT_EQ(ts_.num_threads(), 32u);
  EXPECT_EQ(ts_.CoreOf(17), 1u);
  EXPECT_EQ(ts_.PtidOf(1, 1), 17u);
}

TEST_F(HwtTest, SupervisorIdentityStartStop) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  OpResult r = ts_.Start(0, 5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kRunnable);
  EXPECT_GT(r.latency, 0u);

  r = ts_.Stop(0, 5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kDisabled);
}

TEST_F(HwtTest, UserWithoutTdtCannotStart) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  const OpResult r = ts_.Start(1, 5);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(ts_.thread(1).state(), ThreadState::kDisabled);  // faulted
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kDisabled);
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kInvalidVtid));
  EXPECT_EQ(d.ptid, 1u);
}

TEST_F(HwtTest, TdtGrantsStartToUserThread) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermStart);
  const OpResult r = ts_.Start(1, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(ts_.thread(7).state(), ThreadState::kRunnable);
}

TEST_F(HwtTest, TdtDeniesStopWithoutPermission) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermStart);  // start only
  ts_.thread(7).set_state(ThreadState::kRunnable);
  const OpResult r = ts_.Stop(1, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(ts_.thread(7).state(), ThreadState::kRunnable);  // unaffected
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPermissionDenied));
}

TEST_F(HwtTest, NonHierarchicalPrivilege) {
  // §3.2: B may stop A, C may stop B, but C has no permission over A —
  // impossible with protection rings.
  const Ptid a = 4;
  const Ptid b = 5;
  const Ptid c = 6;
  for (Ptid p : {a, b, c}) {
    ts_.InitThread(p, 0x1000, /*supervisor=*/false, /*edp=*/0x30000 + p * 0x100);
    ts_.thread(p).set_state(ThreadState::kRunnable);
  }
  // B's TDT: vtid0 -> A (stop). C's TDT: vtid0 -> B (stop). Separate tables.
  TdtEntry{a, kPermStop}.WriteTo(mem_, 0x40000, 0);
  ts_.thread(b).arch().tdtr = 0x40000;
  ts_.thread(b).arch().tdt_size = 1;
  TdtEntry{b, kPermStop}.WriteTo(mem_, 0x41000, 0);
  ts_.thread(c).arch().tdtr = 0x41000;
  ts_.thread(c).arch().tdt_size = 1;

  EXPECT_TRUE(ts_.Stop(b, 0).ok);  // B stops A
  EXPECT_EQ(ts_.thread(a).state(), ThreadState::kDisabled);
  EXPECT_TRUE(ts_.Stop(c, 0).ok);  // C stops B
  EXPECT_EQ(ts_.thread(b).state(), ThreadState::kDisabled);
  // C's only vtid maps to B; it has no way to name A at all.
  EXPECT_FALSE(ts_.Start(c, 1).ok);  // out of table -> invalid vtid, C faults
}

TEST_F(HwtTest, RpullRpushOnDisabledTarget) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  ts_.thread(3).arch().pc = 0x2222;
  ts_.thread(3).WriteGpr(10, 77);

  OpResult r = ts_.Rpull(0, 3, 10);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 77u);
  r = ts_.Rpull(0, 3, static_cast<uint32_t>(RemoteReg::kPc));
  EXPECT_EQ(r.value, 0x2222u);

  EXPECT_TRUE(ts_.Rpush(0, 3, static_cast<uint32_t>(RemoteReg::kPc), 0x3333).ok);
  EXPECT_EQ(ts_.thread(3).arch().pc, 0x3333u);
  EXPECT_TRUE(ts_.Rpush(0, 3, 11, 88).ok);
  EXPECT_EQ(ts_.thread(3).ReadGpr(11), 88u);
}

TEST_F(HwtTest, RpullFaultsOnRunnableTarget) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true, /*edp=*/0x30000);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  ts_.thread(3).set_state(ThreadState::kRunnable);
  const OpResult r = ts_.Rpull(0, 3, 10);
  EXPECT_FALSE(r.ok);
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kTargetNotDisabled));
}

TEST_F(HwtTest, UserCannotRpushModeEvenWithModifyMost) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermAll);
  const OpResult r = ts_.Rpush(1, 0, static_cast<uint32_t>(RemoteReg::kMode), 1);
  EXPECT_FALSE(r.ok);
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPrivilegedInstruction));
}

TEST_F(HwtTest, UserNeedsModifyMostForPcWrite) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermStart | kPermStop | kPermModifySome);
  // GPR write allowed.
  EXPECT_TRUE(ts_.Rpush(1, 0, 12, 5).ok);
  // PC write requires modify-most.
  EXPECT_FALSE(ts_.Rpush(1, 0, static_cast<uint32_t>(RemoteReg::kPc), 0x9999).ok);
}

TEST_F(HwtTest, VtidCacheHitsAfterWalkAndInvtidInvalidates) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  InstallTdt(0, /*target=*/7, kPermAll, /*size=*/4);

  Tick lat1 = 0;
  const Translation t1 = ts_.Translate(0, 0, &lat1);
  ASSERT_TRUE(t1.valid);
  EXPECT_FALSE(t1.cache_hit);
  EXPECT_GT(lat1, kVtidCacheHitCycles);  // memory walk

  Tick lat2 = 0;
  const Translation t2 = ts_.Translate(0, 0, &lat2);
  EXPECT_TRUE(t2.cache_hit);
  EXPECT_EQ(lat2, kVtidCacheHitCycles);

  // Repoint the entry; stale until invtid.
  TdtEntry{9, kPermAll}.WriteTo(mem_, kTdtBase, 0);
  Tick lat3 = 0;
  EXPECT_EQ(ts_.Translate(0, 0, &lat3).ptid, 7u);  // stale hit
  // invtid names the thread whose cache is flushed; install a self-mapping
  // at vtid 1 so the issuer can invalidate its own entry 0.
  TdtEntry{0, kPermAll}.WriteTo(mem_, kTdtBase, 1);
  EXPECT_TRUE(ts_.Invtid(0, 1, 0).ok);
  Tick lat4 = 0;
  const Translation t4 = ts_.Translate(0, 0, &lat4);
  EXPECT_EQ(t4.ptid, 9u);
  EXPECT_FALSE(t4.cache_hit);
}

TEST_F(HwtTest, MonitorMwaitWakeOnDma) {
  ts_.InitThread(2, 0x1000, /*supervisor=*/false);
  ts_.thread(2).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.Monitor(2, 0x8000).ok);
  const auto mw = ts_.Mwait(2);
  EXPECT_TRUE(mw.blocked);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kWaiting);

  const uint64_t pkt = 1;
  mem_.DmaWrite(0x8000, &pkt, 8);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kRunnable);
  EXPECT_GE(ts_.thread(2).ready_at(), sim_.now());
}

TEST_F(HwtTest, MwaitReturnsImmediatelyIfWriteRacedAhead) {
  ts_.InitThread(2, 0x1000, /*supervisor=*/false);
  ts_.thread(2).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.Monitor(2, 0x8000).ok);
  const uint64_t pkt = 1;
  mem_.DmaWrite(0x8000, &pkt, 8);  // write lands between monitor and mwait
  const auto mw = ts_.Mwait(2);
  EXPECT_FALSE(mw.blocked);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kRunnable);
}

TEST_F(HwtTest, StartWakesWaitingThread) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  ts_.InitThread(2, 0x1000, /*supervisor=*/false);
  ts_.thread(2).set_state(ThreadState::kRunnable);
  ASSERT_TRUE(ts_.Monitor(2, 0x8000).ok);
  ASSERT_TRUE(ts_.Mwait(2).blocked);
  EXPECT_TRUE(ts_.Start(0, 2).ok);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kRunnable);
}

TEST_F(HwtTest, CrossCoreStartAddsInterconnectDelay) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  const Ptid remote = ts_.PtidOf(1, 0);
  sim_.queue().RunUntil(100);
  EXPECT_TRUE(ts_.Start(0, remote).ok);
  EXPECT_GE(ts_.thread(remote).ready_at(), 100 + kRemoteStartCycles);
}

TEST_F(HwtTest, ExceptionWithoutEdpHaltsMachine) {
  ts_.InitThread(3, 0x1000, /*supervisor=*/false, /*edp=*/0);
  ts_.thread(3).set_state(ThreadState::kRunnable);
  ts_.RaiseException(3, ExceptionType::kDivideByZero, 0, 0);
  EXPECT_TRUE(ts_.halted());
  EXPECT_NE(ts_.halt_reason().find("divide-by-zero"), std::string::npos);
  // The structured halt record carries the same story as the string.
  EXPECT_EQ(ts_.halt_info().reason, HaltReason::kUnhandledException);
  EXPECT_EQ(ts_.halt_info().exception, ExceptionType::kDivideByZero);
  EXPECT_EQ(ts_.halt_info().ptid, 3u);
  EXPECT_EQ(ts_.halt_info().chain_depth, 0u);
}

TEST_F(HwtTest, ExceptionChainEndsAtThreadWithoutHandler) {
  // A faults -> B handles; B faults -> C handles; C faults -> halt (§3.2).
  ts_.InitThread(4, 0x1000, false, /*edp=*/0x30000);
  ts_.InitThread(5, 0x1000, false, /*edp=*/0x30100);
  ts_.InitThread(6, 0x1000, false, /*edp=*/0);
  for (Ptid p : {4u, 5u, 6u}) {
    ts_.thread(p).set_state(ThreadState::kRunnable);
  }
  ts_.RaiseException(4, ExceptionType::kDivideByZero, 0, 0);
  sim_.queue().RunAll();
  EXPECT_FALSE(ts_.halted());
  EXPECT_EQ(ExceptionDescriptor::ReadFrom(mem_, 0x30000).ptid, 4u);

  ts_.RaiseException(5, ExceptionType::kPageFault, 0xdead, 0);
  sim_.queue().RunAll();
  EXPECT_FALSE(ts_.halted());
  EXPECT_EQ(ExceptionDescriptor::ReadFrom(mem_, 0x30100).ptid, 5u);

  ts_.RaiseException(6, ExceptionType::kDivideByZero, 0, 0);
  EXPECT_TRUE(ts_.halted());
}

TEST_F(HwtTest, ExceptionDescriptorWakesMonitoringHandler) {
  ts_.InitThread(4, 0x1000, false, /*edp=*/0x30000);
  ts_.thread(4).set_state(ThreadState::kRunnable);
  ts_.InitThread(5, 0x2000, true);
  ts_.thread(5).set_state(ThreadState::kRunnable);
  ASSERT_TRUE(ts_.Monitor(5, 0x30000).ok);
  ASSERT_TRUE(ts_.Mwait(5).blocked);

  ts_.RaiseException(4, ExceptionType::kPageFault, 0xbeef, 0);
  sim_.queue().RunAll();
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kRunnable);
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.addr, 0xbeefu);
  EXPECT_EQ(d.seq, 1u);
}

TEST_F(HwtTest, DescriptorWriteFaultEscalatesToWatcher) {
  // The faulter's EDP page is unwritable, so the descriptor write itself
  // faults. The thread monitoring that EDP line is the handler that would
  // have serviced the fault — it becomes the next faulting party and takes a
  // page-fault descriptor naming the undeliverable EDP, with the original
  // faulter in errcode.
  ts_.InitThread(4, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(4).set_state(ThreadState::kRunnable);
  ts_.InitThread(5, 0x2000, /*supervisor=*/true, /*edp=*/0x30100);
  ts_.thread(5).set_state(ThreadState::kRunnable);
  ASSERT_TRUE(ts_.Monitor(5, 0x30000).ok);
  ASSERT_TRUE(ts_.Mwait(5).blocked);
  mem_.AddUnwritableRange(0x30000, ExceptionDescriptor::kBytes);

  ts_.RaiseException(4, ExceptionType::kDivideByZero, 0, 0);
  sim_.queue().RunAll();
  EXPECT_FALSE(ts_.halted());
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30100);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPageFault));
  EXPECT_EQ(d.ptid, 5u);
  EXPECT_EQ(d.addr, 0x30000u);   // the EDP the fabric refused to write
  EXPECT_EQ(d.errcode, 4u);      // the original faulter
  EXPECT_EQ(ts_.thread(4).state(), ThreadState::kDisabled);
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kDisabled);
  EXPECT_EQ(sim_.stats().GetCounter("hwt.exception_escalations"), 1u);
}

TEST_F(HwtTest, DescriptorWriteFaultWithNoWatcherHaltsCleanly) {
  // Unwritable EDP and nobody monitoring the line: the escalation walk has
  // nowhere to go, so the machine halts with a reportable reason — no
  // assertion, no silent wedge.
  ts_.InitThread(4, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(4).set_state(ThreadState::kRunnable);
  mem_.AddUnwritableRange(0x30000, ExceptionDescriptor::kBytes);

  ts_.RaiseException(4, ExceptionType::kDivideByZero, 0, 0);
  sim_.queue().RunAll();
  EXPECT_TRUE(ts_.halted());
  EXPECT_EQ(ts_.halt_info().reason, HaltReason::kHandlerChainExhausted);
  EXPECT_EQ(ts_.halt_info().ptid, 4u);
  EXPECT_EQ(ts_.halt_info().chain_depth, 1u);
  EXPECT_NE(ts_.halt_reason().find("handler chain exhausted"), std::string::npos);
}

TEST_F(HwtTest, EscalationChainTerminatesWhenEveryEdpIsUnwritable) {
  // A three-deep handler chain where every EDP page is unwritable: each
  // escalation step disables one watcher (tearing down its watches), so the
  // walk provably runs out of watchers and halts instead of looping.
  ts_.InitThread(4, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.InitThread(5, 0x2000, /*supervisor=*/true, /*edp=*/0x30100);
  ts_.InitThread(6, 0x3000, /*supervisor=*/true, /*edp=*/0x30200);
  for (Ptid p : {4u, 5u, 6u}) {
    ts_.thread(p).set_state(ThreadState::kRunnable);
  }
  ASSERT_TRUE(ts_.Monitor(5, 0x30000).ok);
  ASSERT_TRUE(ts_.Mwait(5).blocked);
  ASSERT_TRUE(ts_.Monitor(6, 0x30100).ok);
  ASSERT_TRUE(ts_.Mwait(6).blocked);
  for (Addr edp : {Addr{0x30000}, Addr{0x30100}, Addr{0x30200}}) {
    mem_.AddUnwritableRange(edp, ExceptionDescriptor::kBytes);
  }

  ts_.RaiseException(4, ExceptionType::kPageFault, 0xdead, 0);
  sim_.queue().RunAll();
  EXPECT_TRUE(ts_.halted());
  EXPECT_EQ(ts_.halt_info().reason, HaltReason::kHandlerChainExhausted);
  EXPECT_EQ(ts_.halt_info().chain_depth, 3u);
  for (Ptid p : {4u, 5u, 6u}) {
    EXPECT_EQ(ts_.thread(p).state(), ThreadState::kDisabled);
  }
  EXPECT_EQ(sim_.stats().GetCounter("hwt.exception_escalations"), 3u);
}

TEST_F(HwtTest, CsrPrivilegeEnforced) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.ReadCsr(1, Csr::kPtid).ok);
  EXPECT_EQ(ts_.ReadCsr(1, Csr::kPtid).value, 1u);
  const OpResult r = ts_.WriteCsr(1, Csr::kMode, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(ts_.thread(1).state(), ThreadState::kDisabled);

  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.WriteCsr(0, Csr::kPrio, 8).ok);
  EXPECT_EQ(ts_.thread(0).arch().prio, 8u);
}

TEST_F(HwtTest, TouchRepeatedMatchesRepeatedTouch) {
  // rf_slots = 4: ptids 0-3 are register-file resident, 5 and 9 are not.
  std::vector<HwThread*> order = {&ts_.thread(2), &ts_.thread(5), &ts_.thread(0),
                                  &ts_.thread(9), &ts_.thread(3)};
  for (const uint64_t k : {1u, 2u, 7u, 100u}) {
    ContextStore bulk = ts_.store(0);
    ContextStore stepped = ts_.store(0);
    bulk.TouchRepeated(k, order.data(), order.size());
    for (uint64_t i = 0; i < k; i++) {
      for (HwThread* t : order) {
        stepped.Touch(*t);
      }
    }
    for (Ptid p = 0; p < 16; p++) {
      EXPECT_EQ(bulk.lru_stamp(p), stepped.lru_stamp(p)) << "k " << k << " ptid " << p;
    }
    // The use-clock moved the same way too: the next touch stamps equal.
    bulk.Touch(ts_.thread(1));
    stepped.Touch(ts_.thread(1));
    EXPECT_EQ(bulk.lru_stamp(1), stepped.lru_stamp(1)) << "k " << k;
  }
}

TEST_F(HwtTest, ContextStoreTiersByOccupancy) {
  // rf_slots=4, l2=4, l3=4, 16 threads/core: the first 4 admit to RF, then
  // spill L2 (4), L3 (4), DRAM (rest).
  ContextStore& store = ts_.store(0);
  EXPECT_EQ(store.rf_occupancy(), 4u);
  EXPECT_EQ(ts_.thread(0).tier(), StorageTier::kRegFile);
  EXPECT_EQ(ts_.thread(4).tier(), StorageTier::kL2);
  EXPECT_EQ(ts_.thread(8).tier(), StorageTier::kL3);
  EXPECT_EQ(ts_.thread(12).tier(), StorageTier::kDram);
}

TEST_F(HwtTest, RestoreLatencyOrderedByTier) {
  ContextStore& store = ts_.store(0);
  const Tick rf = store.RestoreLatency(ts_.thread(0));
  const Tick l2 = store.RestoreLatency(ts_.thread(4));
  const Tick l3 = store.RestoreLatency(ts_.thread(8));
  const Tick dram = store.RestoreLatency(ts_.thread(12));
  EXPECT_EQ(rf, kPipelineRestoreCycles);
  EXPECT_LE(rf, l2);
  EXPECT_LT(l2, l3);
  EXPECT_LT(l3, dram);
  // §4 numbers: RF ~20 cycles; L2/L3 in the 10-50 cycle range.
  EXPECT_LE(l3, 60u);
}

TEST_F(HwtTest, WakePromotesToRegFileAndEvictsLru) {
  // Wake a DRAM-resident thread; it should land in the RF, evicting an
  // unpinned disabled thread.
  const Ptid cold = 12;
  EXPECT_EQ(ts_.thread(cold).tier(), StorageTier::kDram);
  ts_.InitThread(cold, 0x1000, false);
  ts_.MakeRunnable(cold);
  EXPECT_EQ(ts_.thread(cold).tier(), StorageTier::kRegFile);
  EXPECT_EQ(ts_.store(0).rf_occupancy(), 4u);
  EXPECT_GT(ts_.thread(cold).ready_at(), sim_.now());
}

TEST_F(HwtTest, PinnedThreadsAreNotEvicted) {
  for (Ptid p = 0; p < 4; p++) {
    ts_.thread(p).set_pinned(true);
  }
  const Ptid cold = 12;
  ts_.MakeRunnable(cold);
  // No eviction possible: the thread stays in DRAM and pays that latency.
  EXPECT_EQ(ts_.thread(cold).tier(), StorageTier::kDram);
}

TEST_F(HwtTest, WakeVictimSpillsIntoFreedTierSlot) {
  // Regression: rf/l2/l3 = 4/4/4 with 16 threads means both spill tiers start
  // full. Waking the L2-resident thread 4 frees its L2 slot; the evicted RF
  // victim must reuse exactly that slot. The old code released the waker's
  // slot only after picking the victim's spill tier, so the victim saw a full
  // L2/L3 and dropped all the way to DRAM.
  ContextStore& store = ts_.store(0);
  ASSERT_EQ(ts_.thread(4).tier(), StorageTier::kL2);
  ASSERT_EQ(store.l2_used(), 4u);
  ASSERT_EQ(store.l3_used(), 4u);
  store.EnsureResident(ts_.thread(4));
  EXPECT_EQ(ts_.thread(4).tier(), StorageTier::kRegFile);
  EXPECT_EQ(ts_.thread(0).tier(), StorageTier::kL2);  // LRU victim took the freed slot
  EXPECT_EQ(store.l2_used(), 4u);
  EXPECT_EQ(store.l3_used(), 4u);
}

TEST_F(HwtTest, TierSlotAccountingStaysBoundedAcrossWakes) {
  ContextStore& store = ts_.store(0);
  // Wake every spilled thread in turn. Each wake frees at most one slot and
  // the victim takes it straight back, so the counters must never exceed
  // capacity and must end exactly full.
  for (Ptid p = 4; p < 16; p++) {
    store.EnsureResident(ts_.thread(p));
    EXPECT_LE(store.l2_used(), 4u);
    EXPECT_LE(store.l3_used(), 4u);
    EXPECT_EQ(store.rf_occupancy(), 4u);
  }
  EXPECT_EQ(store.l2_used(), 4u);
  EXPECT_EQ(store.l3_used(), 4u);
}

TEST_F(HwtTest, AllPinnedWakeKeepsSlotAccounting) {
  // Regression: when every RF thread is pinned the waker keeps its tier, so
  // the slot released up front must be re-acquired. The old code leaked it,
  // draining l2_used() one wake at a time until the counter underflowed.
  ContextStore& store = ts_.store(0);
  for (Ptid p = 0; p < 4; p++) {
    ts_.thread(p).set_pinned(true);
  }
  for (int i = 0; i < 3; i++) {
    store.EnsureResident(ts_.thread(4));
    EXPECT_EQ(ts_.thread(4).tier(), StorageTier::kL2);
    EXPECT_EQ(store.l2_used(), 4u);
  }
  EXPECT_EQ(store.rf_occupancy(), 4u);
  EXPECT_EQ(store.l3_used(), 4u);
}

TEST_F(HwtTest, DirtyTrackingShrinksTransfer) {
  // A thread that used few registers restores faster than the full-state
  // transfer when dirty tracking is on.
  HwThread& sparse = ts_.thread(4);  // L2 tier
  sparse.ResetUsedRegs();
  sparse.MarkRegUsed(1);
  const Tick with_tracking = ts_.store(0).RestoreLatency(sparse);

  HwtConfig cfg2 = MakeConfig();
  cfg2.dirty_register_tracking = false;
  Simulation sim2;
  MemorySystem mem2(sim2, MemConfig{}, 1);
  ThreadSystem ts2(sim2, mem2, cfg2, 1);
  const Tick without_tracking = ts2.store(0).RestoreLatency(ts2.thread(4));
  EXPECT_LT(with_tracking, without_tracking);
}

TEST(SchedQueueTest, RoundRobinRotates) {
  Simulation sim;
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread c(2, 0);
  for (HwThread* t : {&a, &b, &c}) {
    t->set_state(ThreadState::kRunnable);
  }
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  q.Add(&c);
  std::vector<HwThread*> picked;
  std::vector<Ptid> heads;
  for (int i = 0; i < 6; i++) {
    q.PickUpTo(100, 1, &picked);
    ASSERT_EQ(picked.size(), 1u);
    heads.push_back(picked[0]->ptid());
  }
  EXPECT_EQ(heads, (std::vector<Ptid>{0, 1, 2, 0, 1, 2}));
}

TEST(SchedQueueTest, WeightedShareFollowsPrio) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  a.set_state(ThreadState::kRunnable);
  b.set_state(ThreadState::kRunnable);
  a.arch().prio = 3;
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  int a_picks = 0;
  std::vector<HwThread*> picked;
  for (int i = 0; i < 400; i++) {
    q.PickUpTo(100, 1, &picked);
    ASSERT_EQ(picked.size(), 1u);
    a_picks += picked[0]->ptid() == 0 ? 1 : 0;
  }
  EXPECT_EQ(a_picks, 300);  // 3:1 share
}

TEST(SchedQueueTest, SmtWidthPicksDistinctThreads) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  a.set_state(ThreadState::kRunnable);
  b.set_state(ThreadState::kRunnable);
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  std::vector<HwThread*> picked;
  q.PickUpTo(0, 2, &picked);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_NE(picked[0]->ptid(), picked[1]->ptid());
}

TEST(SchedQueueTest, SkipsThreadsStillRestoring) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  a.set_state(ThreadState::kRunnable);
  b.set_state(ThreadState::kRunnable);
  a.set_ready_at(50);
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  std::vector<HwThread*> picked;
  q.PickUpTo(10, 2, &picked);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->ptid(), 1u);
  q.PickUpTo(50, 2, &picked);
  EXPECT_EQ(picked.size(), 2u);
}

// PickAllFor(k, at) is k full PickUpTo calls in closed form: same last-pick
// order, and the same cursor and credits afterwards (probed by one-wide
// picks). Starts are randomized with partial credits, including on slots
// the cursor skipped while their thread was not ready.
TEST(SchedQueueTest, PickAllForMatchesRepeatedPicks) {
  Rng rng(11);
  for (int iter = 0; iter < 2000; iter++) {
    const uint32_t n = static_cast<uint32_t>(rng.NextRange(1, 4));
    std::vector<std::unique_ptr<HwThread>> threads;
    SchedQueue q;
    for (uint32_t i = 0; i < n; i++) {
      threads.push_back(std::make_unique<HwThread>(i, 0));
      threads.back()->set_state(ThreadState::kRunnable);
      threads.back()->arch().prio = rng.NextRange(1, 4);
      q.Add(threads.back().get());
    }
    // Warm-up: picks at ticks where some threads are still not ready.
    std::vector<HwThread*> picked;
    const uint64_t warm = rng.NextBounded(12);
    for (uint64_t w = 0; w < warm; w++) {
      for (auto& t : threads) {
        t->set_ready_at(rng.NextBounded(3) == 0 ? 1 : 0);
      }
      q.PickUpTo(0, n, &picked);
    }
    for (auto& t : threads) {
      t->set_ready_at(0);
    }
    const uint64_t k = rng.NextRange(1, 60);
    SchedQueue stepped = q;
    std::vector<HwThread*> last;
    for (uint64_t i = 0; i < k; i++) {
      stepped.PickUpTo(0, n, &last);
    }
    std::vector<HwThread*> bulk(n);
    ASSERT_EQ(q.PickAllFor(k, 0, bulk.data()), n);
    ASSERT_EQ(bulk, last) << "iter " << iter;
    std::vector<HwThread*> a;
    std::vector<HwThread*> b;
    for (int i = 0; i < 24; i++) {
      q.PickUpTo(0, 1, &a);
      stepped.PickUpTo(0, 1, &b);
      ASSERT_EQ(a, b) << "iter " << iter << " probe " << i;
    }
  }
}

TEST(SchedQueueTest, PickAllForAfterSkippedSlot) {
  // c takes one of its 3 credits and is then skipped while not ready, so the
  // cursor lands on a with c still holding 2. From there the picks run a's
  // and b's turns, c's partial turn, then 6-pick periods (a2 b1 c3). Seven
  // picks end on c's full turn; reducing by the period before c's partial
  // turn was taken would end on b's.
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread c(2, 0);
  a.arch().prio = 2;
  b.arch().prio = 1;
  c.arch().prio = 3;
  SchedQueue q;
  for (HwThread* t : {&a, &b, &c}) {
    t->set_state(ThreadState::kRunnable);
    q.Add(t);
  }
  std::vector<HwThread*> picked;
  a.set_ready_at(1);
  b.set_ready_at(1);
  q.PickUpTo(0, 3, &picked);  // head c: 3 -> 2 credits
  ASSERT_EQ(picked, (std::vector<HwThread*>{&c}));
  c.set_ready_at(2);
  q.PickUpTo(1, 3, &picked);  // c skipped: head a, 2 -> 1 credits
  ASSERT_EQ(picked, (std::vector<HwThread*>{&a, &b}));
  SchedQueue stepped = q;
  for (int i = 0; i < 7; i++) {
    stepped.PickUpTo(2, 3, &picked);
  }
  HwThread* out[3];
  ASSERT_EQ(q.PickAllFor(7, 2, out), 3u);
  EXPECT_EQ(std::vector<HwThread*>(out, out + 3), picked);
  EXPECT_EQ(picked, (std::vector<HwThread*>{&b, &c, &a}));  // b's pick handed on to c
  std::vector<HwThread*> x;
  std::vector<HwThread*> y;
  for (int i = 0; i < 8; i++) {
    q.PickUpTo(2, 1, &x);
    stepped.PickUpTo(2, 1, &y);
    EXPECT_EQ(x, y) << "probe " << i;
  }
  EXPECT_EQ(x, (std::vector<HwThread*>{&c}));  // probes c c c a a b c c
}

// PickAllFor(k, at) with threads in the rotation that are not ready at `at`
// (waiting on a latency, as in a quiet stretch beside a load) is k
// PickUpTo(at, width) calls that skip their slots: same last-pick order, and
// the same cursor and credits afterwards (probed by one-wide picks with
// every thread ready, which also exposes a skipped slot's partial credits).
// Warm-ups with random ready sets leave the cursor parked on a waiting slot
// and partial credits on slots the cursor skipped.
TEST(SchedQueueTest, PickAllForSkipsSlotsNotReady) {
  constexpr Tick kAt = 10;
  constexpr Tick kLater = 1000;  // ready_at of a waiting thread
  Rng rng(23);
  uint64_t parked_on_waiting = 0;
  uint64_t parked_partial = 0;
  for (int iter = 0; iter < 4000; iter++) {
    const uint32_t n = static_cast<uint32_t>(rng.NextRange(1, 6));
    std::vector<std::unique_ptr<HwThread>> threads;
    SchedQueue q;
    for (uint32_t i = 0; i < n; i++) {
      threads.push_back(std::make_unique<HwThread>(i, 0));
      threads.back()->set_state(ThreadState::kRunnable);
      threads.back()->arch().prio = rng.NextRange(1, 4);
      q.Add(threads.back().get());
    }
    std::vector<HwThread*> picked;
    const uint64_t warm = rng.NextBounded(12);
    for (uint64_t w = 0; w < warm; w++) {
      for (auto& t : threads) {
        t->set_ready_at(rng.NextBounded(2) == 0 ? kLater : 0);
      }
      q.PickUpTo(kAt, static_cast<uint32_t>(rng.NextRange(1, n)), &picked);
    }
    // The stretch's ready set: at least one thread, the rest waiting.
    uint32_t nready = 0;
    for (auto& t : threads) {
      const bool ready = rng.NextBounded(3) != 0;
      t->set_ready_at(ready ? rng.NextBounded(kAt + 1) : kLater);
      nready += ready;
    }
    if (nready == 0) {
      threads[rng.NextBounded(n)]->set_ready_at(kAt);
      nready = 1;
    }
    {
      SchedQueue probe = q;
      probe.PickUpTo(kLater, 1, &picked);
      if (picked[0]->ready_at() > kAt) {
        parked_on_waiting++;
        uint64_t run = 1;
        std::vector<HwThread*> next;
        while (probe.PickUpTo(kLater, 1, &next), next == picked) {
          run++;
        }
        parked_partial += run < picked[0]->arch().prio;
      }
    }
    const uint32_t width = static_cast<uint32_t>(rng.NextRange(nready, n));
    const uint64_t k = rng.NextRange(1, 60);
    SchedQueue stepped = q;
    std::vector<HwThread*> last;
    for (uint64_t i = 0; i < k; i++) {
      stepped.PickUpTo(kAt, width, &last);
    }
    std::vector<HwThread*> bulk(n);
    bulk.resize(q.PickAllFor(k, kAt, bulk.data()));
    ASSERT_EQ(bulk, last) << "iter " << iter;
    std::vector<HwThread*> a;
    std::vector<HwThread*> b;
    for (int i = 0; i < 32; i++) {
      q.PickUpTo(kLater, 1, &a);
      stepped.PickUpTo(kLater, 1, &b);
      ASSERT_EQ(a, b) << "iter " << iter << " probe " << i;
    }
  }
  // The sweep really starts stretches with the cursor on a waiting slot,
  // some of them holding partial credits.
  EXPECT_GT(parked_on_waiting, 500u);
  EXPECT_GT(parked_partial, 200u);
}

TEST(SchedQueueTest, FrontInsertPreempts) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread critical(2, 0);
  for (HwThread* t : {&a, &b, &critical}) {
    t->set_state(ThreadState::kRunnable);
  }
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  std::vector<HwThread*> picked;
  q.PickUpTo(0, 1, &picked);  // cursor advances past a
  q.Add(&critical, /*front=*/true);
  q.PickUpTo(0, 1, &picked);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->ptid(), 2u);
}

TEST(SchedQueueTest, RemoveKeepsRotationConsistent) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread c(2, 0);
  for (HwThread* t : {&a, &b, &c}) {
    t->set_state(ThreadState::kRunnable);
  }
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  q.Add(&c);
  std::vector<HwThread*> picked;
  q.PickUpTo(0, 1, &picked);  // a
  q.Remove(1);
  q.PickUpTo(0, 1, &picked);
  EXPECT_EQ(picked[0]->ptid(), 2u);
  q.PickUpTo(0, 1, &picked);
  EXPECT_EQ(picked[0]->ptid(), 0u);
  EXPECT_EQ(q.Size(), 2u);
}

TEST_F(HwtTest, DemandRestoreWithoutPrefetch) {
  HwtConfig cfg = MakeConfig();
  cfg.prefetch_on_wake = false;
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  ThreadSystem ts(sim, mem, cfg, 1);
  const Ptid cold = 12;  // DRAM tier
  ts.InitThread(cold, 0x1000, false);
  ts.MakeRunnable(cold);
  EXPECT_TRUE(ts.NeedsRestore(cold));
  EXPECT_EQ(ts.thread(cold).ready_at(), sim.now());  // looks ready until picked
  ts.BeginDemandRestore(cold);
  EXPECT_FALSE(ts.NeedsRestore(cold));
  EXPECT_GT(ts.thread(cold).ready_at(), sim.now());
}

TEST_F(HwtTest, WakeHookFires) {
  int wakes = 0;
  ts_.SetWakeHook(0, [&] { wakes++; });
  ts_.InitThread(3, 0x1000, false);
  ts_.MakeRunnable(3);
  EXPECT_EQ(wakes, 1);
}

TEST_F(HwtTest, MonitorOverflowRaisesException) {
  HwtConfig cfg = MakeConfig();
  Simulation sim;
  MemConfig mc;
  mc.monitor.max_watches_per_thread = 1;
  MemorySystem mem(sim, mc, 1);
  ThreadSystem ts(sim, mem, cfg, 1);
  ts.InitThread(2, 0x1000, false, /*edp=*/0x30000);
  ts.thread(2).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts.Monitor(2, 0x8000).ok);
  EXPECT_FALSE(ts.Monitor(2, 0x9000).ok);
  EXPECT_EQ(ts.thread(2).state(), ThreadState::kDisabled);
}

}  // namespace
}  // namespace casc

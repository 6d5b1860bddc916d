#include "src/chaos/scenarios.h"

#include <cstring>
#include <sstream>

#include "src/dev/apic_timer.h"
#include "src/dev/block_dev.h"
#include "src/dev/fabric.h"
#include "src/dev/msix.h"
#include "src/dev/nic.h"
#include "src/runtime/recovery.h"
#include "src/workload/loadgen.h"

namespace casc {
namespace {

InjectionSchedule PickSchedule(const ScenarioOptions& opts, InjectionSchedule fallback) {
  return opts.has_schedule ? opts.schedule : fallback;
}

// Records the first failed expectation; ok = none failed.
void Expect(ScenarioOutcome& out, bool cond, const char* what) {
  if (!cond && out.why_not_ok.empty()) {
    out.why_not_ok = what;
  }
}

void FillCommon(ScenarioOutcome& out, Machine& machine, ChaosEngine& engine, FaultClass cls,
                ThreadTracer& tracer, bool want_trace) {
  engine.FinishRun();
  out.injected = engine.injected(cls);
  out.detected = engine.detected(cls);
  out.recovered = engine.recovered(cls);
  for (const ChaosEngine::FaultRecord& r : engine.records()) {
    if (r.cls != cls) {
      continue;
    }
    if (r.detected_at != 0) {
      out.detect_cycles.Record(r.detected_at - r.injected_at);
    }
    if (r.recovered_at != 0) {
      out.recovery_cycles.Record(r.recovered_at - r.injected_at);
    }
  }
  out.halted = machine.halted();
  out.halt_why = machine.halt_why();
  out.halt_reason = machine.halt_reason();
  std::ostringstream stats;
  machine.sim().stats().DumpJson(stats);
  out.stats_json = stats.str();
  if (want_trace) {
    std::ostringstream trace;
    tracer.DumpChromeTrace(trace, machine.config().ghz);
    out.trace_json = trace.str();
  }
}

// The common tail expectations for the non-halting classes. A fault injected
// in the final instants of the run may legitimately still be in flight at
// cutoff, hence the one-fault slack on detection/recovery.
void ExpectRecovering(ScenarioOutcome& out) {
  Expect(out, out.injected >= 1, "no faults injected");
  Expect(out, out.detected >= 1, "no fault was detected");
  Expect(out, out.detected + 1 >= out.injected, "undetected faults beyond the in-flight one");
  Expect(out, out.recovered >= 1, "no fault was recovered from");
  Expect(out, out.recovered + 1 >= out.injected, "unrecovered faults beyond the in-flight one");
  Expect(out, !out.halted, "machine halted unexpectedly");
}

// ---------------------------------------------------------------------------
// nic-dma-bad-addr: RX payload DMA redirected into an unwritable hole. The
// tail counter still advances, so the server sees a frame slot whose payload
// never landed; its integrity check (id/~id) detects the loss and the next
// good frame proves the datapath recovered. Lost requests are reaped by a
// per-request timeout sweep.
// ---------------------------------------------------------------------------
ScenarioOutcome RunNicScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kNicDmaBadAddr);

  constexpr Addr kMmio = 0xf0000000;
  constexpr Addr kRing = 0x40000;
  constexpr Addr kTail = 0x48000;
  constexpr Addr kBufBase = 0x50000;
  constexpr uint64_t kRingSize = 32;
  constexpr uint64_t kBufStride = 2048;
  constexpr Tick kGap = 2'500;      // inter-frame gap
  constexpr Tick kTimeout = 60'000; // per-request deadline

  MachineConfig mc;
  mc.seed = opts.seed;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  Simulation& sim = machine.sim();
  Nic nic(sim, machine.mem(), NicConfig{});

  ChaosEngine engine(machine, opts.seed);
  engine.AttachNic(&nic);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kNicDmaBadAddr;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(3));
  campaign.max_faults = opts.faults;
  engine.AddCampaign(campaign);
  engine.Arm();

  LatencyRecorder recorder;
  struct ServerState {
    uint64_t head = 0;
    uint64_t bad = 0;
  };
  ServerState srv;

  NativeProgram server = [&](GuestContext& ctx) -> GuestTask {
    // Post the full ring, then program the device.
    for (uint64_t i = 0; i < kRingSize; i++) {
      const Addr d = kRing + i * NicDescriptor::kBytes;
      co_await ctx.Store(d, kBufBase + i * kBufStride, 8);
      co_await ctx.Store(d + 8, kBufStride, 4);
      co_await ctx.Store(d + 12, 0, 4);
    }
    co_await ctx.Store(kMmio + kNicRxBase, kRing, 8);
    co_await ctx.Store(kMmio + kNicRxSize, kRingSize, 8);
    co_await ctx.Store(kMmio + kNicRxTailAddr, kTail, 8);
    for (;;) {
      co_await ctx.Monitor(kTail);
      const uint64_t tail = co_await ctx.Load(kTail, 8);
      if (tail == srv.head) {
        co_await ctx.Mwait();
        continue;
      }
      while (srv.head < tail) {
        const Addr buf = kBufBase + (srv.head % kRingSize) * kBufStride;
        const uint64_t id = co_await ctx.Load(buf, 8);
        const uint64_t chk = co_await ctx.Load(buf + 8, 8);
        co_await ctx.Compute(200);  // per-request service work
        if (id != 0 && chk == ~id) {
          recorder.OnReceive(id, sim.now());
          engine.NoteRecovered(FaultClass::kNicDmaBadAddr, sim.now());
        } else {
          srv.bad++;
          engine.NoteDetected(FaultClass::kNicDmaBadAddr, sim.now());
        }
        // Scrub the slot: a later frame whose payload DMA vanished must read
        // zeros here, not this frame's stale contents.
        co_await ctx.Store(buf, 0, 8);
        co_await ctx.Store(buf + 8, 0, 8);
        srv.head++;
        co_await ctx.Store(kMmio + kNicRxHead, srv.head, 8);
      }
    }
  };
  machine.Start(machine.BindNative(0, 0, server, /*supervisor=*/true));

  // Client side: fixed-rate frames carrying (id, ~id), plus a timeout sweep.
  uint64_t next_id = 1;
  LambdaEvent<std::function<void()>> inject_ev([&] {
    std::vector<uint8_t> frame(16);
    const uint64_t id = next_id++;
    const uint64_t chk = ~id;
    std::memcpy(frame.data(), &id, 8);
    std::memcpy(frame.data() + 8, &chk, 8);
    recorder.OnSend(id, sim.now(), /*service=*/200);
    nic.InjectFrame(std::move(frame));
    sim.queue().ScheduleAfter(&inject_ev, kGap);
  });
  LambdaEvent<std::function<void()>> sweep_ev([&] {
    recorder.SweepTimeouts(sim.now(), kTimeout);
    sim.queue().ScheduleAfter(&sweep_ev, kTimeout / 4);
  });
  sim.queue().Schedule(&inject_ev, 1'000);
  sim.queue().Schedule(&sweep_ev, kTimeout);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kNicDmaBadAddr, tracer, want_trace);
  out.completed = recorder.completed();
  out.timeouts = recorder.timed_out();
  out.drops = recorder.timed_out();  // a timed-out request is dropped for good
  out.bad_frames = srv.bad;
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "no requests completed");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// block-timeout: the device swallows a completion (no CQ entry, no tail
// bump). The driver's deadline — an APIC-timer line monitored alongside the
// CQ tail, since mwait has no timeout — expires and it resubmits with
// backoff; the retried command completing closes the fault.
// ---------------------------------------------------------------------------
ScenarioOutcome RunBlockScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kBlockTimeout);

  constexpr Addr kMmio = 0xf1000000;
  constexpr Addr kSq = 0x60000;
  constexpr Addr kCq = 0x61000;
  constexpr Addr kCqTail = 0x62000;
  constexpr Addr kData = 0x63000;
  constexpr Addr kTimerLine = 0x64000;
  constexpr uint64_t kSqSize = 16;

  MachineConfig mc;
  mc.seed = opts.seed;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  Simulation& sim = machine.sim();
  BlockDevice block(sim, machine.mem(), BlockConfig{});
  ApicTimerConfig tc;
  tc.period = 4'000;
  tc.counter_addr = kTimerLine;
  ApicTimer timer(sim, machine.mem(), tc);
  timer.StartTimer();

  ChaosEngine engine(machine, opts.seed);
  engine.AttachBlock(&block);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kBlockTimeout;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(2));
  campaign.max_faults = opts.faults;
  engine.AddCampaign(campaign);
  engine.Arm();

  BlockClientStats client;
  const uint64_t num_requests = opts.faults + 2;
  NativeProgram driver = [&](GuestContext& ctx) -> GuestTask {
    co_await ctx.Store(kMmio + kBlkSqBase, kSq, 8);
    co_await ctx.Store(kMmio + kBlkSqSize, kSqSize, 8);
    co_await ctx.Store(kMmio + kBlkCqBase, kCq, 8);
    co_await ctx.Store(kMmio + kBlkCqTailAddr, kCqTail, 8);
    BlockPorts ports{kMmio, kSq, kSqSize, kCqTail, kTimerLine};
    BlockRetryPolicy policy;
    policy.timeout = 60'000;  // kBlockReadLatency is 24k; deadline at 2.5x
    for (uint64_t i = 0; i < num_requests; i++) {
      BlockCommand cmd;
      cmd.opcode = BlockCommand::kOpRead;
      cmd.lba = i;
      cmd.len = 512;
      cmd.buf = kData;
      bool done = false;
      co_await ctx.Call(SubmitWithRetry(ctx, ports, cmd, policy, &client, &done));
      co_await ctx.Compute(500);  // consume the data
    }
    co_await ctx.StopSelf();
  };
  machine.Start(machine.BindNative(0, 0, driver, /*supervisor=*/true));

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kBlockTimeout, tracer, want_trace);
  out.completed = client.completed;
  out.retries = client.retries;
  out.timeouts = client.retries;  // each retry is a deadline that expired
  out.drops = client.failures;
  ExpectRecovering(out);
  Expect(out, out.completed == num_requests, "not every command eventually completed");
  Expect(out, out.drops == 0, "a command exhausted its retry budget");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// msix-doorbell-drop: the bridge loses a vector's counter write — no monitor
// fires, the line never changes. The consumer reconciles the counter against
// elapsed time on a watchdog timer line; the next delivered doorbell makes
// the lost work reachable again (recovery).
// ---------------------------------------------------------------------------
ScenarioOutcome RunMsixScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kMsixDoorbellDrop);

  constexpr Addr kCounter = 0x70000;
  constexpr Addr kWatchdog = 0x70040;
  constexpr uint32_t kVector = 0x20;
  constexpr Tick kPeriod = 5'000;

  MachineConfig mc;
  mc.seed = opts.seed;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  Simulation& sim = machine.sim();

  MsixBridge msix(machine.mem());
  msix.RegisterVector(kVector, kCounter);
  // The "device": a periodic interrupt source routed through the bridge.
  ApicTimerConfig dev_cfg;
  dev_cfg.period = kPeriod;
  dev_cfg.raise_irq = true;
  dev_cfg.irq_vector = kVector;
  ApicTimer device(sim, machine.mem(), dev_cfg, &msix);
  device.StartTimer();
  // The watchdog: an independent timer line so the consumer wakes even when
  // the doorbell it is waiting for was dropped.
  ApicTimerConfig wd_cfg;
  wd_cfg.period = 4 * kPeriod;
  wd_cfg.counter_addr = kWatchdog;
  ApicTimer watchdog(sim, machine.mem(), wd_cfg);
  watchdog.StartTimer();

  ChaosEngine engine(machine, opts.seed);
  engine.AttachMsix(&msix);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kMsixDoorbellDrop;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(3));
  campaign.max_faults = opts.faults;
  engine.AddCampaign(campaign);
  engine.Arm();

  struct ConsumerState {
    uint64_t seen = 0;
  };
  ConsumerState cons;
  NativeProgram consumer = [&](GuestContext& ctx) -> GuestTask {
    const uint64_t t0 = co_await ctx.ReadCsr(Csr::kCycle);
    for (;;) {
      co_await ctx.Monitor(kCounter);
      co_await ctx.Monitor(kWatchdog);
      co_await ctx.Mwait();
      const uint64_t delivered = co_await ctx.Load(kCounter, 8);
      if (delivered > cons.seen) {
        cons.seen = delivered;
        co_await ctx.Compute(100);  // handle the interrupt's work
      }
      // Watchdog reconciliation: the counter value must track elapsed
      // periods (one slack period for the write in flight).
      const uint64_t now = co_await ctx.ReadCsr(Csr::kCycle);
      const uint64_t expected = (now - t0) / kPeriod;
      if (cons.seen + 1 < expected) {
        engine.NoteDetected(FaultClass::kMsixDoorbellDrop, sim.now());
      }
    }
  };
  machine.Start(machine.BindNative(0, 0, consumer, /*supervisor=*/true));

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kMsixDoorbellDrop, tracer, want_trace);
  out.completed = cons.seen;
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "no interrupts consumed");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// context-poison: a worker's context image is corrupted mid-restore; the
// hardware raises kContextPoison instead of resuming it. A handler thread
// monitoring the workers' EDP lines services the descriptor and restarts the
// victim. Small RF forces real restore traffic.
// ---------------------------------------------------------------------------
ScenarioOutcome RunPoisonScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kContextPoison);

  constexpr uint32_t kWorkers = 4;
  constexpr Addr kEdpBase = 0x30000;   // worker i's EDP: one line each
  constexpr Addr kHandlerEdp = 0x31000;
  constexpr Addr kLineBase = 0x34000;  // worker i's wake line
  constexpr Tick kWakePeriod = 3'000;

  MachineConfig mc;
  mc.seed = opts.seed;
  mc.hwt.rf_slots = 2;  // restore pressure: most wakes move state
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  Simulation& sim = machine.sim();

  struct WorkerState {
    uint64_t iters = 0;
  };
  WorkerState ws;
  std::vector<Ptid> workers;
  for (uint32_t i = 0; i < kWorkers; i++) {
    const Addr line = kLineBase + i * 64;
    NativeProgram worker = [&, line](GuestContext& ctx) -> GuestTask {
      for (;;) {
        co_await ctx.Monitor(line);
        co_await ctx.Mwait();
        co_await ctx.Load(line, 8);
        co_await ctx.Compute(300);
        ws.iters++;
      }
    };
    workers.push_back(
        machine.BindNative(0, 1 + i, worker, /*supervisor=*/true, kEdpBase + i * 64));
  }

  HandlerStats hstats;
  std::vector<WardSpec> wards;
  for (uint32_t i = 0; i < kWorkers; i++) {
    wards.push_back({workers[i], kEdpBase + i * 64});
  }
  NativeProgram handler = [&, wards](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, wards, HandlerPolicy{}, &hstats);
  };
  const Ptid handler_ptid = machine.BindNative(0, 0, handler, /*supervisor=*/true, kHandlerEdp);

  ChaosEngine engine(machine, opts.seed);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kContextPoison;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::WithProbability(0.25));
  campaign.max_faults = opts.faults;
  campaign.targets = workers;  // never poison the handler itself
  engine.AddCampaign(campaign);
  engine.Arm();

  machine.Start(handler_ptid);
  for (Ptid w : workers) {
    machine.Start(w);
  }

  // Host pump: wake the workers round-robin so they sleep/wake/restore.
  uint64_t pump = 0;
  LambdaEvent<std::function<void()>> pump_ev([&] {
    pump++;
    machine.mem().DmaWrite64(kLineBase + (pump % kWorkers) * 64, pump);
    sim.queue().ScheduleAfter(&pump_ev, kWakePeriod);
  });
  sim.queue().Schedule(&pump_ev, kWakePeriod);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kContextPoison, tracer, want_trace);
  out.completed = ws.iters;
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "workers made no progress");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// edp-unwritable: a faulting worker's descriptor write lands on an
// unwritable page, so the hardware escalates to the thread watching that EDP
// line (§3's chain). Normal mode: a two-level chain absorbs it — h2 learns of
// h1's escalated page fault and restarts both h1 and the original faulter.
// expect_halt mode: h2 is absent and h1's own EDP is statically unwritable,
// so the chain exhausts and the machine halts cleanly.
// ---------------------------------------------------------------------------
ScenarioOutcome RunEdpScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kEdpUnwritable);

  constexpr Addr kWorkerEdp = 0x30000;
  constexpr Addr kH1Edp = 0x30100;
  constexpr Addr kH2Edp = 0x30200;
  constexpr Addr kForbidden = 0x100;  // inside the supervisor-only page

  MachineConfig mc;
  mc.seed = opts.seed;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  machine.mem().AddSupervisorOnlyRange(0, 0x1000);

  // The worker: user mode, page-faults on every loop iteration.
  NativeProgram worker = [](GuestContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.Compute(200);
      co_await ctx.Store(kForbidden, 1, 8);  // raises kPageFault
    }
  };
  const Ptid worker_ptid = machine.BindNative(0, 0, worker, /*supervisor=*/false, kWorkerEdp);

  HandlerStats h1_stats;
  HandlerPolicy h1_policy;
  h1_policy.max_restarts_per_ward = 64;
  NativeProgram h1 = [&, worker_ptid](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, {{worker_ptid, kWorkerEdp}}, h1_policy, &h1_stats);
  };
  const Ptid h1_ptid = machine.BindNative(0, 1, h1, /*supervisor=*/true, kH1Edp);

  HandlerStats h2_stats;
  Ptid h2_ptid = 0;
  if (!opts.expect_halt) {
    NativeProgram h2 = [&, h1_ptid](GuestContext& ctx) -> GuestTask {
      return FaultHandlerLoop(ctx, {{h1_ptid, kH1Edp}}, HandlerPolicy{}, &h2_stats);
    };
    h2_ptid = machine.BindNative(0, 2, h2, /*supervisor=*/true, kH2Edp);
  } else {
    // No h2, and h1's own EDP is bad too: the escalated descriptor has
    // nowhere to go and the chain exhausts.
    machine.mem().AddUnwritableRange(kH1Edp, ExceptionDescriptor::kBytes);
  }

  ChaosEngine engine(machine, opts.seed);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kEdpUnwritable;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(2));
  campaign.max_faults = opts.faults;
  campaign.targets = {worker_ptid};
  engine.AddCampaign(campaign);
  engine.Arm();

  machine.Start(h1_ptid);
  if (!opts.expect_halt) {
    machine.Start(h2_ptid);
  }
  machine.Start(worker_ptid);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kEdpUnwritable, tracer, want_trace);
  out.completed = h1_stats.serviced;
  if (opts.expect_halt) {
    Expect(out, out.injected >= 1, "no faults injected");
    Expect(out, out.detected >= 1, "the escalation was never observed");
    Expect(out, out.halted, "machine did not halt");
    Expect(out, out.halt_why == HaltReason::kHandlerChainExhausted,
           "halt reason is not handler-chain-exhausted");
  } else {
    ExpectRecovering(out);
    Expect(out, out.completed > 0, "h1 serviced no descriptors");
  }
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// handler-crash: the first-level handler faults partway through servicing a
// descriptor (shortly after its monitor wake). Its own descriptor lands at
// the second-level handler, which restarts it; the restarted handler's
// startup scan picks up any ward descriptor the crash left pending.
// ---------------------------------------------------------------------------
ScenarioOutcome RunHandlerCrashScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kHandlerCrash);

  constexpr Addr kWorkerEdp = 0x30000;
  constexpr Addr kH1Edp = 0x30100;
  constexpr Addr kForbidden = 0x100;

  MachineConfig mc;
  mc.seed = opts.seed;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  machine.mem().AddSupervisorOnlyRange(0, 0x1000);

  NativeProgram worker = [](GuestContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.Compute(200);
      co_await ctx.Store(kForbidden, 1, 8);  // raises kPageFault
    }
  };
  const Ptid worker_ptid = machine.BindNative(0, 0, worker, /*supervisor=*/false, kWorkerEdp);

  HandlerStats h1_stats;
  HandlerPolicy h1_policy;
  h1_policy.max_restarts_per_ward = 64;
  NativeProgram h1 = [&, worker_ptid](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, {{worker_ptid, kWorkerEdp}}, h1_policy, &h1_stats);
  };
  const Ptid h1_ptid = machine.BindNative(0, 1, h1, /*supervisor=*/true, kH1Edp);

  HandlerStats h2_stats;
  NativeProgram h2 = [&, h1_ptid](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, {{h1_ptid, kH1Edp}}, HandlerPolicy{}, &h2_stats);
  };
  const Ptid h2_ptid = machine.BindNative(0, 2, h2, /*supervisor=*/true);

  ChaosEngine engine(machine, opts.seed);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kHandlerCrash;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(2));
  campaign.max_faults = opts.faults;
  campaign.targets = {h1_ptid};
  campaign.crash_delay = 6;  // early in service: the ward's descriptor survives
  engine.AddCampaign(campaign);
  engine.Arm();

  machine.Start(h2_ptid);
  machine.Start(h1_ptid);
  machine.Start(worker_ptid);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kHandlerCrash, tracer, want_trace);
  out.completed = h1_stats.serviced;
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "h1 serviced no descriptors");
  Expect(out, h2_stats.restarts > 0, "h2 never restarted the crashed handler");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// fabric-link-fault: a frame crossing the two-node fabric is dropped or
// delayed in transit. The client (a host-side load generator on node 1)
// sends sequence-numbered requests to the server NIC on node 2, homed on
// core 1; the server's sequence check spots the gap (drop) or reordering
// (delay), and the next frame the fabric commits to deliver closes the
// recovery window. Lost requests are reaped by a timeout sweep.
// ---------------------------------------------------------------------------
ScenarioOutcome RunFabricLinkScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kFabricLinkFault);

  constexpr uint64_t kClientNode = 1;
  constexpr uint64_t kServerNode = 2;
  constexpr Addr kClientMmio = 0xf0000000;
  constexpr Addr kServerMmio = 0xf0100000;
  constexpr Addr kRing = 0x40000;
  constexpr Addr kTail = 0x48000;
  constexpr Addr kBufBase = 0x50000;
  constexpr uint64_t kRingSize = 32;
  constexpr uint64_t kBufStride = 2048;
  constexpr Tick kGap = 2'500;       // inter-frame gap
  constexpr Tick kTimeout = 80'000;  // per-request deadline (covers the delay flavor)

  MachineConfig mc;
  mc.seed = opts.seed;
  mc.num_cores = 2;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  Simulation& sim = machine.sim();

  NicConfig client_cfg;
  client_cfg.mmio_base = kClientMmio;
  Nic client_nic(sim, machine.mem(), client_cfg);
  NicConfig server_cfg;
  server_cfg.mmio_base = kServerMmio;
  Nic server_nic(sim, machine.mem(), server_cfg);
  Fabric fabric(sim, FabricConfig{});
  fabric.Attach(kClientNode, &client_nic);
  fabric.Attach(kServerNode, &server_nic);

  ChaosEngine engine(machine, opts.seed);
  engine.AttachFabric(&fabric);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kFabricLinkFault;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(3));
  campaign.max_faults = opts.faults;
  engine.AddCampaign(campaign);
  engine.Arm();

  LatencyRecorder recorder;
  struct ServerState {
    uint64_t head = 0;
    uint64_t next_seq = 1;  // next in-order sequence number expected
    uint64_t gaps = 0;
  };
  ServerState srv;

  // Server on core 1: consume frames, check the sequence, flag any anomaly.
  NativeProgram server = [&](GuestContext& ctx) -> GuestTask {
    for (uint64_t i = 0; i < kRingSize; i++) {
      const Addr d = kRing + i * NicDescriptor::kBytes;
      co_await ctx.Store(d, kBufBase + i * kBufStride, 8);
      co_await ctx.Store(d + 8, kBufStride, 4);
      co_await ctx.Store(d + 12, 0, 4);
    }
    co_await ctx.Store(kServerMmio + kNicRxBase, kRing, 8);
    co_await ctx.Store(kServerMmio + kNicRxSize, kRingSize, 8);
    co_await ctx.Store(kServerMmio + kNicRxTailAddr, kTail, 8);
    for (;;) {
      co_await ctx.Monitor(kTail);
      const uint64_t tail = co_await ctx.Load(kTail, 8);
      if (tail == srv.head) {
        co_await ctx.Mwait();
        continue;
      }
      while (srv.head < tail) {
        const Addr buf = kBufBase + (srv.head % kRingSize) * kBufStride;
        // Payload sits past the 16-byte fabric header.
        const uint64_t seq = co_await ctx.Load(buf + FabricHeader::kBytes, 8);
        co_await ctx.Compute(200);  // per-request service work
        if (seq != srv.next_seq) {
          // A skipped sequence number (drop) or a stale one arriving late
          // (delay): either way the link misbehaved.
          srv.gaps++;
          engine.NoteDetected(FaultClass::kFabricLinkFault, sim.now());
        }
        if (seq >= srv.next_seq) {
          srv.next_seq = seq + 1;
        }
        recorder.OnReceive(seq, sim.now());
        srv.head++;
        co_await ctx.Store(kServerMmio + kNicRxHead, srv.head, 8);
      }
    }
  };
  machine.Start(machine.BindNative(1, 0, server, /*supervisor=*/true));

  // Client load generator: fixed-rate sequence-numbered frames from node 1,
  // plus a timeout sweep reaping the ones the link ate.
  uint64_t next_seq = 1;
  LambdaEvent<std::function<void()>> inject_ev([&] {
    std::vector<uint8_t> frame(FabricHeader::kBytes + 16);
    FabricHeader h;
    h.dst = kServerNode;
    h.src = kClientNode;
    h.WriteTo(&frame);
    const uint64_t seq = next_seq++;
    std::memcpy(frame.data() + FabricHeader::kBytes, &seq, 8);
    recorder.OnSend(seq, sim.now(), /*service=*/200);
    fabric.InjectFrom(kClientNode, frame);
    sim.queue().ScheduleAfter(&inject_ev, kGap);
  });
  LambdaEvent<std::function<void()>> sweep_ev([&] {
    recorder.SweepTimeouts(sim.now(), kTimeout);
    sim.queue().ScheduleAfter(&sweep_ev, kTimeout / 4);
  });
  sim.queue().Schedule(&inject_ev, 1'000);
  sim.queue().Schedule(&sweep_ev, kTimeout);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kFabricLinkFault, tracer, want_trace);
  out.completed = recorder.completed();
  out.timeouts = recorder.timed_out();
  out.drops = recorder.timed_out();
  out.bad_frames = srv.gaps;
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "no requests completed");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// migration-crash: the migration engine dies partway through an rpull/rpush
// tier move. The manager on core 0 shuttles register state in and out of a
// dormant pool on core 1; an injected crash raises kMigrationAbort on the
// manager (the target stays disabled and untouched — the move is
// transactional), and the handler watching the manager's EDP restarts it.
// ---------------------------------------------------------------------------
ScenarioOutcome RunMigrationCrashScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kMigrationCrash);

  constexpr uint32_t kDormants = 4;
  constexpr Addr kManagerEdp = 0x30000;
  constexpr Addr kHandlerEdp = 0x30100;

  MachineConfig mc;
  mc.seed = opts.seed;
  mc.num_cores = 2;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);

  // The dormant pool: disabled hardware threads on core 1 whose registers
  // the manager reads and writes remotely. They never run — rpull/rpush
  // require the "stably disabled" contract — so they need no program.
  std::vector<Ptid> dormants;
  for (uint32_t i = 0; i < kDormants; i++) {
    dormants.push_back(machine.threads().PtidOf(1, i));
  }

  struct ManagerState {
    uint64_t moves = 0;  // completed pull+push round trips
  };
  ManagerState ms;
  NativeProgram manager = [&, dormants](GuestContext& ctx) -> GuestTask {
    // Re-invoked fresh after every restart; `ms` persists across crashes.
    for (uint64_t round = 1;; round++) {
      for (const Ptid d : dormants) {
        for (uint32_t reg = 1; reg <= 4; reg++) {
          const uint64_t v = co_await ctx.Rpull(d, reg);
          co_await ctx.Rpush(d, reg, v + round);
        }
        co_await ctx.Compute(300);
        ms.moves++;
      }
    }
  };
  const Ptid manager_ptid =
      machine.BindNative(0, 1, manager, /*supervisor=*/true, kManagerEdp);

  HandlerStats hstats;
  HandlerPolicy hpolicy;
  hpolicy.max_restarts_per_ward = 64;
  NativeProgram handler = [&, manager_ptid](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, {{manager_ptid, kManagerEdp}}, hpolicy, &hstats);
  };
  const Ptid handler_ptid =
      machine.BindNative(0, 0, handler, /*supervisor=*/true, kHandlerEdp);

  ChaosEngine engine(machine, opts.seed);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kMigrationCrash;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(5));
  campaign.max_faults = opts.faults;
  campaign.targets = {manager_ptid};
  engine.AddCampaign(campaign);
  engine.Arm();

  machine.Start(handler_ptid);
  machine.Start(manager_ptid);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kMigrationCrash, tracer, want_trace);
  out.completed = ms.moves;
  out.retries = hstats.restarts;
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "no tier moves completed");
  Expect(out, hstats.restarts > 0, "the handler never restarted the manager");
  out.ok = out.why_not_ok.empty();
  return out;
}

// ---------------------------------------------------------------------------
// remote-start-race: a cross-core start collides with a stop — the freshly
// started worker is revoked before it makes progress. The manager on core 0
// starts a worker on core 1 and waits on a done-counter line with an APIC
// timer as deadline (mwait has no timeout); when the worker is silently
// stopped mid-job, the deadline expires and the manager re-issues the start,
// whose wake closes the recovery window.
// ---------------------------------------------------------------------------
ScenarioOutcome RunRemoteStartRaceScenario(const ScenarioOptions& opts, bool want_trace) {
  ScenarioOutcome out;
  out.name = FaultClassName(FaultClass::kRemoteStartRace);

  constexpr Addr kDone = 0x70000;
  constexpr Addr kTimerLine = 0x70040;
  constexpr Tick kDeadline = 20'000;  // worker job is ~2k cycles

  MachineConfig mc;
  mc.seed = opts.seed;
  mc.num_cores = 2;
  Machine machine(mc);
  ThreadTracer tracer;
  machine.threads().SetTracer(&tracer);
  Simulation& sim = machine.sim();
  ApicTimerConfig tc;
  tc.period = 4'000;
  tc.counter_addr = kTimerLine;
  ApicTimer timer(sim, machine.mem(), tc);
  timer.StartTimer();

  // Worker on core 1: one job per start, then stop-self. A revoked start
  // kills it mid-Compute, before the done counter moves.
  NativeProgram worker = [&](GuestContext& ctx) -> GuestTask {
    co_await ctx.Compute(2'000);
    co_await ctx.AtomicAdd(kDone, 1);
    co_await ctx.StopSelf();
  };
  const Ptid worker_ptid = machine.BindNative(1, 0, worker, /*supervisor=*/true);

  struct ManagerState {
    uint64_t jobs = 0;
    uint64_t retries = 0;  // starts re-issued after a blown deadline
  };
  ManagerState ms;
  NativeProgram manager = [&, worker_ptid](GuestContext& ctx) -> GuestTask {
    for (;;) {
      const uint64_t before = co_await ctx.Load(kDone, 8);
      co_await ctx.Start(worker_ptid);
      uint64_t deadline = (co_await ctx.ReadCsr(Csr::kCycle)) + kDeadline;
      for (;;) {
        // Arm both lines before the check so a completion between the load
        // and the mwait flags the wait as already satisfied.
        co_await ctx.Monitor(kDone);
        co_await ctx.Monitor(kTimerLine);
        const uint64_t done = co_await ctx.Load(kDone, 8);
        if (done > before) {
          ms.jobs++;
          break;
        }
        const uint64_t now = co_await ctx.ReadCsr(Csr::kCycle);
        if (now >= deadline) {
          // The start was revoked: the worker is stopped and the job never
          // ran. Re-issue the start (a no-op if the worker is alive).
          ms.retries++;
          co_await ctx.Start(worker_ptid);
          deadline = now + kDeadline;
        }
        co_await ctx.Mwait();
      }
    }
  };
  const Ptid manager_ptid = machine.BindNative(0, 0, manager, /*supervisor=*/true);

  ChaosEngine engine(machine, opts.seed);
  engine.SetTracer(&tracer);
  CampaignConfig campaign;
  campaign.fault = FaultClass::kRemoteStartRace;
  campaign.schedule = PickSchedule(opts, InjectionSchedule::EveryN(4));
  campaign.max_faults = opts.faults;
  campaign.targets = {worker_ptid};
  engine.AddCampaign(campaign);
  engine.Arm();

  machine.Start(manager_ptid);

  machine.RunFor(opts.duration);
  FillCommon(out, machine, engine, FaultClass::kRemoteStartRace, tracer, want_trace);
  out.completed = ms.jobs;
  out.retries = ms.retries;
  out.timeouts = ms.retries;  // each retry is a deadline that expired
  ExpectRecovering(out);
  Expect(out, out.completed > 0, "no jobs completed");
  Expect(out, ms.retries > 0, "the manager never re-issued a revoked start");
  out.ok = out.why_not_ok.empty();
  return out;
}

}  // namespace

const std::vector<FaultClass>& AllScenarioClasses() {
  static const std::vector<FaultClass> kAll = {
      FaultClass::kNicDmaBadAddr,  FaultClass::kBlockTimeout,  FaultClass::kMsixDoorbellDrop,
      FaultClass::kContextPoison,  FaultClass::kEdpUnwritable, FaultClass::kHandlerCrash,
      FaultClass::kFabricLinkFault, FaultClass::kMigrationCrash,
      FaultClass::kRemoteStartRace,
  };
  return kAll;
}

namespace {

std::vector<FaultClass> ScenarioClassesWhere(bool cross_core) {
  std::vector<FaultClass> out;
  for (FaultClass cls : AllScenarioClasses()) {
    if (IsCrossCoreFault(cls) == cross_core) {
      out.push_back(cls);
    }
  }
  return out;
}

}  // namespace

const std::vector<FaultClass>& CrossCoreScenarioClasses() {
  static const std::vector<FaultClass> kCross = ScenarioClassesWhere(true);
  return kCross;
}

const std::vector<FaultClass>& SingleCoreScenarioClasses() {
  static const std::vector<FaultClass> kSingle = ScenarioClassesWhere(false);
  return kSingle;
}

ScenarioOutcome RunScenario(FaultClass cls, const ScenarioOptions& opts, bool want_trace) {
  switch (cls) {
    case FaultClass::kNicDmaBadAddr:
      return RunNicScenario(opts, want_trace);
    case FaultClass::kBlockTimeout:
      return RunBlockScenario(opts, want_trace);
    case FaultClass::kMsixDoorbellDrop:
      return RunMsixScenario(opts, want_trace);
    case FaultClass::kContextPoison:
      return RunPoisonScenario(opts, want_trace);
    case FaultClass::kEdpUnwritable:
      return RunEdpScenario(opts, want_trace);
    case FaultClass::kHandlerCrash:
      return RunHandlerCrashScenario(opts, want_trace);
    case FaultClass::kFabricLinkFault:
      return RunFabricLinkScenario(opts, want_trace);
    case FaultClass::kMigrationCrash:
      return RunMigrationCrashScenario(opts, want_trace);
    case FaultClass::kRemoteStartRace:
      return RunRemoteStartRaceScenario(opts, want_trace);
  }
  ScenarioOutcome out;
  out.name = "unknown";
  out.why_not_ok = "unknown fault class";
  return out;
}

}  // namespace casc

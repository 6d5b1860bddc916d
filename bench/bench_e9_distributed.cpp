// E9 — Simpler distributed programming (§2).
//
// A client (host load generator) sends RPCs across the fabric to one server
// node. Three server designs:
//   htm thread-per-request : dispatcher + blocked worker hardware threads;
//                            plain blocking code, PS-scheduled
//   htm event-loop         : one thread, inline handling (the style the
//                            paper calls harder to program)
//   baseline threaded      : NIC IRQ -> dispatcher softthread -> one software
//                            thread per request, real switch costs
// Reported per offered load: client-observed RTT p50/p99 and completions.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/baseline/baseline_machine.h"
#include "src/cpu/machine.h"
#include "src/dev/fabric.h"
#include "src/dev/nic.h"
#include "src/runtime/rpc.h"
#include "src/workload/loadgen.h"

using namespace casc;

namespace {

constexpr uint64_t kServer = 1;
constexpr uint64_t kClient = 9;
constexpr Tick kMeanService = 2000;
Tick kDuration = 1'500'000;  // reduced under --smoke

struct RunResult {
  Histogram rtt;
  uint64_t completed = 0;
};

// Shared client scaffolding: attach a client NIC, observe responses.
template <typename MachineT>
struct ClientSide {
  ClientSide(MachineT& m, Fabric& fabric, LatencyRecorder& rec, Simulation& sim)
      : machine(m), recorder(rec) {
    NicConfig cfg;
    cfg.mmio_base = 0xf0f00000;
    nic = std::make_unique<Nic>(sim, m.mem(), cfg);
    fabric.Attach(kClient, nic.get());
    SetupNicRings(m.mem(), *nic, 0x20000000);
    nic->SetRxObserver([this, &sim](const std::vector<uint8_t>& frame) {
      uint64_t req_id = 0;
      std::memcpy(&req_id, frame.data() + RpcFrame::kReqIdOff, 8);
      recorder.OnReceive(req_id, sim.now());
      machine.mem().Write(0, nic->config().mmio_base + kNicRxHead, 8, ++consumed);
    });
  }
  MachineT& machine;
  LatencyRecorder& recorder;
  std::unique_ptr<Nic> nic;
  uint64_t consumed = 0;
};

RunResult RunHtm(RpcMode mode, uint32_t workers, double load) {
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 64;
  Machine m(cfg);
  Nic server_nic(m.sim(), m.mem(), NicConfig{});
  Fabric fabric(m.sim(), FabricConfig{});
  fabric.Attach(kServer, &server_nic);
  LatencyRecorder rec;
  ClientSide<Machine> client(m, fabric, rec, m.sim());
  RpcNode node(m, 0, kServer, &server_nic, 0x03000000, workers, mode);
  node.Install();
  m.RunFor(2000);

  OpenLoopSource src(m.sim(), kMeanService / load, ServiceDist::Exponential(kMeanService),
                     [&](uint64_t id, Tick service) {
                       rec.OnSend(id, m.sim().now(), service);
                       fabric.InjectFrom(kClient, RpcFrame::Make(kServer, kClient, id, service));
                     });
  src.StartAt(m.sim().now() + 1);
  m.RunFor(kDuration);
  src.Stop();
  m.RunFor(300000);
  RunResult r;
  r.rtt = rec.latency();
  r.completed = rec.completed();
  return r;
}

RunResult RunBaselineThreaded(double load) {
  BaselineMachineConfig cfg;
  cfg.cpu.quantum = 30000;
  BaselineMachine m(cfg);
  Nic server_nic(m.sim(), m.mem(), NicConfig{}, &m.cpu(0));
  Fabric fabric(m.sim(), FabricConfig{});
  fabric.Attach(kServer, &server_nic);
  LatencyRecorder rec;
  ClientSide<BaselineMachine> client(m, fabric, rec, m.sim());
  const NicRings rings = SetupNicRings(m.mem(), server_nic, 0x03000000);
  m.mem().Write(0, server_nic.config().mmio_base + kNicIrqEnable, 8, 1);

  // Dispatcher: reads frames, spawns one software thread per request.
  SoftThread* dispatcher = nullptr;
  uint64_t seen = 0;
  uint64_t tx_produced = 0;
  bool irq_pending = false;
  const Addr staging_base = 0x03100000;
  dispatcher = m.cpu(0).Spawn("dispatcher", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      const uint64_t tail = co_await ctx.Load(rings.rx_tail);
      if (seen == tail) {
        if (irq_pending) {
          irq_pending = false;
          continue;
        }
        co_await ctx.Block();
        continue;
      }
      while (seen < co_await ctx.Load(rings.rx_tail)) {
        const Addr buf = rings.rx_bufs + (seen % rings.entries) * 2048;
        const uint64_t req_id = co_await ctx.Load(buf + RpcFrame::kReqIdOff);
        const uint64_t service = co_await ctx.Load(buf + RpcFrame::kServiceOff);
        seen++;
        co_await ctx.Store(server_nic.config().mmio_base + kNicRxHead, seen);
        m.cpu(0).Spawn("req", [&, req_id, service](SoftContext& wctx) -> GuestTask {
          co_await wctx.Compute(service);
          // Respond through the TX ring (single core serializes access).
          const Addr staging = staging_base + (tx_produced % 256) * RpcFrame::kBytes;
          co_await wctx.Store(staging, kClient);
          co_await wctx.Store(staging + 8, kServer);
          co_await wctx.Store(staging + RpcFrame::kReqIdOff, req_id);
          const Addr desc = rings.tx_ring + (tx_produced % 256) * NicDescriptor::kBytes;
          co_await wctx.Store(desc, staging);
          co_await wctx.Store(desc + 8, RpcFrame::kBytes, 4);
          tx_produced++;
          co_await wctx.Store(server_nic.config().mmio_base + kNicTxDoorbell, tx_produced);
        });
      }
    }
  });
  m.cpu(0).SetIrqHandler(server_nic.config().irq_vector, [&] {
    irq_pending = true;
    m.cpu(0).Wake(dispatcher);
    return 200;
  });
  m.RunFor(2000);

  OpenLoopSource src(m.sim(), kMeanService / load, ServiceDist::Exponential(kMeanService),
                     [&](uint64_t id, Tick service) {
                       rec.OnSend(id, m.sim().now(), service);
                       fabric.InjectFrom(kClient, RpcFrame::Make(kServer, kClient, id, service));
                     });
  src.StartAt(m.sim().now() + 1);
  m.RunFor(kDuration);
  src.Stop();
  m.RunFor(500000);
  RunResult r;
  r.rtt = rec.latency();
  r.completed = rec.completed();
  return r;
}

// Scale-out: the client round-robins over N server nodes (one core each);
// total offered load is N x `per_node_load` x one node's capacity.
RunResult RunHtmScaleOut(uint32_t num_nodes, double per_node_load) {
  MachineConfig cfg;
  cfg.num_cores = num_nodes;
  cfg.hwt.threads_per_core = 64;
  Machine m(cfg);
  Fabric fabric(m.sim(), FabricConfig{});
  LatencyRecorder rec;
  ClientSide<Machine> client(m, fabric, rec, m.sim());
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<std::unique_ptr<RpcNode>> nodes;
  for (uint32_t n = 0; n < num_nodes; n++) {
    NicConfig ncfg;
    ncfg.mmio_base = 0xf0000000 + static_cast<Addr>(n) * 0x100000;
    nics.push_back(std::make_unique<Nic>(m.sim(), m.mem(), ncfg));
    fabric.Attach(kServer + n, nics.back().get());
    nodes.push_back(std::make_unique<RpcNode>(m, n, kServer + n, nics.back().get(),
                                              0x03000000 + static_cast<Addr>(n) * 0x01000000, 16,
                                              RpcMode::kThreadPerRequest));
    nodes.back()->Install();
  }
  m.RunFor(2000);
  uint64_t rr = 0;
  OpenLoopSource src(m.sim(), kMeanService / per_node_load / num_nodes,
                     ServiceDist::Exponential(kMeanService), [&](uint64_t id, Tick service) {
                       rec.OnSend(id, m.sim().now(), service);
                       const uint64_t dst = kServer + (rr++ % num_nodes);
                       fabric.InjectFrom(kClient, RpcFrame::Make(dst, kClient, id, service));
                     });
  src.StartAt(m.sim().now() + 1);
  m.RunFor(kDuration);
  src.Stop();
  m.RunFor(300000);
  RunResult r;
  r.rtt = rec.latency();
  r.completed = rec.completed();
  return r;
}

void Report(Table& t, BenchReport& rep, const char* design, double load, const RunResult& r) {
  char loadbuf[16];
  std::snprintf(loadbuf, sizeof(loadbuf), "%.1f", load);
  t.Row(design, loadbuf, (unsigned long long)r.rtt.P50(), (unsigned long long)r.rtt.P99(),
        ToNs(r.rtt.P99()) / 1000.0, (unsigned long long)r.completed);
  const std::string config = std::string(design) + " @ " + loadbuf;
  rep.Add("rpc", config, "rtt_p50_cycles", static_cast<double>(r.rtt.P50()));
  rep.Add("rpc", config, "rtt_p99_cycles", static_cast<double>(r.rtt.P99()));
  rep.Add("rpc", config, "completed", static_cast<double>(r.completed));
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("e9_distributed", argc, argv);
  if (!report.parse_ok()) {
    return 1;
  }
  kDuration = report.Iters(1'500'000, 200'000);
  Banner("E9", "Distributed RPC: blocking thread-per-request vs event loop vs software threads",
         "\"developers can assign one hardware thread per request and use simple blocking "
         "I/O semantics without suffering ... thread scheduling overheads\" (§2)");

  Table t({"server design", "load", "rtt p50 cyc", "rtt p99 cyc", "p99 us", "completed"});
  for (double load : {0.3, 0.6}) {
    Report(t, report, "htm thread-per-request (16 workers)", load,
           RunHtm(RpcMode::kThreadPerRequest, 16, load));
    Report(t, report, "htm event-loop", load, RunHtm(RpcMode::kEventLoop, 0, load));
    Report(t, report, "baseline software threads", load, RunBaselineThreaded(load));
  }
  t.Print();

  std::printf("\nscale-out: client round-robins across N htm nodes at 0.6 load each:\n");
  Table scale({"server nodes", "rtt p50 cyc", "rtt p99 cyc", "completed", "per-node req"});
  for (uint32_t n : {1u, 2u, 4u}) {
    const RunResult r = RunHtmScaleOut(n, 0.6);
    scale.Row(n, (unsigned long long)r.rtt.P50(), (unsigned long long)r.rtt.P99(),
              (unsigned long long)r.completed, (unsigned long long)(r.completed / n));
    const std::string config = std::to_string(n) + " nodes";
    report.Add("rpc_scale_out", config, "rtt_p99_cycles", static_cast<double>(r.rtt.P99()));
    report.Add("rpc_scale_out", config, "completed", static_cast<double>(r.completed));
  }
  scale.Print();

  std::printf(
      "\nshape check: the floor is the fabric RTT (~2x %llu cycles). htm blocking\n"
      "threads should match the event loop at the median and beat it at p99\n"
      "(no head-of-line blocking), while the software-threaded server adds\n"
      "IRQ + scheduler + context-switch costs to every request.\n",
      (unsigned long long)kFabricWireLatency);
  return report.Finish() ? 0 : 1;
}

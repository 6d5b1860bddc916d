// Echo server: "Fast I/O without Inefficient Polling" (§2).
//
// A hardware thread blocks on the NIC's RX tail counter with monitor/mwait.
// Frames DMA'd by the NIC wake it; it echoes each frame back out of the TX
// ring and blocks again. While idle it consumes no cycles — unlike a polling
// core — yet reacts within tens of nanoseconds — unlike an interrupt path.
//
// Build & run:  ./examples/echo_server [--frames=N] [--trace] [--trace-json=out.json]
//                                      [--stats-json=out.json]
#include <cstdio>
#include <cstring>

#include "examples/example_util.h"
#include "src/cpu/machine.h"
#include "src/dev/nic.h"
#include "src/runtime/rpc.h"
#include "src/sim/config.h"
#include "src/sim/stats.h"

using namespace casc;

int main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const uint64_t frames = cfg.GetUint("frames", 32);

  Machine m;
  ExampleTrace trace(m, cfg);
  if (cfg.ReportParseErrors()) {
    return 2;  // a malformed flag value must not silently become the default
  }
  Nic nic(m.sim(), m.mem(), NicConfig{});
  const Addr region = 0x02000000;
  const NicRings rings = SetupNicRings(m.mem(), nic, region);

  // Echoed frames come back through the TX handler; record their timing.
  Histogram echo_latency;
  std::vector<Tick> injected_at;
  uint64_t echoed = 0;
  nic.SetTxHandler([&](const std::vector<uint8_t>& frame) {
    uint64_t id = 0;
    std::memcpy(&id, frame.data(), 8);
    if (id < injected_at.size()) {
      echo_latency.Record(m.sim().now() - injected_at[id]);
    }
    echoed++;
  });

  // The entire server: monitor the RX tail, sleep, echo, repeat.
  const Addr staging = region + 0xd0000;
  const Ptid server = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        uint64_t seen = 0;
        uint64_t tx = 0;
        co_await ctx.Monitor(rings.rx_tail);
        for (;;) {
          const uint64_t tail = co_await ctx.Load(rings.rx_tail);
          while (seen < tail) {
            const Addr buf = rings.rx_bufs + (seen % rings.entries) * 2048;
            const uint64_t word = co_await ctx.Load(buf);  // touch payload
            const Addr out = staging + (tx % rings.entries) * 64;
            co_await ctx.Store(out, word);  // "echo" the first word
            const Addr desc = rings.tx_ring + (tx % rings.entries) * NicDescriptor::kBytes;
            co_await ctx.Store(desc, out);
            co_await ctx.Store(desc + 8, 64, 4);
            tx++;
            co_await ctx.Store(nic.config().mmio_base + kNicTxDoorbell, tx);
            seen++;
            co_await ctx.Store(nic.config().mmio_base + kNicRxHead, seen);
          }
          co_await ctx.Mwait();  // costs nothing until the next frame
        }
      },
      /*supervisor=*/true);
  m.Start(server);
  m.RunFor(1000);

  // Inject frames with random gaps; observe echoes.
  for (uint64_t i = 0; i < frames; i++) {
    injected_at.push_back(m.sim().now());
    std::vector<uint8_t> frame(64, 0);
    std::memcpy(frame.data(), &i, 8);
    nic.InjectFrame(std::move(frame));
    m.RunFor(1000 + m.sim().rng().NextBounded(3000));
  }
  m.RunFor(50000);

  const auto& stats = m.sim().stats();
  std::printf("casc echo server — fast I/O without polling\n");
  std::printf("--------------------------------------------\n");
  std::printf("frames injected   : %llu\n", (unsigned long long)frames);
  std::printf("frames echoed     : %llu\n", (unsigned long long)echoed);
  std::printf("echo latency p50  : %llu cycles (%.0f ns)\n",
              (unsigned long long)echo_latency.P50(), m.sim().CyclesToNs(echo_latency.P50()));
  std::printf("echo latency p99  : %llu cycles (%.0f ns)\n",
              (unsigned long long)echo_latency.P99(), m.sim().CyclesToNs(echo_latency.P99()));
  std::printf("server mwait waits: %llu (slept between every burst)\n",
              (unsigned long long)stats.GetCounter("hwt.mwait_blocks"));
  std::printf("interrupts taken  : 0 — the NIC's tail-counter DMA is the only signal\n");
  if (!trace.Finish(0, m.sim().now() + 1)) {
    return 1;
  }
  return echoed == frames ? 0 : 1;
}

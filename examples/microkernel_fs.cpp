// Microkernel file service (§2 "Faster Microkernels"): an application makes
// exception-less "syscalls" to a file service running on its own dedicated
// hardware thread. The service reads sectors from the NVMe-style block
// device and blocks on the completion queue tail — three layers of blocking
// (app -> service -> device) with zero interrupts and zero mode switches.
//
// With --ring the service runs behind the shared submission/completion ring
// transport instead of the per-call channel: the app batches all three reads
// into one ring submission (--batch sets the depth) and kernel worker ptids
// (--workers) drain them concurrently.
//
// Build & run:  ./examples/microkernel_fs [--trace] [--trace-json=out.json]
//                                         [--ring] [--workers=N] [--batch=N]
#include <cstdio>
#include <cstring>
#include <string>

#include "examples/example_util.h"
#include "src/cpu/machine.h"
#include "src/dev/block_dev.h"
#include "src/runtime/ring.h"
#include "src/runtime/services.h"
#include "src/runtime/syscall_layer.h"
#include "src/sim/config.h"

using namespace casc;

constexpr uint32_t kRingEntries = 16;  // --ring depth, and so the largest --batch

int main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc, argv, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  Machine m;
  const bool use_ring = cfg.GetBool("ring", false);
  const uint64_t workers_flag = cfg.GetUint("workers", 2);
  const uint64_t batch_flag = cfg.GetUint("batch", 3);
  ExampleTrace trace(m, cfg);
  if (cfg.ReportParseErrors()) {
    return 2;  // a malformed flag value must not silently become the default
  }
  // Checked before narrowing: RingServer only asserts its worker count, and a
  // batch of 0 or one deeper than the ring would wait forever.
  if (workers_flag < 1 || workers_flag > Ring::kMaxWorkers) {
    std::fprintf(stderr, "--workers must be 1..%u\n", Ring::kMaxWorkers);
    return 2;
  }
  if (batch_flag < 1 || batch_flag > kRingEntries) {
    std::fprintf(stderr, "--batch must be 1..%u\n", kRingEntries);
    return 2;
  }
  const uint32_t workers = static_cast<uint32_t>(workers_flag);
  const uint32_t batch = static_cast<uint32_t>(batch_flag);
  BlockDevice disk(m.sim(), m.mem(), BlockConfig{});

  // "Format" the disk: a toy 1-sector-per-file filesystem.
  const char* files[] = {"the paper argues context switching is obsolete",
                         "hardware threads wait on I/O queues directly",
                         "microkernel services stop paying for IPC"};
  for (uint64_t i = 0; i < 3; i++) {
    disk.storage().Write(100 + i * 512, files[i], std::strlen(files[i]) + 1);
  }

  // Driver state + device ring setup (host-side firmware duties).
  BlockDriver drv;
  drv.mmio_base = BlockConfig{}.mmio_base;
  drv.sq_base = 0x00600000;
  drv.sq_size = 64;
  drv.cq_tail = 0x00601000;
  drv.state = 0x00601040;
  drv.publish = 0x00601080;  // ring workers issue concurrently: order doorbells
  m.mem().Write(0, drv.mmio_base + kBlkSqBase, 8, drv.sq_base);
  m.mem().Write(0, drv.mmio_base + kBlkSqSize, 8, drv.sq_size);
  m.mem().Write(0, drv.mmio_base + kBlkCqTailAddr, 8, drv.cq_tail);

  // The file service: per-call channel by default, or the shared ring
  // transport (--ring) with a worker pool and batched submission.
  const Channel ch{0x00400000};
  Ptid service = kInvalidPtid;
  RingConfig ring_cfg;
  ring_cfg.entries = kRingEntries;
  ring_cfg.num_workers = workers;
  ring_cfg.name = "fs";
  RingServer ring_server(m, 0, /*first_local=*/0, 0x00410000, ring_cfg,
                         MakeFileHandler(drv));
  if (use_ring) {
    ring_server.Install();
  } else {
    service = m.BindNative(0, 0, MakeSyscallServer(ch, MakeFileHandler(drv)),
                           /*supervisor=*/true);
  }

  // The application: reads the three "files" by sector, in user mode. On the
  // ring path the reads go out as one batch and complete concurrently.
  std::vector<Tick> per_read_cycles;
  const uint32_t app_local = use_ring ? workers : 1;
  const Ptid app = m.BindNative(
      0, app_local,
      [&](GuestContext& ctx) -> GuestTask {
        if (use_ring) {
          std::vector<SyscallRequest> reqs;
          for (uint64_t i = 0; i < 3; i++) {
            reqs.push_back({.nr = kFsRead, .a0 = i, .a1 = 512, .a2 = 0x00700000 + i * 512});
          }
          for (uint64_t first = 0; first < reqs.size(); first += batch) {
            const uint32_t n =
                std::min<uint32_t>(batch, static_cast<uint32_t>(reqs.size() - first));
            const Tick start = co_await ctx.ReadCsr(Csr::kCycle);
            uint64_t rets[3] = {};
            co_await ctx.Call(RingCallBatch(ctx, ring_server.ring(), &reqs[first], n, rets));
            const Tick end = co_await ctx.ReadCsr(Csr::kCycle);
            for (uint32_t i = 0; i < n; i++) {
              per_read_cycles.push_back(end - start);  // batch completes together
            }
          }
          co_return;
        }
        for (uint64_t i = 0; i < 3; i++) {
          const Tick start = co_await ctx.ReadCsr(Csr::kCycle);
          uint64_t ret = 0;
          const Addr dest = 0x00700000 + i * 512;
          co_await ctx.Call(SyscallCall(
              ctx, ch, {.nr = kFsRead, .a0 = i, .a1 = 512, .a2 = dest}, &ret));
          const Tick end = co_await ctx.ReadCsr(Csr::kCycle);
          per_read_cycles.push_back(end - start);
        }
      },
      /*supervisor=*/false);

  if (!use_ring) {
    m.Start(service);
  }
  m.Start(app);
  m.RunToQuiescence();
  if (per_read_cycles.size() < 3) {
    std::fprintf(stderr, "microkernel_fs: only %zu of 3 reads completed\n",
                 per_read_cycles.size());
    return 1;
  }

  // Host-side: show what the app read, and check it against the disk.
  std::printf("casc microkernel file service demo\n");
  std::printf("----------------------------------\n");
  std::string mismatch;
  for (uint64_t i = 0; i < 3; i++) {
    char buf[512];
    const Addr src = 0x00700000 + i * 512;
    m.mem().phys().Read(src + 100, buf, sizeof(buf) - 1);
    buf[511] = '\0';
    if (mismatch.empty() && std::strcmp(buf, files[i]) != 0) {
      mismatch = "file " + std::to_string(i) + " read back \"" + buf + "\", the disk holds \"" +
                 files[i] + "\"";
    }
    std::printf("file %llu -> \"%s\"  (%llu cycles = %.1f us end to end)\n",
                (unsigned long long)i, buf, (unsigned long long)per_read_cycles[i],
                m.sim().CyclesToNs(per_read_cycles[i]) / 1000.0);
  }
  std::printf("\nEach read crossed app -> service -> device and back with no mode\n");
  std::printf("switch: the service hardware thread mwait'ed on the CQ tail while the\n");
  std::printf("flash access (%.1f us) was in flight.\n",
              m.sim().CyclesToNs(kBlockReadLatency) / 1000.0);
  if (!trace.Finish(0, m.sim().now() + 1)) {
    return 1;
  }
  if (!mismatch.empty()) {
    std::fprintf(stderr, "microkernel_fs: %s\n", mismatch.c_str());
    return 1;
  }
  return 0;
}

// Device tests: NIC RX/TX rings with DMA and tail-counter notification,
// block device SQ/CQ, APIC timer counter writes, MSI-X translation, and the
// fabric; plus end-to-end "device wakes hardware thread" integration.
#include <gtest/gtest.h>

#include "src/cpu/machine.h"
#include "src/dev/apic_timer.h"
#include "src/dev/block_dev.h"
#include "src/dev/fabric.h"
#include "src/dev/msix.h"
#include "src/dev/nic.h"

namespace casc {
namespace {

constexpr Addr kRxRing = 0x100000;
constexpr Addr kRxBufs = 0x110000;
constexpr Addr kRxTail = 0x120000;
constexpr Addr kTxRing = 0x130000;
constexpr Addr kTxBufs = 0x140000;
constexpr Addr kTxHead = 0x150000;

class NicTest : public ::testing::Test {
 protected:
  NicTest() : sim_(), mem_(sim_, MemConfig{}, 1), nic_(sim_, mem_, NicConfig{}, &irqs_) {
    // Post 8 RX buffers.
    for (uint64_t i = 0; i < 8; i++) {
      NicDescriptor d;
      d.buf = kRxBufs + i * 2048;
      WriteDesc(kRxRing + i * NicDescriptor::kBytes, d);
    }
    Mmio(kNicRxBase, kRxRing);
    Mmio(kNicRxSize, 8);
    Mmio(kNicRxTailAddr, kRxTail);
    Mmio(kNicTxBase, kTxRing);
    Mmio(kNicTxSize, 8);
    Mmio(kNicTxHeadAddr, kTxHead);
  }

  void Mmio(Addr reg, uint64_t value) {
    mem_.Write(0, nic_.config().mmio_base + reg, 8, value);
  }
  void WriteDesc(Addr addr, const NicDescriptor& d) {
    uint8_t raw[16];
    memcpy(raw, &d.buf, 8);
    memcpy(raw + 8, &d.len, 4);
    memcpy(raw + 12, &d.flags, 4);
    mem_.phys().Write(addr, raw, 16);
  }

  Simulation sim_;
  MemorySystem mem_;
  IrqDispatcher irqs_;
  Nic nic_;
};

TEST_F(NicTest, RxDmaWritesBufferDescriptorAndTail) {
  nic_.InjectFrame({'h', 'e', 'l', 'l', 'o'});
  EXPECT_EQ(mem_.phys().Read64(kRxTail), 0u);  // not yet delivered
  sim_.queue().RunAll();
  EXPECT_EQ(mem_.phys().Read64(kRxTail), 1u);
  EXPECT_EQ(mem_.phys().Read8(kRxBufs), 'h');
  EXPECT_EQ(mem_.phys().Read8(kRxBufs + 4), 'o');
  const uint32_t flags = mem_.phys().Read32(kRxRing + 12);
  EXPECT_TRUE(flags & NicDescriptor::kFlagDone);
  EXPECT_EQ(mem_.phys().Read32(kRxRing + 8), 5u);
  EXPECT_EQ(nic_.rx_frames(), 1u);
}

TEST_F(NicTest, RxDeliveryDelayedByDmaLatency) {
  nic_.InjectFrame({1});
  const Tick start = sim_.now();
  sim_.queue().RunAll();
  EXPECT_EQ(sim_.now() - start, kNicRxDmaLatency);
}

TEST_F(NicTest, RxRingFullDropsAndResumes) {
  for (int i = 0; i < 12; i++) {
    nic_.InjectFrame({static_cast<uint8_t>(i)});
  }
  sim_.queue().RunAll();
  EXPECT_EQ(nic_.rx_frames(), 8u);
  EXPECT_EQ(nic_.rx_dropped(), 4u);
  // Software consumes 4 and reposts; new frames flow again.
  Mmio(kNicRxHead, 4);
  nic_.InjectFrame({99});
  sim_.queue().RunAll();
  EXPECT_EQ(nic_.rx_frames(), 9u);
}

TEST_F(NicTest, RxIrqRaisedWhenEnabled) {
  Mmio(kNicIrqEnable, 1);
  nic_.InjectFrame({1});
  sim_.queue().RunAll();
  ASSERT_EQ(irqs_.raised().size(), 1u);
  EXPECT_EQ(irqs_.raised()[0], nic_.config().irq_vector);
  Mmio(kNicIrqEnable, 0);
  nic_.InjectFrame({2});
  sim_.queue().RunAll();
  EXPECT_EQ(irqs_.raised().size(), 1u);  // no further IRQs
}

TEST_F(NicTest, TxTransmitsAndBumpsHead) {
  const char payload[] = "ping";
  mem_.phys().Write(kTxBufs, payload, 4);
  NicDescriptor d;
  d.buf = kTxBufs;
  d.len = 4;
  WriteDesc(kTxRing, d);
  std::vector<std::vector<uint8_t>> sent;
  nic_.SetTxHandler([&](const std::vector<uint8_t>& f) { sent.push_back(f); });
  Mmio(kNicTxDoorbell, 1);
  sim_.queue().RunAll();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], (std::vector<uint8_t>{'p', 'i', 'n', 'g'}));
  EXPECT_EQ(mem_.phys().Read64(kTxHead), 1u);
}

TEST(ApicTimerTest, PeriodicCounterWrites) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  ApicTimerConfig cfg;
  cfg.period = 1000;
  cfg.counter_addr = 0x7000;
  ApicTimer timer(sim, mem, cfg);
  timer.StartTimer();
  sim.queue().RunUntil(3500);
  EXPECT_EQ(timer.fires(), 3u);
  EXPECT_EQ(mem.phys().Read64(0x7000), 3u);
  timer.StopTimer();
  sim.queue().RunUntil(10000);
  EXPECT_EQ(timer.fires(), 3u);
}

TEST(ApicTimerTest, OneShotFiresOnce) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  IrqDispatcher irqs;
  ApicTimerConfig cfg;
  cfg.period = 500;
  cfg.one_shot = true;
  cfg.raise_irq = true;
  ApicTimer timer(sim, mem, cfg, &irqs);
  timer.StartTimer();
  sim.queue().RunUntil(5000);
  EXPECT_EQ(timer.fires(), 1u);
  EXPECT_EQ(irqs.raised().size(), 1u);
}

TEST(MsixTest, TranslatesIrqToMemoryWrite) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  MsixBridge bridge(mem);
  bridge.RegisterVector(5, 0x6000);
  bridge.RaiseIrq(5);
  bridge.RaiseIrq(5);
  EXPECT_EQ(mem.phys().Read64(0x6000), 2u);
  bridge.RaiseIrq(6);  // unregistered
  EXPECT_EQ(bridge.dropped(), 1u);
}

TEST(BlockDeviceTest, WriteThenReadRoundTrip) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  BlockDevice dev(sim, mem, BlockConfig{});
  const Addr kSq = 0x200000;
  const Addr kCq = 0x201000;
  const Addr kCqTail = 0x202000;
  const Addr kBuf = 0x210000;
  auto mmio = [&](Addr reg, uint64_t v) { mem.Write(0, BlockConfig{}.mmio_base + reg, 8, v); };
  mmio(kBlkSqBase, kSq);
  mmio(kBlkSqSize, 16);
  mmio(kBlkCqBase, kCq);
  mmio(kBlkCqTailAddr, kCqTail);

  // Write command: 512 bytes from kBuf to LBA 4.
  mem.phys().Write64(kBuf, 0xfeedfacecafebeefull);
  uint8_t cmd[BlockCommand::kBytes] = {};
  cmd[0] = BlockCommand::kOpWrite;
  uint64_t lba = 4;
  uint32_t len = 512;
  Addr buf = kBuf;
  memcpy(cmd + 8, &lba, 8);
  memcpy(cmd + 16, &len, 4);
  memcpy(cmd + 24, &buf, 8);
  mem.phys().Write(kSq, cmd, sizeof(cmd));
  mmio(kBlkSqDoorbell, 1);
  sim.queue().RunAll();
  EXPECT_EQ(dev.completed(), 1u);
  EXPECT_EQ(mem.phys().Read64(kCqTail), 1u);
  EXPECT_EQ(dev.storage().Read64(4 * 512), 0xfeedfacecafebeefull);

  // Read it back to a different buffer.
  cmd[0] = BlockCommand::kOpRead;
  buf = kBuf + 0x1000;
  memcpy(cmd + 24, &buf, 8);
  mem.phys().Write(kSq + BlockCommand::kBytes, cmd, sizeof(cmd));
  const Tick before = sim.now();
  mmio(kBlkSqDoorbell, 2);
  sim.queue().RunAll();
  EXPECT_EQ(dev.completed(), 2u);
  EXPECT_EQ(mem.phys().Read64(kBuf + 0x1000), 0xfeedfacecafebeefull);
  EXPECT_GE(sim.now() - before, kBlockReadLatency);
}

TEST(FabricTest, RoutesBetweenNics) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  NicConfig cfg_a;
  NicConfig cfg_b;
  cfg_b.mmio_base = 0xf0100000;
  Nic nic_a(sim, mem, cfg_a);
  Nic nic_b(sim, mem, cfg_b);
  Fabric fabric(sim, FabricConfig{});
  fabric.Attach(1, &nic_a);
  fabric.Attach(2, &nic_b);

  // Configure B's RX ring.
  NicDescriptor d;
  d.buf = kRxBufs;
  uint8_t raw[16] = {};
  memcpy(raw, &d.buf, 8);
  mem.phys().Write(kRxRing, raw, 16);
  mem.Write(0, cfg_b.mmio_base + kNicRxBase, 8, kRxRing);
  mem.Write(0, cfg_b.mmio_base + kNicRxSize, 8, 8);
  mem.Write(0, cfg_b.mmio_base + kNicRxTailAddr, 8, kRxTail);

  // A transmits a frame addressed to node 2.
  std::vector<uint8_t> frame(FabricHeader::kBytes + 4);
  FabricHeader h;
  h.dst = 2;
  h.src = 1;
  h.WriteTo(&frame);
  frame[16] = 'x';
  mem.phys().Write(kTxBufs, frame.data(), frame.size());
  NicDescriptor td;
  td.buf = kTxBufs;
  td.len = static_cast<uint32_t>(frame.size());
  uint8_t traw[16];
  memcpy(traw, &td.buf, 8);
  memcpy(traw + 8, &td.len, 4);
  memset(traw + 12, 0, 4);
  mem.phys().Write(kTxRing, traw, 16);
  mem.Write(0, cfg_a.mmio_base + kNicTxBase, 8, kTxRing);
  mem.Write(0, cfg_a.mmio_base + kNicTxSize, 8, 8);
  mem.Write(0, cfg_a.mmio_base + kNicTxDoorbell, 8, 1);

  sim.queue().RunAll();
  EXPECT_EQ(fabric.frames_routed(), 1u);
  EXPECT_EQ(nic_b.rx_frames(), 1u);
  EXPECT_EQ(mem.phys().Read64(kRxTail), 1u);
  EXPECT_EQ(mem.phys().Read8(kRxBufs + 16), 'x');
}

TEST(DeviceIntegrationTest, NicRxWakesHardwareThread) {
  // The E2/E3 mechanism end-to-end: a hardware thread monitors the RX tail;
  // a frame arrival (DMA) wakes it without any interrupt.
  Machine m;
  Nic nic(m.sim(), m.mem(), NicConfig{});
  // Post one RX buffer.
  uint8_t raw[16] = {};
  const Addr buf = kRxBufs;
  memcpy(raw, &buf, 8);
  m.mem().phys().Write(kRxRing, raw, 16);
  m.mem().Write(0, NicConfig{}.mmio_base + kNicRxBase, 8, kRxRing);
  m.mem().Write(0, NicConfig{}.mmio_base + kNicRxSize, 8, 8);
  m.mem().Write(0, NicConfig{}.mmio_base + kNicRxTailAddr, 8, kRxTail);

  std::vector<Tick> handled_at;
  const Ptid server = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(kRxTail);
        for (;;) {
          co_await ctx.Mwait();
          co_await ctx.Load(kRxBufs);  // touch the frame
          handled_at.push_back(co_await ctx.ReadCsr(Csr::kCycle));
        }
      },
      true);
  m.Start(server);
  m.RunFor(500);
  ASSERT_EQ(m.threads().thread(server).state(), ThreadState::kWaiting);

  const Tick inject_time = m.sim().now();
  nic.InjectFrame({7, 7, 7, 7});
  m.RunFor(2000);
  ASSERT_EQ(handled_at.size(), 1u);
  const Tick latency = handled_at[0] - inject_time;
  // DMA latency (300) + wakeup + a few instructions: far below a baseline
  // IRQ + schedule path, and bounded.
  EXPECT_GE(latency, kNicRxDmaLatency);
  EXPECT_LE(latency, kNicRxDmaLatency + 150);
}

TEST_F(NicTest, TxRingWrapsAround) {
  std::vector<std::vector<uint8_t>> sent;
  nic_.SetTxHandler([&](const std::vector<uint8_t>& f) { sent.push_back(f); });
  // 20 transmissions through an 8-entry ring.
  for (uint64_t i = 0; i < 20; i++) {
    const Addr buf = kTxBufs + (i % 8) * 256;
    mem_.phys().Write8(buf, static_cast<uint8_t>(i));
    NicDescriptor d;
    d.buf = buf;
    d.len = 1;
    WriteDesc(kTxRing + (i % 8) * NicDescriptor::kBytes, d);
    Mmio(kNicTxDoorbell, i + 1);
    sim_.queue().RunAll();
  }
  ASSERT_EQ(sent.size(), 20u);
  for (uint64_t i = 0; i < 20; i++) {
    EXPECT_EQ(sent[i][0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(mem_.phys().Read64(kTxHead), 20u);
}

TEST_F(NicTest, BurstOfFramesDeliveredInOrder) {
  for (uint8_t i = 0; i < 6; i++) {
    nic_.InjectFrame({i});
  }
  sim_.queue().RunAll();
  EXPECT_EQ(nic_.rx_frames(), 6u);
  for (uint64_t i = 0; i < 6; i++) {
    EXPECT_EQ(mem_.phys().Read8(kRxBufs + i * 2048), i);
  }
  EXPECT_EQ(mem_.phys().Read64(kRxTail), 6u);
}

TEST_F(NicTest, RxWrapsRingAfterConsumption) {
  for (int round = 0; round < 3; round++) {
    for (uint8_t i = 0; i < 8; i++) {
      nic_.InjectFrame({static_cast<uint8_t>(round * 8 + i)});
    }
    sim_.queue().RunAll();
    Mmio(kNicRxHead, (round + 1) * 8);
  }
  EXPECT_EQ(nic_.rx_frames(), 24u);
  EXPECT_EQ(nic_.rx_dropped(), 0u);
  // Last round overwrote the first slots.
  EXPECT_EQ(mem_.phys().Read8(kRxBufs), 16u);
}

TEST(BlockDeviceTest, QueuedCommandsCompleteSerially) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  BlockDevice dev(sim, mem, BlockConfig{});
  const Addr kSq = 0x200000;
  const Addr kCqTail = 0x202000;
  auto mmio = [&](Addr reg, uint64_t v) { mem.Write(0, BlockConfig{}.mmio_base + reg, 8, v); };
  mmio(kBlkSqBase, kSq);
  mmio(kBlkSqSize, 16);
  mmio(kBlkCqTailAddr, kCqTail);
  for (uint64_t i = 0; i < 4; i++) {
    dev.storage().Write64(i * 512, 0x1000 + i);
    uint8_t cmd[BlockCommand::kBytes] = {};
    cmd[0] = BlockCommand::kOpRead;
    const uint64_t lba = i;
    const uint32_t len = 512;
    const Addr buf = 0x300000 + i * 512;
    memcpy(cmd + 8, &lba, 8);
    memcpy(cmd + 16, &len, 4);
    memcpy(cmd + 24, &buf, 8);
    mem.phys().Write(kSq + i * BlockCommand::kBytes, cmd, sizeof(cmd));
  }
  const Tick t0 = sim.now();
  mmio(kBlkSqDoorbell, 4);  // one doorbell for the whole batch
  sim.queue().RunAll();
  EXPECT_EQ(dev.completed(), 4u);
  EXPECT_EQ(mem.phys().Read64(kCqTail), 4u);
  for (uint64_t i = 0; i < 4; i++) {
    EXPECT_EQ(mem.phys().Read64(0x300000 + i * 512), 0x1000 + i);
  }
  // Serial device: 4 commands take at least 4x the single-command latency.
  EXPECT_GE(sim.now() - t0, 4 * kBlockReadLatency);
}

TEST(FabricTest, UnroutableFrameDropped) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  Nic nic(sim, mem, NicConfig{});
  Fabric fabric(sim, FabricConfig{});
  fabric.Attach(1, &nic);
  std::vector<uint8_t> frame(16, 0);
  uint64_t dst = 99;  // unknown node
  memcpy(frame.data(), &dst, 8);
  fabric.InjectFrom(1, frame);
  sim.queue().RunAll();
  EXPECT_EQ(fabric.frames_dropped(), 1u);
  EXPECT_EQ(fabric.frames_routed(), 0u);
}

TEST(FabricTest, SelfAddressedFrameDropped) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  Nic nic(sim, mem, NicConfig{});
  Fabric fabric(sim, FabricConfig{});
  fabric.Attach(1, &nic);
  std::vector<uint8_t> frame(16, 0);
  uint64_t dst = 1;
  memcpy(frame.data(), &dst, 8);
  fabric.InjectFrom(1, frame);
  sim.queue().RunAll();
  EXPECT_EQ(fabric.frames_dropped(), 1u);
}

TEST(FabricTest, SerializationDelayScalesWithFrameSize) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  NicConfig cfg_a;
  NicConfig cfg_b;
  cfg_b.mmio_base = 0xf0100000;
  Nic a(sim, mem, cfg_a);
  Nic b(sim, mem, cfg_b);
  FabricConfig fc;
  Fabric fabric(sim, fc);
  fabric.Attach(1, &a);
  fabric.Attach(2, &b);
  // Configure B minimally so frames deliver.
  uint8_t raw[16] = {};
  const Addr buf = 0x110000;
  memcpy(raw, &buf, 8);
  mem.phys().Write(0x100000, raw, 16);
  mem.Write(0, cfg_b.mmio_base + kNicRxBase, 8, 0x100000);
  mem.Write(0, cfg_b.mmio_base + kNicRxSize, 8, 8);

  auto send = [&](size_t bytes) {
    std::vector<uint8_t> frame(bytes, 0);
    uint64_t dst = 2;
    memcpy(frame.data(), &dst, 8);
    const Tick t0 = sim.now();
    fabric.InjectFrom(1, frame);
    sim.queue().RunAll();
    return sim.now() - t0;
  };
  const Tick small = send(64);
  const Tick large = send(2048);
  EXPECT_GT(large, small);
  EXPECT_EQ(large - small, (2048 - 64) / kFabricBytesPerCycle);
}

TEST(MultiQueueNicTest, RssSteersFlowsAcrossQueues) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  NicConfig cfg;
  cfg.num_rx_queues = 4;
  Nic nic(sim, mem, cfg);
  // Configure all 4 queues with rings and tails.
  for (uint32_t q = 0; q < 4; q++) {
    const Addr ring = 0x100000 + q * 0x1000;
    const Addr bufs = 0x200000 + q * 0x10000;
    const Addr tail = 0x300000 + q * 0x40;
    // 32 buffers per queue: RSS may put up to ~half the 64 flows on one queue.
    for (uint64_t i = 0; i < 32; i++) {
      const Addr buf = bufs + i * 2048;
      uint8_t raw[16] = {};
      memcpy(raw, &buf, 8);
      mem.phys().Write(ring + i * 16, raw, 16);
    }
    const Addr regs = q == 0 ? cfg.mmio_base : cfg.mmio_base + kNicRegSpan +
                                                   (q - 1) * kNicRxQueueSpan;
    mem.Write(0, regs + 0x00, 8, ring);
    mem.Write(0, regs + 0x08, 8, 32);
    mem.Write(0, regs + 0x10, 8, tail);
  }
  // 64 distinct flow ids spread across queues.
  for (uint64_t flow = 1; flow <= 64; flow++) {
    std::vector<uint8_t> frame(16, 0);
    memcpy(frame.data(), &flow, 8);
    nic.InjectFrame(std::move(frame));
  }
  sim.queue().RunAll();
  EXPECT_EQ(nic.rx_frames(), 64u);
  uint32_t nonempty = 0;
  uint64_t total = 0;
  for (uint32_t q = 0; q < 4; q++) {
    const uint64_t n = nic.rx_produced_on(q);
    EXPECT_EQ(mem.phys().Read64(0x300000 + q * 0x40), n);
    total += n;
    nonempty += n > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, 64u);
  EXPECT_GE(nonempty, 3u);  // hash spreads 64 flows over >= 3 of 4 queues
}

TEST(MultiQueueNicTest, SameFlowStaysOnOneQueue) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  NicConfig cfg;
  cfg.num_rx_queues = 4;
  Nic nic(sim, mem, cfg);
  const Addr ring = 0x100000;
  const Addr tail = 0x300000;
  // Only configure the queue the flow hashes to after observing it once:
  // instead, configure all queues identically pointing at separate tails.
  for (uint32_t q = 0; q < 4; q++) {
    const Addr regs = q == 0 ? cfg.mmio_base : cfg.mmio_base + kNicRegSpan +
                                                   (q - 1) * kNicRxQueueSpan;
    for (uint64_t i = 0; i < 8; i++) {
      const Addr buf = 0x200000 + q * 0x10000 + i * 2048;
      uint8_t raw[16] = {};
      memcpy(raw, &buf, 8);
      mem.phys().Write(ring + q * 0x1000 + i * 16, raw, 16);
    }
    mem.Write(0, regs + 0x00, 8, ring + q * 0x1000);
    mem.Write(0, regs + 0x08, 8, 8);
    mem.Write(0, regs + 0x10, 8, tail + q * 0x40);
  }
  const uint64_t flow = 0x1234;
  for (int i = 0; i < 6; i++) {
    std::vector<uint8_t> frame(16, 0);
    memcpy(frame.data(), &flow, 8);
    nic.InjectFrame(std::move(frame));
    sim.queue().RunAll();
  }
  uint32_t queues_used = 0;
  for (uint32_t q = 0; q < 4; q++) {
    queues_used += nic.rx_produced_on(q) > 0 ? 1 : 0;
  }
  EXPECT_EQ(queues_used, 1u);  // in-order delivery per flow
}

TEST(MultiQueueNicTest, ExplicitQueueSteering) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  NicConfig cfg;
  cfg.num_rx_queues = 2;
  Nic nic(sim, mem, cfg);
  const Addr regs1 = cfg.mmio_base + kNicRegSpan;
  uint8_t raw[16] = {};
  const Addr buf = 0x200000;
  memcpy(raw, &buf, 8);
  mem.phys().Write(0x100000, raw, 16);
  mem.Write(0, regs1 + 0x00, 8, 0x100000);
  mem.Write(0, regs1 + 0x08, 8, 8);
  mem.Write(0, regs1 + 0x10, 8, 0x300000);
  nic.InjectFrameToQueue(1, {9, 9});
  sim.queue().RunAll();
  EXPECT_EQ(nic.rx_produced_on(1), 1u);
  EXPECT_EQ(nic.rx_produced_on(0), 0u);
  EXPECT_EQ(mem.phys().Read64(0x300000), 1u);
}

// Two NICs on one fabric; node 2's NIC posts no RX buffers, so every frame
// that reaches it is tail-dropped (counted in rx_dropped) when its RX DMA
// fires.
struct FabricRig {
  FabricRig() : mem(sim, MemConfig{}, 1), a(sim, mem, NicConfig{}), b(sim, mem, ServerCfg()) {
    fabric.Attach(1, &a);
    fabric.Attach(2, &b);
  }
  static NicConfig ServerCfg() {
    NicConfig cfg;
    cfg.mmio_base = 0xf0100000;
    return cfg;
  }
  void Send() {
    std::vector<uint8_t> frame(16, 0);
    const uint64_t dst = 2;
    memcpy(frame.data(), &dst, 8);
    fabric.InjectFrom(1, frame);
  }

  Simulation sim;
  MemorySystem mem;
  Nic a;
  Nic b;
  Fabric fabric{sim, FabricConfig{}};
};

TEST(FabricTest, LinkFaultHookDropsInTransit) {
  FabricRig rig;
  uint64_t seen = 0;
  rig.fabric.SetLinkFaultHook([&](uint64_t src, uint64_t dst) -> int64_t {
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(dst, 2u);
    return seen++ % 4 == 0 ? -1 : 0;  // drop every fourth frame
  });
  for (int i = 0; i < 100; i++) {
    rig.Send();
  }
  rig.sim.queue().RunAll();
  EXPECT_EQ(rig.fabric.frames_lost(), 25u);
  EXPECT_EQ(rig.fabric.frames_lost() + rig.fabric.frames_routed(), 100u);
  EXPECT_EQ(rig.b.rx_dropped(), 75u);  // only routed frames reach the NIC
}

TEST(FabricTest, LinkFaultHookDelaysDeliveryByItsVerdict) {
  // The tick at which the receiving NIC finishes taking in one frame sent
  // at tick 0 under a fixed hook verdict.
  auto arrival = [](int64_t verdict) {
    FabricRig rig;
    rig.fabric.SetLinkFaultHook([verdict](uint64_t, uint64_t) { return verdict; });
    rig.Send();
    rig.sim.queue().RunAll();
    EXPECT_EQ(rig.b.rx_dropped(), 1u);
    EXPECT_EQ(rig.fabric.frames_lost(), 0u);
    return rig.sim.now();
  };
  const Tick base = arrival(0);
  EXPECT_GT(base, kFabricWireLatency);
  EXPECT_EQ(arrival(1), base + 1);
  EXPECT_EQ(arrival(250), base + 250);
}

}  // namespace
}  // namespace casc

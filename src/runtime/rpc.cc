#include "src/runtime/rpc.h"

#include <cstring>
#include <deque>

namespace casc {

std::vector<uint8_t> RpcFrame::Make(uint64_t dst, uint64_t src, uint64_t req_id,
                                    uint64_t service_cycles) {
  std::vector<uint8_t> frame(kBytes, 0);
  std::memcpy(frame.data(), &dst, 8);
  std::memcpy(frame.data() + 8, &src, 8);
  std::memcpy(frame.data() + kReqIdOff, &req_id, 8);
  std::memcpy(frame.data() + kServiceOff, &service_cycles, 8);
  return frame;
}

NicRings SetupNicRings(MemorySystem& mem, Nic& nic, Addr region, uint32_t entries) {
  NicRings rings;
  rings.entries = entries;
  rings.rx_ring = region + 0x0000;
  rings.rx_tail = region + 0x4000;
  rings.rx_bufs = region + 0x8000;
  rings.tx_ring = region + 0x90000;
  rings.tx_head = region + 0x94000;
  for (uint32_t i = 0; i < entries; i++) {
    const Addr buf = rings.rx_bufs + static_cast<Addr>(i) * 2048;
    uint8_t raw[NicDescriptor::kBytes] = {};
    std::memcpy(raw, &buf, 8);
    mem.phys().Write(rings.rx_ring + i * NicDescriptor::kBytes, raw, sizeof(raw));
  }
  const Addr mmio = nic.config().mmio_base;
  mem.Write(0, mmio + kNicRxBase, 8, rings.rx_ring);
  mem.Write(0, mmio + kNicRxSize, 8, entries);
  mem.Write(0, mmio + kNicRxTailAddr, 8, rings.rx_tail);
  mem.Write(0, mmio + kNicTxBase, 8, rings.tx_ring);
  mem.Write(0, mmio + kNicTxSize, 8, entries);
  mem.Write(0, mmio + kNicTxHeadAddr, 8, rings.tx_head);
  return rings;
}

RpcNode::RpcNode(Machine& machine, CoreId core, uint64_t node_id, Nic* nic, Addr region,
                 uint32_t num_workers, RpcMode mode)
    : machine_(machine),
      core_(core),
      node_id_(node_id),
      nic_(nic),
      region_(region),
      num_workers_(num_workers),
      mode_(mode),
      served_(machine.sim().stats().Intern("runtime.rpc.node" + std::to_string(node_id) +
                                           ".served")) {}

void RpcNode::Install() {
  rings_ = SetupNicRings(machine_.mem(), *nic_, region_, kRingEntries);
  if (mode_ == RpcMode::kEventLoop) {
    const Ptid loop = machine_.BindNative(
        core_, 0, [this](GuestContext& ctx) -> GuestTask { return EventLoop(ctx); },
        /*supervisor=*/true);
    machine_.Start(loop);
    return;
  }
  const Ptid dispatcher = machine_.BindNative(
      core_, 0, [this](GuestContext& ctx) -> GuestTask { return Dispatcher(ctx); },
      /*supervisor=*/true);
  for (uint32_t w = 0; w < num_workers_; w++) {
    const Ptid worker = machine_.BindNative(
        core_, 1 + w, [this, w](GuestContext& ctx) -> GuestTask { return Worker(ctx, w); },
        /*supervisor=*/true);
    machine_.Start(worker);
  }
  machine_.Start(dispatcher);
}

GuestTask RpcNode::Transmit(GuestContext& ctx, Addr buf, uint32_t len) {
  const Addr desc = rings_.tx_ring + (tx_produced_ % kRingEntries) * NicDescriptor::kBytes;
  co_await ctx.Store(desc, buf);
  co_await ctx.Store(desc + 8, len, 4);
  co_await ctx.Store(desc + 12, 0, 4);
  tx_produced_++;
  co_await ctx.Store(nic_->config().mmio_base + kNicTxDoorbell, tx_produced_);
}

GuestTask RpcNode::Dispatcher(GuestContext& ctx) {
  struct Pending {
    uint64_t client;
    uint64_t req_id;
    uint64_t service;
  };
  std::deque<Pending> backlog;
  std::vector<uint32_t> free_workers;
  std::vector<uint64_t> mbox_seq(num_workers_, 0);
  for (uint32_t w = num_workers_; w > 0; w--) {
    free_workers.push_back(w - 1);
  }
  uint64_t rx_seen = 0;
  uint64_t done_seen = 0;
  co_await ctx.Monitor(rings_.rx_tail);
  co_await ctx.Monitor(DoneDoorbell());

  for (;;) {
    // 1. Completions: transmit responses, free workers.
    for (;;) {
      const Addr entry = DoneRing(done_seen);
      const uint64_t valid = co_await ctx.Load(entry + 24);
      if (valid != done_seen + 1) {
        break;
      }
      const uint64_t widx = co_await ctx.Load(entry);
      const uint64_t buf = co_await ctx.Load(entry + 8);
      const uint64_t len = co_await ctx.Load(entry + 16);
      co_await ctx.Call(Transmit(ctx, buf, static_cast<uint32_t>(len)));
      done_seen++;
      served_++;
      free_workers.push_back(static_cast<uint32_t>(widx));
    }
    // 2. New requests: read header fields, hand to a worker or queue.
    const uint64_t tail = co_await ctx.Load(rings_.rx_tail);
    while (rx_seen < tail) {
      const Addr buf = rings_.rx_bufs + (rx_seen % kRingEntries) * 2048;
      Pending p;
      p.client = co_await ctx.Load(buf + 8);  // fabric src
      p.req_id = co_await ctx.Load(buf + RpcFrame::kReqIdOff);
      p.service = co_await ctx.Load(buf + RpcFrame::kServiceOff);
      rx_seen++;
      co_await ctx.Store(nic_->config().mmio_base + kNicRxHead, rx_seen);
      backlog.push_back(p);
    }
    // 3. Assign backlog to free workers: args line first, then the doorbell
    // line the worker monitors.
    while (!backlog.empty() && !free_workers.empty()) {
      const Pending p = backlog.front();
      backlog.pop_front();
      const uint32_t w = free_workers.back();
      free_workers.pop_back();
      co_await ctx.Store(MboxArgs(w), p.client);
      co_await ctx.Store(MboxArgs(w) + 8, p.req_id);
      co_await ctx.Store(MboxArgs(w) + 16, p.service);
      mbox_seq[w]++;
      co_await ctx.Store(MboxDoorbell(w), mbox_seq[w]);
    }
    co_await ctx.Mwait();
  }
}

GuestTask RpcNode::Worker(GuestContext& ctx, uint32_t index) {
  uint64_t last_seq = 0;
  co_await ctx.Monitor(MboxDoorbell(index));
  for (;;) {
    const uint64_t seq = co_await ctx.Load(MboxDoorbell(index));
    if (seq == last_seq) {
      co_await ctx.Mwait();
      continue;
    }
    last_seq = seq;
    const uint64_t client = co_await ctx.Load(MboxArgs(index));
    const uint64_t req_id = co_await ctx.Load(MboxArgs(index) + 8);
    const uint64_t service = co_await ctx.Load(MboxArgs(index) + 16);

    co_await ctx.Compute(service);  // the application work

    // Stage the response in a ticket-indexed slot (safe against NIC readback
    // races), publish the completion entry, ring the dispatcher.
    const uint64_t ticket = co_await ctx.AtomicAdd(DoneTicket(), 1);
    const Addr staging = TxStaging(ticket);
    co_await ctx.Store(staging, client);        // fabric dst
    co_await ctx.Store(staging + 8, node_id_);  // fabric src
    co_await ctx.Store(staging + RpcFrame::kReqIdOff, req_id);
    const Addr entry = DoneRing(ticket);
    co_await ctx.Store(entry, index);
    co_await ctx.Store(entry + 8, staging);
    co_await ctx.Store(entry + 16, RpcFrame::kBytes);
    co_await ctx.Store(entry + 24, ticket + 1);  // valid marker, written last
    co_await ctx.AtomicAdd(DoneDoorbell(), 1);
  }
}

GuestTask RpcNode::EventLoop(GuestContext& ctx) {
  uint64_t rx_seen = 0;
  co_await ctx.Monitor(rings_.rx_tail);
  for (;;) {
    const uint64_t tail = co_await ctx.Load(rings_.rx_tail);
    while (rx_seen < tail) {
      const Addr buf = rings_.rx_bufs + (rx_seen % kRingEntries) * 2048;
      const uint64_t client = co_await ctx.Load(buf + 8);
      const uint64_t req_id = co_await ctx.Load(buf + RpcFrame::kReqIdOff);
      const uint64_t service = co_await ctx.Load(buf + RpcFrame::kServiceOff);
      rx_seen++;
      co_await ctx.Store(nic_->config().mmio_base + kNicRxHead, rx_seen);

      co_await ctx.Compute(service);

      const Addr staging = TxStaging(served_.get());
      co_await ctx.Store(staging, client);
      co_await ctx.Store(staging + 8, node_id_);
      co_await ctx.Store(staging + RpcFrame::kReqIdOff, req_id);
      co_await ctx.Call(Transmit(ctx, staging, RpcFrame::kBytes));
      served_++;
    }
    co_await ctx.Mwait();
  }
}

}  // namespace casc

#include "src/dev/nic.h"

#include <cassert>
#include <cstring>

namespace casc {

Nic::Nic(Simulation& sim, MemorySystem& mem, const NicConfig& config, IrqSink* irq_sink)
    : sim_(sim),
      mem_(mem),
      config_(config),
      irq_sink_(irq_sink),
      rx_event_([this] { DeliverRx(); }),
      tx_event_([this] { CompleteTx(); }) {
  assert(config_.num_rx_queues >= 1);
  rx_queues_.resize(config_.num_rx_queues);
  const Addr span =
      kNicRegSpan + static_cast<Addr>(config_.num_rx_queues - 1) * kNicRxQueueSpan;
  mem_.RegisterMmio(config_.mmio_base, span, this);
}

NicDescriptor Nic::ReadDesc(Addr addr) const {
  uint8_t raw[NicDescriptor::kBytes];
  const_cast<MemorySystem&>(mem_).DmaRead(addr, raw, sizeof(raw));
  NicDescriptor d;
  std::memcpy(&d.buf, raw, 8);
  std::memcpy(&d.len, raw + 8, 4);
  std::memcpy(&d.flags, raw + 12, 4);
  return d;
}

void Nic::WriteDesc(Addr addr, const NicDescriptor& desc) {
  uint8_t raw[NicDescriptor::kBytes];
  std::memcpy(raw, &desc.buf, 8);
  std::memcpy(raw + 8, &desc.len, 4);
  std::memcpy(raw + 12, &desc.flags, 4);
  mem_.DmaWrite(addr, raw, sizeof(raw));
}

uint32_t Nic::SteerQueue(const std::vector<uint8_t>& frame) const {
  if (config_.num_rx_queues == 1) {
    return 0;
  }
  // RSS: hash the first 8 bytes (flow identifier by convention).
  uint64_t key = 0;
  std::memcpy(&key, frame.data(), std::min<size_t>(8, frame.size()));
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<uint32_t>((z ^ (z >> 31)) % config_.num_rx_queues);
}

void Nic::InjectFrame(std::vector<uint8_t> frame) {
  // Hash before moving: argument evaluation order must not empty the frame.
  const uint32_t queue = SteerQueue(frame);
  InjectFrameToQueue(queue, std::move(frame));
}

void Nic::InjectFrameToQueue(uint32_t queue, std::vector<uint8_t> frame) {
  assert(queue < rx_queues_.size());
  if (frame.size() > kNicMaxFrameBytes) {
    frame.resize(kNicMaxFrameBytes);
  }
  rx_queues_[queue].pending.push_back(std::move(frame));
  if (!rx_event_.scheduled()) {
    sim_.queue().ScheduleAfter(&rx_event_, kNicRxDmaLatency);
  }
}

void Nic::DeliverRx() {
  for (uint32_t qi = 0; qi < rx_queues_.size(); qi++) {
    RxQueue& q = rx_queues_[qi];
    while (!q.pending.empty()) {
      if (q.size == 0 || q.produced - q.head >= q.size) {
        // No posted buffers: tail-drop (counted; back-pressure experiment).
        rx_dropped_ += q.pending.size();
        q.pending.clear();
        break;
      }
      std::vector<uint8_t> frame = std::move(q.pending.front());
      q.pending.pop_front();
      const Addr desc_addr = q.base + (q.produced % q.size) * NicDescriptor::kBytes;
      NicDescriptor desc = ReadDesc(desc_addr);
      Addr buf = desc.buf;
      if (rx_buf_hook_) {
        buf = rx_buf_hook_(qi, buf);
      }
      mem_.DmaWrite(buf, frame.data(), frame.size());
      desc.len = static_cast<uint32_t>(frame.size());
      desc.flags |= NicDescriptor::kFlagDone;
      WriteDesc(desc_addr, desc);
      q.produced++;
      rx_produced_total_++;
      rx_frames_++;
      // The notification the paper builds on: bump the RX tail counter in
      // memory. Threads monitor this line instead of taking an interrupt.
      if (q.tail_addr != 0) {
        mem_.DmaWrite64(q.tail_addr, q.produced);
      }
      if (irq_enable_ && irq_sink_ != nullptr) {
        irq_sink_->RaiseIrq(config_.irq_vector);
      }
      if (rx_observer_) {
        rx_observer_(frame);
      }
    }
  }
}

void Nic::CompleteTx() {
  while (tx_completed_ < tx_doorbell_) {
    const Addr desc_addr = TxDescAddr(tx_completed_);
    NicDescriptor desc = ReadDesc(desc_addr);
    std::vector<uint8_t> frame(desc.len);
    mem_.DmaRead(desc.buf, frame.data(), frame.size());
    tx_completed_++;
    tx_frames_++;
    if (tx_head_addr_ != 0) {
      mem_.DmaWrite64(tx_head_addr_, tx_completed_);
    }
    if (tx_handler_) {
      tx_handler_(frame);
    }
  }
}

uint64_t Nic::MmioRead(Addr offset, size_t) {
  if (offset >= kNicRegSpan) {
    const uint32_t q = 1 + static_cast<uint32_t>((offset - kNicRegSpan) / kNicRxQueueSpan);
    const Addr reg = (offset - kNicRegSpan) % kNicRxQueueSpan;
    if (q >= rx_queues_.size()) {
      return 0;
    }
    switch (reg) {
      case 0x00:
        return rx_queues_[q].base;
      case 0x08:
        return rx_queues_[q].size;
      case 0x10:
        return rx_queues_[q].tail_addr;
      case 0x18:
        return rx_queues_[q].head;
      default:
        return 0;
    }
  }
  switch (offset) {
    case kNicRxBase:
      return rx_queues_[0].base;
    case kNicRxSize:
      return rx_queues_[0].size;
    case kNicRxTailAddr:
      return rx_queues_[0].tail_addr;
    case kNicRxHead:
      return rx_queues_[0].head;
    case kNicTxBase:
      return tx_base_;
    case kNicTxSize:
      return tx_size_;
    case kNicTxHeadAddr:
      return tx_head_addr_;
    case kNicTxDoorbell:
      return tx_doorbell_;
    case kNicIrqEnable:
      return irq_enable_ ? 1 : 0;
    default:
      return 0;
  }
}

void Nic::MmioWrite(Addr offset, size_t, uint64_t value) {
  auto rx_head_write = [this](uint32_t q, uint64_t v) {
    rx_queues_[q].head = v;
    // Freed buffers may unblock queued frames.
    if (!rx_queues_[q].pending.empty() && !rx_event_.scheduled()) {
      sim_.queue().ScheduleAfter(&rx_event_, 1);
    }
  };
  if (offset >= kNicRegSpan) {
    const uint32_t q = 1 + static_cast<uint32_t>((offset - kNicRegSpan) / kNicRxQueueSpan);
    const Addr reg = (offset - kNicRegSpan) % kNicRxQueueSpan;
    if (q >= rx_queues_.size()) {
      return;
    }
    switch (reg) {
      case 0x00:
        rx_queues_[q].base = value;
        break;
      case 0x08:
        rx_queues_[q].size = value;
        break;
      case 0x10:
        rx_queues_[q].tail_addr = value;
        break;
      case 0x18:
        rx_head_write(q, value);
        break;
      default:
        break;
    }
    return;
  }
  switch (offset) {
    case kNicRxBase:
      rx_queues_[0].base = value;
      break;
    case kNicRxSize:
      rx_queues_[0].size = value;
      break;
    case kNicRxTailAddr:
      rx_queues_[0].tail_addr = value;
      break;
    case kNicRxHead:
      rx_head_write(0, value);
      break;
    case kNicTxBase:
      tx_base_ = value;
      break;
    case kNicTxSize:
      tx_size_ = value;
      break;
    case kNicTxHeadAddr:
      tx_head_addr_ = value;
      break;
    case kNicTxDoorbell:
      tx_doorbell_ = value;
      if (!tx_event_.scheduled()) {
        sim_.queue().ScheduleAfter(&tx_event_, kNicTxLatency);
      }
      break;
    case kNicIrqEnable:
      irq_enable_ = value != 0;
      break;
    default:
      break;
  }
}

}  // namespace casc

#include "src/dev/block_dev.h"

#include <cstring>
#include <vector>

namespace casc {

BlockDevice::BlockDevice(Simulation& sim, MemorySystem& mem, const BlockConfig& config,
                         IrqSink* irq_sink)
    : sim_(sim),
      mem_(mem),
      config_(config),
      irq_sink_(irq_sink),
      done_event_([this] { FinishCurrent(); }) {
  mem_.RegisterMmio(config_.mmio_base, kBlkRegSpan, this);
}

void BlockDevice::ProcessNext() {
  if (busy_ || sq_consumed_ >= sq_doorbell_ || sq_size_ == 0) {
    return;
  }
  const Addr entry = sq_base_ + (sq_consumed_ % sq_size_) * BlockCommand::kBytes;
  uint8_t raw[BlockCommand::kBytes];
  mem_.DmaRead(entry, raw, sizeof(raw));
  current_.opcode = raw[0];
  std::memcpy(&current_.lba, raw + 8, 8);
  std::memcpy(&current_.len, raw + 16, 4);
  std::memcpy(&current_.buf, raw + 24, 8);
  sq_consumed_++;
  busy_ = true;
  const Tick media =
      current_.opcode == BlockCommand::kOpWrite ? kBlockWriteLatency : kBlockReadLatency;
  const Tick stream = current_.len / kBlockBytesPerCycle;
  sim_.queue().ScheduleAfter(&done_event_, media + stream);
}

void BlockDevice::FinishCurrent() {
  if (completion_fault_hook_ && completion_fault_hook_(current_, sq_consumed_)) {
    // Command timeout: the device silently loses the completion. The driver
    // must detect this with its own deadline and resubmit.
    swallowed_++;
    busy_ = false;
    ProcessNext();
    return;
  }
  const Addr lba_byte = current_.lba * 512;
  if (current_.opcode == BlockCommand::kOpRead) {
    std::vector<uint8_t> data(current_.len);
    storage_.Read(lba_byte, data.data(), data.size());
    mem_.DmaWrite(current_.buf, data.data(), data.size());
  } else if (current_.opcode == BlockCommand::kOpWrite) {
    std::vector<uint8_t> data(current_.len);
    mem_.DmaRead(current_.buf, data.data(), data.size());
    storage_.Write(lba_byte, data.data(), data.size());
  }
  completed_++;
  if (cq_base_ != 0) {
    uint8_t entry[16] = {};
    std::memcpy(entry, &completed_, 8);
    entry[8] = 0;  // status: OK
    mem_.DmaWrite(cq_base_ + ((completed_ - 1) % (sq_size_ == 0 ? 1 : sq_size_)) * 16, entry, 16);
  }
  if (cq_tail_addr_ != 0) {
    mem_.DmaWrite64(cq_tail_addr_, completed_);
  }
  if (irq_enable_ && irq_sink_ != nullptr) {
    irq_sink_->RaiseIrq(config_.irq_vector);
  }
  if (completion_observer_) {
    completion_observer_(completed_);
  }
  busy_ = false;
  ProcessNext();
}

uint64_t BlockDevice::MmioRead(Addr offset, size_t) {
  switch (offset) {
    case kBlkSqBase:
      return sq_base_;
    case kBlkSqSize:
      return sq_size_;
    case kBlkSqDoorbell:
      return sq_doorbell_;
    case kBlkCqBase:
      return cq_base_;
    case kBlkCqTailAddr:
      return cq_tail_addr_;
    case kBlkIrqEnable:
      return irq_enable_ ? 1 : 0;
    default:
      return 0;
  }
}

void BlockDevice::MmioWrite(Addr offset, size_t, uint64_t value) {
  switch (offset) {
    case kBlkSqBase:
      sq_base_ = value;
      break;
    case kBlkSqSize:
      sq_size_ = value;
      break;
    case kBlkSqDoorbell:
      sq_doorbell_ = value;
      if (doorbell_observer_) {
        doorbell_observer_(sq_doorbell_);
      }
      ProcessNext();
      break;
    case kBlkCqBase:
      cq_base_ = value;
      break;
    case kBlkCqTailAddr:
      cq_tail_addr_ = value;
      break;
    case kBlkIrqEnable:
      irq_enable_ = value != 0;
      break;
    default:
      break;
  }
}

}  // namespace casc

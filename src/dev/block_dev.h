// An NVMe-flavored block device: a submission queue in guest memory with an
// MMIO doorbell, a completion queue whose in-memory tail counter is
// monitorable (no interrupt needed), and a private backing store. Models the
// "modern SSDs ... context switches occur too frequently" I/O class from §1.
#ifndef SRC_DEV_BLOCK_DEV_H_
#define SRC_DEV_BLOCK_DEV_H_

#include <cstdint>
#include <functional>

#include "src/dev/irq.h"
#include "src/mem/memory_system.h"
#include "src/mem/phys_mem.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace casc {

inline constexpr Tick kBlockReadLatency = 24000;    // ~8 us flash read at 3 GHz
inline constexpr Tick kBlockWriteLatency = 60000;   // ~20 us program
inline constexpr uint32_t kBlockBytesPerCycle = 8;  // device-internal streaming rate

struct BlockConfig {
  Addr mmio_base = 0xf1000000;
  uint32_t irq_vector = 0x31;
};

// Submission entry (32 bytes):
//   [0]      opcode (1 = read, 2 = write)
//   [8..15]  LBA (512-byte sectors)
//   [16..19] length in bytes
//   [24..31] buffer physical address
// Completion entry (16 bytes): [0..7] command id, [8] status.
struct BlockCommand {
  uint8_t opcode = 0;
  uint64_t lba = 0;
  uint32_t len = 0;
  Addr buf = 0;

  static constexpr uint32_t kBytes = 32;
  static constexpr uint8_t kOpRead = 1;
  static constexpr uint8_t kOpWrite = 2;
};

enum BlockReg : Addr {
  kBlkSqBase = 0x00,
  kBlkSqSize = 0x08,
  kBlkSqDoorbell = 0x10,  // software producer index
  kBlkCqBase = 0x18,
  kBlkCqTailAddr = 0x20,  // memory counter bumped per completion
  kBlkIrqEnable = 0x28,
  kBlkRegSpan = 0x30,
};

class BlockDevice : public MmioDevice {
 public:
  BlockDevice(Simulation& sim, MemorySystem& mem, const BlockConfig& config,
              IrqSink* irq_sink = nullptr);

  uint64_t MmioRead(Addr offset, size_t len) override;
  void MmioWrite(Addr offset, size_t len, uint64_t value) override;

  // Direct backing-store access for test setup / verification.
  PhysicalMemory& storage() { return storage_; }

  uint64_t completed() const { return completed_; }
  uint64_t swallowed() const { return swallowed_; }

  // Fault-injection hook: consulted when a command finishes media time.
  // Returning true swallows the completion — no data transfer, no CQ entry,
  // no tail bump, no IRQ — which the driver observes as a command timeout.
  // `seq` is the 1-based submission index of the command.
  using CompletionFaultHook = std::function<bool(const BlockCommand& cmd, uint64_t seq)>;
  void SetCompletionFaultHook(CompletionFaultHook hook) {
    completion_fault_hook_ = std::move(hook);
  }
  // Observers for recovery accounting: every successful completion, and
  // every SQ doorbell write (a doorbell after a swallowed completion is the
  // driver's retry).
  using CompletionObserver = std::function<void(uint64_t completed)>;
  void SetCompletionObserver(CompletionObserver obs) { completion_observer_ = std::move(obs); }
  using DoorbellObserver = std::function<void(uint64_t doorbell)>;
  void SetDoorbellObserver(DoorbellObserver obs) { doorbell_observer_ = std::move(obs); }

 private:
  void ProcessNext();
  void FinishCurrent();

  Simulation& sim_;
  MemorySystem& mem_;
  BlockConfig config_;
  IrqSink* irq_sink_;
  PhysicalMemory storage_;

  Addr sq_base_ = 0;
  uint64_t sq_size_ = 0;
  uint64_t sq_doorbell_ = 0;
  uint64_t sq_consumed_ = 0;
  Addr cq_base_ = 0;
  Addr cq_tail_addr_ = 0;
  uint64_t completed_ = 0;
  uint64_t swallowed_ = 0;
  bool irq_enable_ = false;
  bool busy_ = false;
  BlockCommand current_;
  CompletionFaultHook completion_fault_hook_;
  CompletionObserver completion_observer_;
  DoorbellObserver doorbell_observer_;
  LambdaEvent<std::function<void()>> done_event_;
};

}  // namespace casc

#endif  // SRC_DEV_BLOCK_DEV_H_

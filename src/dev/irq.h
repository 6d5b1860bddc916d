// Interrupt plumbing. In the paper's proposed model devices never interrupt:
// they write memory and the monitor filter wakes hardware threads. The IRQ
// path here exists for the *baseline* architecture (and for the MSI-X
// translation experiment): devices raise vectors into an IrqSink, which the
// baseline kernel model implements as a trap.
#ifndef SRC_DEV_IRQ_H_
#define SRC_DEV_IRQ_H_

#include <cstdint>
#include <vector>

#include "src/sim/types.h"

namespace casc {

class IrqSink {
 public:
  virtual ~IrqSink() = default;
  virtual void RaiseIrq(uint32_t vector) = 0;
};

// Trivial sink: records every raised vector in order (tests, glue).
class IrqDispatcher : public IrqSink {
 public:
  void RaiseIrq(uint32_t vector) override { raised_.push_back(vector); }

  const std::vector<uint32_t>& raised() const { return raised_; }

 private:
  std::vector<uint32_t> raised_;
};

}  // namespace casc

#endif  // SRC_DEV_IRQ_H_

#include "src/dev/fabric.h"

namespace casc {

void Fabric::Attach(uint64_t node_id, Nic* nic) {
  nodes_.push_back({node_id, nic});
  nic->SetTxHandler(
      [this, node_id](const std::vector<uint8_t>& frame) { Route(node_id, frame); });
}

void Fabric::Route(uint64_t src_node, const std::vector<uint8_t>& frame) {
  const FabricHeader header = FabricHeader::ReadFrom(frame);
  Nic* dst = nullptr;
  for (const auto& [id, nic] : nodes_) {
    if (id == header.dst) {
      dst = nic;
      break;
    }
  }
  if (dst == nullptr || header.dst == src_node) {
    frames_dropped_++;
    return;
  }
  Tick fault_delay = 0;
  if (link_fault_hook_) {
    const int64_t verdict = link_fault_hook_(src_node, header.dst);
    if (verdict < 0) {
      frames_lost_++;
      return;
    }
    fault_delay = static_cast<Tick>(verdict);
  }
  frames_routed_++;
  if (delivery_observer_) {
    delivery_observer_(src_node, header.dst);
  }
  const Tick serialize = frame.size() / kFabricBytesPerCycle;
  const Tick delay = kFabricWireLatency + serialize + fault_delay;
  sim_.queue().ScheduleFnAfter(delay, [dst, copy = frame]() mutable {
    dst->InjectFrame(std::move(copy));
  });
}

}  // namespace casc

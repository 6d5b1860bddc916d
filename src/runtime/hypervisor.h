// An *untrusted* hypervisor (§2 "Untrusted Hypervisors"): a hardware thread
// — which may run entirely in user mode — that supervises guest threads via
// TDT permissions alone. Guest "VM-exits" are exceptions: a privileged
// instruction in a user-mode guest disables the guest and writes an
// exception descriptor; the hypervisor thread monitors the descriptor slots,
// wakes, trap-and-emulates the instruction with rpull/rpush, and restarts
// the guest with `start`. No ring transition, no kernel involvement.
#ifndef SRC_RUNTIME_HYPERVISOR_H_
#define SRC_RUNTIME_HYPERVISOR_H_

#include <map>
#include <vector>

#include "src/cpu/machine.h"
#include "src/hwt/exception.h"

namespace casc {

inline constexpr Addr kHypDescBase = 0x00300000;  // guest i's exception descriptor at base + i*64
inline constexpr Addr kHypTdtBase = 0x00310000;   // the hypervisor's thread descriptor table

struct HypervisorConfig {
  bool privileged = false;  // false = the full "untrusted" configuration
};

class Hypervisor {
 public:
  Hypervisor(Machine& machine, CoreId core, uint32_t hyp_local, const HypervisorConfig& config);

  // Registers a local thread slot as guest #i (user mode, EDP at its slot).
  // The guest's pc/registers are whatever the caller loaded. Returns its ptid.
  Ptid AddGuest(uint32_t guest_local);

  // Writes the TDT, initializes the hypervisor thread, binds its program.
  // Call after all AddGuest calls; then machine.Start(hyp_ptid()).
  void Install();

  Ptid hyp_ptid() const { return hyp_ptid_; }
  Addr DescAddr(uint32_t guest_index) const {
    return kHypDescBase + guest_index * ExceptionDescriptor::kBytes;
  }

  uint64_t exits_handled() const { return exits_handled_.get(); }
  uint64_t guests_killed() const { return guests_killed_.get(); }
  // Value last written by a guest to a privileged CSR (the emulated state).
  uint64_t VirtualCsr(uint32_t guest_index, Csr csr) const;

 private:
  GuestTask Run(GuestContext& ctx);
  GuestTask HandleExit(GuestContext& ctx, uint32_t guest_index);

  Machine& machine_;
  CoreId core_;
  uint32_t hyp_local_;
  HypervisorConfig config_;
  Ptid hyp_ptid_ = kInvalidPtid;
  std::vector<Ptid> guests_;
  std::vector<uint64_t> last_seq_;
  std::vector<std::map<Csr, uint64_t>> virtual_csrs_;
  StatsRegistry::CounterHandle exits_handled_;
  StatsRegistry::CounterHandle guests_killed_;
};

}  // namespace casc

#endif  // SRC_RUNTIME_HYPERVISOR_H_

#include "src/runtime/hypervisor.h"

#include <cassert>

#include "src/hwt/tdt.h"

namespace casc {

Hypervisor::Hypervisor(Machine& machine, CoreId core, uint32_t hyp_local,
                       const HypervisorConfig& config)
    : machine_(machine),
      core_(core),
      hyp_local_(hyp_local),
      config_(config),
      exits_handled_(machine.sim().stats().Intern("runtime.hyp.exits_handled")),
      guests_killed_(machine.sim().stats().Intern("runtime.hyp.guests_killed")) {}

Ptid Hypervisor::AddGuest(uint32_t guest_local) {
  const Ptid ptid = machine_.threads().PtidOf(core_, guest_local);
  const uint32_t index = static_cast<uint32_t>(guests_.size());
  guests_.push_back(ptid);
  last_seq_.push_back(0);
  virtual_csrs_.emplace_back();
  // Guests run in user mode; their exception descriptors land in the
  // hypervisor's slot array.
  HwThread& t = machine_.threads().thread(ptid);
  t.arch().mode = 0;
  t.arch().edp = DescAddr(index);
  return ptid;
}

void Hypervisor::Install() {
  // TDT: vtid i -> guest i with full (but unprivileged) permissions.
  for (uint32_t i = 0; i < guests_.size(); i++) {
    TdtEntry{guests_[i], kPermAll}.WriteTo(machine_.mem(), kHypTdtBase, i);
  }
  hyp_ptid_ = machine_.BindNative(
      core_, hyp_local_, [this](GuestContext& ctx) -> GuestTask { return Run(ctx); },
      /*supervisor=*/config_.privileged);
  HwThread& hyp = machine_.threads().thread(hyp_ptid_);
  hyp.arch().tdtr = kHypTdtBase;
  hyp.arch().tdt_size = guests_.size();
}

uint64_t Hypervisor::VirtualCsr(uint32_t guest_index, Csr csr) const {
  const auto& map = virtual_csrs_[guest_index];
  auto it = map.find(csr);
  return it == map.end() ? 0 : it->second;
}

GuestTask Hypervisor::Run(GuestContext& ctx) {
  for (uint32_t i = 0; i < guests_.size(); i++) {
    co_await ctx.Monitor(DescAddr(i));
  }
  for (;;) {
    co_await ctx.Mwait();
    // Scan all slots: several guests may have exited while we were busy (the
    // "software-based queuing design" of §3.2, one slot per guest).
    for (uint32_t i = 0; i < guests_.size(); i++) {
      const uint64_t seq = co_await ctx.Load(DescAddr(i) + 40);  // seq field
      if (seq != 0 && seq != last_seq_[i]) {
        last_seq_[i] = seq;
        co_await ctx.Call(HandleExit(ctx, i));
      }
    }
  }
}

GuestTask Hypervisor::HandleExit(GuestContext& ctx, uint32_t guest_index) {
  const Addr desc = DescAddr(guest_index);
  const uint64_t type = co_await ctx.Load(desc, 4);
  if (type != static_cast<uint64_t>(ExceptionType::kPrivilegedInstruction)) {
    // Not emulatable (page fault policy, divide by zero...): kill the guest
    // by leaving it disabled.
    guests_killed_++;
    co_return;
  }
  // Trap-and-emulate: fetch the faulting instruction from guest memory.
  const uint64_t pc = co_await ctx.Rpull(guest_index, static_cast<uint32_t>(RemoteReg::kPc));
  const uint64_t word = co_await ctx.Load(pc, 4);
  const Instruction inst = Decode(static_cast<uint32_t>(word));
  co_await ctx.Compute(40);  // decode + emulation dispatch
  if (inst.op == Opcode::kCsrwr) {
    // The guest tried to write a privileged CSR: capture it in the virtual
    // CSR file (and apply side effects we choose to allow).
    const uint64_t value = co_await ctx.Rpull(guest_index, inst.rd);
    virtual_csrs_[guest_index][static_cast<Csr>(inst.imm)] = value;
  } else if (inst.op == Opcode::kCsrrd) {
    const uint64_t value = virtual_csrs_[guest_index][static_cast<Csr>(inst.imm)];
    co_await ctx.Rpush(guest_index, inst.rd, value);
  } else {
    guests_killed_++;
    co_return;
  }
  exits_handled_++;
  co_await ctx.Rpush(guest_index, static_cast<uint32_t>(RemoteReg::kPc), pc + kInstBytes);
  co_await ctx.Start(guest_index);
}

}  // namespace casc

#include "src/verify/harness.h"

#include <cstring>
#include <sstream>

#include "src/chaos/chaos_engine.h"
#include "src/dev/fabric.h"
#include "src/dev/nic.h"
#include "src/sim/event_queue.h"

namespace casc {
namespace verify {

namespace {

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool Masked(Addr addr, const std::vector<std::pair<Addr, Addr>>& masks) {
  for (const auto& [start, end] : masks) {
    if (addr >= start && addr < end) {
      return true;
    }
  }
  return false;
}

}  // namespace

void BootHarness(Machine& m, const Program& program, const std::vector<HarnessThread>& threads) {
  m.mem().AddSupervisorOnlyRange(0, 0x1000);
  // Fresh machine: no lines are predecoded yet, so loading straight into
  // physical memory needs no predecode invalidation here.
  program.LoadInto(m.mem().phys());
  for (const HarnessThread& t : threads) {
    m.threads().InitThread(t.ptid, t.entry, t.supervisor, t.edp, t.tdtr, t.tdt_size);
  }
  for (const HarnessThread& t : threads) {
    if (t.auto_start) {
      m.Start(t.ptid);
    }
  }
}

std::vector<std::pair<Addr, Addr>> DescriptorMaskRanges(
    const std::vector<HarnessThread>& threads) {
  std::vector<std::pair<Addr, Addr>> masks;
  for (const HarnessThread& t : threads) {
    if (t.edp != 0) {
      masks.emplace_back(t.edp + 32, t.edp + 48);  // tick + seq
    }
  }
  return masks;
}

std::string CompareSnapshots(const Snapshot& a, const Snapshot& b,
                             const std::vector<std::pair<Addr, Addr>>& mem_masks,
                             const std::string& a_name, const std::string& b_name) {
  std::ostringstream os;
  if (a.quiesced != b.quiesced) {
    os << "quiescence: " << a_name << "=" << a.quiesced << " " << b_name << "=" << b.quiesced;
    return os.str();
  }
  if (a.halted != b.halted) {
    os << "halted: " << a_name << "=" << a.halted << " (" << a.halt_reason << ") " << b_name
       << "=" << b.halted << " (" << b.halt_reason << ")";
    return os.str();
  }
  if (a.halted) {
    // A machine halt stops execution mid-flight; per-thread state at that
    // point is interleaving-dependent, so only the halt itself is compared.
    if (a.halt_reason != b.halt_reason) {
      os << "halt reason: " << a_name << "=\"" << a.halt_reason << "\" " << b_name << "=\""
         << b.halt_reason << "\"";
      return os.str();
    }
    return "";
  }
  for (uint32_t i = 0; i < kNumExceptionTypes; i++) {
    if (a.exc_counts[i] != b.exc_counts[i]) {
      os << "exception count " << ExceptionTypeName(static_cast<ExceptionType>(i)) << ": "
         << a_name << "=" << a.exc_counts[i] << " " << b_name << "=" << b.exc_counts[i];
      return os.str();
    }
  }
  const size_t n = std::min(a.threads.size(), b.threads.size());
  if (a.threads.size() != b.threads.size()) {
    os << "thread count: " << a_name << "=" << a.threads.size() << " " << b_name << "="
       << b.threads.size();
    return os.str();
  }
  for (size_t p = 0; p < n; p++) {
    const RefThread& x = a.threads[p];
    const RefThread& y = b.threads[p];
    if (x.state != y.state) {
      os << "ptid " << p << " state: " << a_name << "=" << ThreadStateName(x.state) << " "
         << b_name << "=" << ThreadStateName(y.state);
      return os.str();
    }
    auto field = [&](const char* name, uint64_t va, uint64_t vb) {
      if (va != vb && os.str().empty()) {
        os << "ptid " << p << " " << name << ": " << a_name << "=" << Hex(va) << " " << b_name
           << "=" << Hex(vb);
      }
    };
    for (uint32_t r = 0; r < kNumGprs; r++) {
      field(("r" + std::to_string(r)).c_str(), x.arch.gpr[r], y.arch.gpr[r]);
      if (!os.str().empty()) {
        return os.str();
      }
    }
    field("pc", x.arch.pc, y.arch.pc);
    field("mode", x.arch.mode, y.arch.mode);
    field("edp", x.arch.edp, y.arch.edp);
    field("tdtr", x.arch.tdtr, y.arch.tdtr);
    field("tdt_size", x.arch.tdt_size, y.arch.tdt_size);
    field("prio", x.arch.prio, y.arch.prio);
    field("self_key", x.arch.self_key, y.arch.self_key);
    field("auth_key", x.arch.auth_key, y.arch.auth_key);
    if (!os.str().empty()) {
      return os.str();
    }
  }
  if (a.mem_end != b.mem_end) {
    os << "mem_end: " << a_name << "=" << Hex(a.mem_end) << " " << b_name << "=" << Hex(b.mem_end);
    return os.str();
  }
  for (Addr addr = 0; addr < a.mem_end; addr++) {
    if (Masked(addr, mem_masks)) {
      continue;
    }
    if (a.mem[addr] != b.mem[addr]) {
      os << "mem[" << Hex(addr) << "]: " << a_name << "=" << Hex(a.mem[addr]) << " " << b_name
         << "=" << Hex(b.mem[addr]);
      return os.str();
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Simulator side
// ---------------------------------------------------------------------------

// Chaos attachment for one simulator run: the engine plus, when the plan
// includes fabric-link faults, a two-node background fabric (client NIC on
// core 0, server NIC on the last core, fixed frame burst). The rig's MMIO
// windows sit at 0xf0000000+, far above any generated program, and the
// server NIC is never programmed: frames drop at its empty ring, so the rig
// adds eligible link traffic without writing a byte of compared memory.
struct SimRun::ChaosRig {
  ChaosRig(Machine& machine, uint64_t seed) : engine(machine, seed) {}

  ChaosEngine engine;
  std::unique_ptr<Nic> client_nic;
  std::unique_ptr<Nic> server_nic;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<LambdaEvent<std::function<void()>>> pump;
  uint64_t frames_left = 0;
};

SimRun::~SimRun() = default;

SimRun::SimRun(const Program& program, const std::vector<HarnessThread>& threads,
               const MachineConfig& cfg)
    : program_(program), machine_(cfg) {
  BootHarness(machine_, program_, threads);
}

void SimRun::ArmChaos(const ChaosPlan& plan) {
  if (!plan.enabled || plan.specs.empty()) {
    return;
  }
  chaos_ = std::make_unique<ChaosRig>(machine_, plan.seed);
  bool want_fabric = false;
  for (const ChaosSpec& spec : plan.specs) {
    if (spec.cls == FaultClass::kFabricLinkFault) {
      want_fabric = true;
    }
    CampaignConfig campaign;
    campaign.fault = spec.cls;
    campaign.schedule = InjectionSchedule::EveryN(spec.every);
    campaign.max_faults = spec.max_faults;
    chaos_->engine.AddCampaign(campaign);
  }
  if (want_fabric) {
    Simulation& sim = machine_.sim();
    constexpr uint64_t kClientNode = 1;
    constexpr uint64_t kServerNode = 2;
    NicConfig client_cfg;
    client_cfg.mmio_base = 0xf0000000;
    chaos_->client_nic = std::make_unique<Nic>(sim, machine_.mem(), client_cfg);
    NicConfig server_cfg;
    server_cfg.mmio_base = 0xf0100000;
    chaos_->server_nic = std::make_unique<Nic>(sim, machine_.mem(), server_cfg);
    chaos_->fabric = std::make_unique<Fabric>(sim, FabricConfig{});
    chaos_->fabric->Attach(kClientNode, chaos_->client_nic.get());
    chaos_->fabric->Attach(kServerNode, chaos_->server_nic.get());
    chaos_->engine.AttachFabric(chaos_->fabric.get());
    // Fixed burst: the frame count never depends on how long the program
    // runs, so link-fault eligibility is identical at every lattice point
    // and the pump cannot keep a finished machine from quiescing.
    chaos_->frames_left = 48;
    ChaosRig* rig = chaos_.get();
    chaos_->pump = std::make_unique<LambdaEvent<std::function<void()>>>([this, rig] {
      std::vector<uint8_t> frame(FabricHeader::kBytes + 16);
      FabricHeader h;
      h.dst = kServerNode;
      h.src = kClientNode;
      h.WriteTo(&frame);
      const uint64_t seq = rig->frames_left;
      std::memcpy(frame.data() + FabricHeader::kBytes, &seq, 8);
      rig->fabric->InjectFrom(kClientNode, frame);
      if (--rig->frames_left > 0) {
        machine_.sim().queue().ScheduleAfter(rig->pump.get(), 2'000);
      }
    });
    sim.queue().Schedule(chaos_->pump.get(), 1'000);
  }
  chaos_->engine.Arm();
}

uint64_t SimRun::chaos_injected() const {
  return chaos_ ? chaos_->engine.total_injected() : 0;
}

Snapshot SimRun::Run(uint64_t max_events) {
  return Capture(machine_.RunToQuiescence(max_events));
}

Snapshot SimRun::RunBounded(Tick watchdog) {
  return Capture(machine_.DrainBudget(watchdog));
}

Snapshot SimRun::Capture(bool quiesced) {
  if (chaos_) {
    chaos_->engine.FinishRun();
  }
  Snapshot snap;
  snap.quiesced = quiesced;
  snap.halted = machine_.halted();
  snap.halt_reason = machine_.halt_reason();
  const uint32_t n = machine_.threads().num_threads();
  snap.threads.resize(n);
  for (Ptid p = 0; p < n; p++) {
    const HwThread& t = machine_.threads().thread(p);
    snap.threads[p].arch = t.arch();
    snap.threads[p].state = t.state();
  }
  snap.mem_end = program_.end();
  snap.mem.resize(snap.mem_end);
  for (Addr a = 0; a < snap.mem_end; a++) {
    snap.mem[a] = machine_.mem().phys().Read8(a);
  }
  for (uint32_t i = 0; i < kNumExceptionTypes; i++) {
    snap.exc_counts[i] = machine_.sim().stats().GetCounter(
        std::string("hwt.exception.") + ExceptionTypeName(static_cast<ExceptionType>(i)));
  }
  return snap;
}

std::string SimRun::CheckInvariants() const {
  std::ostringstream os;
  Machine& m = const_cast<Machine&>(machine_);
  const ThreadSystem& ts = m.threads();
  const HwtConfig& hc = ts.config();
  for (CoreId c = 0; c < m.num_cores(); c++) {
    const ContextStore& store = m.threads().store(c);
    if (store.rf_occupancy() > hc.rf_slots) {
      return "context store: rf_occupancy " + std::to_string(store.rf_occupancy()) +
             " > rf_slots " + std::to_string(hc.rf_slots);
    }
    if (store.l2_used() > hc.l2_slots) {
      return "context store: l2_used " + std::to_string(store.l2_used()) + " > l2_slots " +
             std::to_string(hc.l2_slots);
    }
    if (store.l3_used() > hc.l3_slots) {
      return "context store: l3_used " + std::to_string(store.l3_used()) + " > l3_slots " +
             std::to_string(hc.l3_slots);
    }
    // No double-occupancy: each thread's tier() claims exactly one slot, and
    // the per-tier claims must add up to the store's counters.
    uint32_t in_rf = 0;
    uint32_t in_l2 = 0;
    uint32_t in_l3 = 0;
    for (uint32_t local = 0; local < hc.threads_per_core; local++) {
      switch (ts.thread(ts.PtidOf(c, local)).tier()) {
        case StorageTier::kRegFile:
          in_rf++;
          break;
        case StorageTier::kL2:
          in_l2++;
          break;
        case StorageTier::kL3:
          in_l3++;
          break;
        case StorageTier::kDram:
          break;
      }
    }
    if (in_rf != store.rf_occupancy() || in_l2 != store.l2_used() || in_l3 != store.l3_used()) {
      os << "context store tier mismatch on core " << c << ": threads rf/l2/l3 " << in_rf << "/"
         << in_l2 << "/" << in_l3 << " vs store " << store.rf_occupancy() << "/"
         << store.l2_used() << "/" << store.l3_used();
      return os.str();
    }
  }
  // Every cached vtid translation must agree with a fresh walk of the
  // issuer's current in-memory TDT (the `invtid`-managed cache must be
  // transparent when the table is static).
  if (hc.security_model == SecurityModel::kTdt) {
    const PhysicalMemory& phys = m.mem().phys();
    for (Ptid p = 0; p < ts.num_threads(); p++) {
      const ArchState& arch = ts.thread(p).arch();
      if (arch.tdtr == 0) {
        continue;
      }
      std::string err;
      ts.vtid_cache(p).ForEach([&](Vtid vtid, const Translation& cached) {
        if (!err.empty()) {
          return;
        }
        const Addr entry_addr = arch.tdtr + static_cast<Addr>(vtid) * TdtEntry::kBytes;
        const Ptid walk_ptid = phys.Read32(entry_addr);
        const uint8_t walk_perms = phys.Read8(entry_addr + 4);
        if (!cached.valid || cached.ptid != walk_ptid || cached.perms != walk_perms ||
            walk_perms == 0) {
          err = "vtid cache of ptid " + std::to_string(p) + " entry vtid " +
                std::to_string(vtid) + ": cached (ptid " + std::to_string(cached.ptid) +
                ", perms " + std::to_string(cached.perms) + ") vs walk (ptid " +
                std::to_string(walk_ptid) + ", perms " + std::to_string(walk_perms) + ")";
        }
      });
      if (!err.empty()) {
        return err;
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Reference side
// ---------------------------------------------------------------------------

Snapshot RunOnRef(const Program& program, const std::vector<HarnessThread>& threads,
                  const RefConfig& cfg, uint64_t max_steps) {
  RefMachine ref(cfg);
  ref.AddSupervisorOnlyRange(0, 0x1000);
  if (!program.bytes.empty()) {
    ref.mem().Write(program.base, program.bytes.data(), program.bytes.size());
  }
  for (const HarnessThread& t : threads) {
    ref.InitThread(t.ptid, t.entry, t.supervisor, t.edp, t.tdtr, t.tdt_size);
  }
  for (const HarnessThread& t : threads) {
    if (t.auto_start) {
      ref.Start(t.ptid);
    }
  }
  Snapshot snap;
  snap.quiesced = ref.Run(max_steps);
  snap.halted = ref.halted();
  snap.halt_reason = ref.halt_reason();
  snap.threads.resize(cfg.num_threads);
  for (Ptid p = 0; p < cfg.num_threads; p++) {
    snap.threads[p] = ref.thread(p);
  }
  snap.mem_end = program.end();
  snap.mem.resize(snap.mem_end);
  for (Addr a = 0; a < snap.mem_end; a++) {
    snap.mem[a] = ref.mem().Read8(a);
  }
  for (uint32_t i = 0; i < kNumExceptionTypes; i++) {
    snap.exc_counts[i] = ref.exception_count(static_cast<ExceptionType>(i));
  }
  return snap;
}

}  // namespace verify
}  // namespace casc

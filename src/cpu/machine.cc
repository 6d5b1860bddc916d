#include "src/cpu/machine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace casc {

Machine::Machine(const MachineConfig& config)
    : config_(config), sim_(config.ghz, config.seed) {
  mem_ = std::make_unique<MemorySystem>(sim_, config_.mem, config_.num_cores);
  ts_ = std::make_unique<ThreadSystem>(sim_, *mem_, config_.hwt, config_.num_cores);
  for (uint32_t c = 0; c < config_.num_cores; c++) {
    cores_.push_back(std::make_unique<Core>(sim_, *mem_, *ts_, c));
    Core* core = cores_.back().get();
    ts_->SetWakeHook(c, [core] { core->Kick(); });
  }
}

Ptid Machine::Load(CoreId core, uint32_t local_thread, const Program& program, bool supervisor,
                   const std::string& entry, Addr edp) {
  program.LoadInto(mem_->phys());
  // LoadInto writes physical memory directly (no MemorySystem::Write), so the
  // code-write listeners never saw it — drop all predecoded lines.
  for (auto& c : cores_) {
    c->InvalidatePredecodeAll();
  }
  const Ptid ptid = ts_->PtidOf(core, local_thread);
  const Addr pc = entry.empty() ? program.base : program.Symbol(entry);
  ts_->InitThread(ptid, pc, supervisor, edp);
  return ptid;
}

Ptid Machine::LoadSource(CoreId core, uint32_t local_thread, const std::string& source,
                         bool supervisor, const std::string& entry, Addr edp, Addr base) {
  const AssembleResult result = Assembler::Assemble(source, base);
  if (!result.ok) {
    std::fprintf(stderr, "assembly failed: %s\n", result.error.c_str());
    std::abort();
  }
  return Load(core, local_thread, result.program, supervisor, entry, edp);
}

Ptid Machine::BindNative(CoreId core, uint32_t local_thread, NativeProgram program,
                         bool supervisor, Addr edp) {
  const Ptid ptid = ts_->PtidOf(core, local_thread);
  cores_[core]->BindNative(ptid, std::move(program));
  ts_->InitThread(ptid, /*pc=*/0, supervisor, edp);
  return ptid;
}

void Machine::Start(Ptid ptid) { ts_->MakeRunnable(ptid); }

void Machine::SetHcallHandler(Core::HcallHandler handler) {
  for (auto& core : cores_) {
    core->SetHcallHandler(handler);
  }
}

void Machine::SetConcurrencyObserver(ConcurrencyObserver* observer) {
  ts_->SetConcurrencyObserver(observer);
  for (auto& core : cores_) {
    core->SetConcurrencyObserver(observer);
  }
}

bool Machine::RunToQuiescence(uint64_t max_events) {
  return sim_.queue().RunAll(max_events) < max_events;
}

bool Machine::DrainBudget(Tick limit) {
  sim_.queue().RunWhile(limit, [this] { return !ts_->halted(); });
  return sim_.queue().Empty();
}

}  // namespace casc

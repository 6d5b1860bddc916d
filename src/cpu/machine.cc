#include "src/cpu/machine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace casc {

namespace {
uint32_t g_default_host_threads = 0;
}  // namespace

void SetDefaultHostThreads(uint32_t n) { g_default_host_threads = n; }
uint32_t GetDefaultHostThreads() { return g_default_host_threads; }

Machine::Machine(const MachineConfig& config)
    : config_(config), sim_(config.ghz, config.seed) {
  uint32_t host_threads = config_.host_threads == MachineConfig::kHostThreadsDefault
                              ? GetDefaultHostThreads()
                              : config_.host_threads;
  if (config_.num_cores > shard::kMaxShards) {
    host_threads = 0;  // beyond the shard table: fall back to the legacy engine
  }
  if (host_threads >= 1) {
    // Sharding must be enabled before anything interns a stat, schedules an
    // event, or captures a queue pointer.
    sim_.stats().EnableSharding(config_.num_cores);
    sim_.EnableSharding(config_.num_cores);
    engine_ = std::make_unique<ShardEngine>(sim_, config_.num_cores, host_threads,
                                            config_.cross_shard_hop);
    sim_.set_router(engine_.get());
  }
  mem_ = std::make_unique<MemorySystem>(sim_, config_.mem, config_.num_cores);
  if (engine_ != nullptr) {
    mem_->EnableSharding(engine_.get());
  }
  ts_ = std::make_unique<ThreadSystem>(sim_, *mem_, config_.hwt, config_.num_cores);
  if (engine_ != nullptr) {
    engine_->AddBarrierHook([this] { mem_->FlushWindow(); });
    engine_->AddBarrierHook([this] { ts_->MergeHaltProposals(); });
    engine_->SetHaltedFn([this] { return ts_->halted(); });
  }
  for (uint32_t c = 0; c < config_.num_cores; c++) {
    cores_.push_back(std::make_unique<Core>(sim_, *mem_, *ts_, c, config_.timings));
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

void Machine::RunUntil(Tick tick) {
  if (engine_ != nullptr) {
    engine_->Advance(tick, std::numeric_limits<uint64_t>::max(), /*stop_on_halt=*/false,
                     /*normalize_to_limit=*/true);
    return;
  }
  sim_.queue().RunUntil(tick);
}

bool Machine::RunToQuiescence(uint64_t max_events) {
  if (engine_ != nullptr) {
    const uint64_t fired =
        engine_->Advance(std::numeric_limits<Tick>::max(), max_events, /*stop_on_halt=*/false,
                         /*normalize_to_limit=*/false);
    return fired < max_events;
  }
  const uint64_t fired = sim_.queue().RunAll(max_events);
  return fired < max_events;
}

bool Machine::DrainBudget(Tick limit) {
  if (engine_ != nullptr) {
    engine_->Advance(limit, std::numeric_limits<uint64_t>::max(), /*stop_on_halt=*/true,
                     /*normalize_to_limit=*/false);
    for (uint32_t s = 0; s < sim_.num_shards(); s++) {
      if (!sim_.QueueFor(s).Empty()) {
        return false;
      }
    }
    return true;
  }
  sim_.queue().RunWhile(limit, [this] { return !ts_->halted(); });
  return sim_.queue().Empty();
}

}  // namespace casc

#include "src/analysis/hb.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "src/hwt/perm.h"

namespace casc {
namespace analysis {

namespace {

std::string Hex(Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

uint32_t AccessSize(Opcode op) {
  switch (op) {
    case Opcode::kLd:
    case Opcode::kSd:
    case Opcode::kAmoadd:
      return 8;
    case Opcode::kLw:
    case Opcode::kSw:
      return 4;
    case Opcode::kLh:
    case Opcode::kSh:
      return 2;
    default:
      return 1;
  }
}

bool IsPlainLoad(Opcode op) {
  return op == Opcode::kLd || op == Opcode::kLw || op == Opcode::kLh || op == Opcode::kLb;
}

bool IsPlainStore(Opcode op) {
  return op == Opcode::kSd || op == Opcode::kSw || op == Opcode::kSh || op == Opcode::kSb;
}

// Lines covered by an access: at most two, wrap-safe (see ForEachAccessLine
// in dataflow.cc; accesses are <= 8 bytes, lines are 64).
std::vector<uint64_t> LinesOf(uint64_t addr, uint32_t size) {
  const uint64_t first = LineBase(addr);
  const uint64_t last = LineBase(addr + (size - 1));
  if (first == last) {
    return {first};
  }
  return {first, last};
}

// One statically visible memory access inside a region, with the dataflow
// facts snapshotted at its program point.
struct Access {
  size_t inst = 0;  // index into prog.insts
  uint64_t addr = 0;
  uint32_t size = 0;
  bool is_load = false;
  bool is_store = false;
  bool is_atomic = false;
  // Store into a line some live region arms: a release the waiter consumes,
  // exempt from the plain data-race rule (candidate monitor-store-race).
  bool sync_store = false;
  // Load entirely within lines this region has armed on every path: the
  // monitor/mwait protocol's guarded re-check, exempt from data-race.
  bool sync_load = false;
  std::set<uint64_t> started_may;  // snapshot of FlowState::started_may
  std::set<uint64_t> acq;         // lines acquired on every path before here
};

struct RegionInfo {
  HarnessThread spec;
  AnalysisOptions opts;
  DataflowResult flow;
  bool live = false;
  bool valid = false;                 // entry decodes to an instruction
  std::set<uint64_t> arms;            // lines armed anywhere in the region
  std::set<Ptid> starts;              // ptids this region may start
  std::vector<Access> accesses;
  std::map<uint64_t, std::vector<size_t>> stores_to_line;  // line -> access idx
  std::map<size_t, std::vector<char>> reach;  // block -> reachable-from map
  std::map<size_t, std::set<uint64_t>> acq_in;  // must-acquired at block entry
};

class ConcurrencyPass {
 public:
  ConcurrencyPass(const Program& program, const DecodedProgram& prog, const Cfg& cfg,
                  const AnalysisOptions& options, const std::vector<HarnessThread>& threads)
      : program_(program), prog_(prog), cfg_(cfg), options_(options) {
    for (const HarnessThread& t : threads) {
      RegionInfo info;
      info.spec = t;
      regions_.push_back(std::move(info));
    }
  }

  std::vector<Diagnostic> Run() {
    for (RegionInfo& r : regions_) {
      AnalyzeRegion(&r);
    }
    ComputeLiveness();
    CollectArms();
    for (RegionInfo& r : regions_) {
      if (r.live && r.valid) {
        ComputeReach(&r);
        ComputeAcquires(&r);
        CollectAccesses(&r);
      }
    }
    for (size_t i = 0; i < regions_.size(); i++) {
      for (size_t j = i + 1; j < regions_.size(); j++) {
        if (regions_[i].live && regions_[i].valid && regions_[j].live && regions_[j].valid) {
          CheckPair(i, j);
        }
      }
    }
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& x, const Diagnostic& y) { return x.addr < y.addr; });
    return std::move(diags_);
  }

 private:
  // --- per-region dataflow ------------------------------------------------

  void AnalyzeRegion(RegionInfo* r) {
    r->opts = options_;
    r->opts.entry_supervisor = r->spec.supervisor;
    r->opts.assume_edp_at_entry = r->spec.edp != 0;
    if (r->spec.tdt_size != 0) {
      r->opts.tdt_capacity = r->spec.tdt_size;
    }
    const size_t idx = prog_.IndexAt(r->spec.entry);
    if (idx == SIZE_MAX) {
      return;
    }
    r->valid = true;
    FlowRoot root{cfg_.block_of[idx], EntryState(r->opts, /*secondary=*/false)};
    r->flow = RunDataflowRoots(prog_, cfg_, r->opts, {root});

    // Record which ptids the region may start (for liveness), resolving
    // vtids through the region's static TDT.
    ForEachReachableInst(*r, [&](const DecodedInst& di, const FlowState& s,
                                 const std::set<uint64_t>&) {
      if (di.inst.op == Opcode::kStart) {
        const ConstVal v = di.inst.rs1 == 0 ? ConstVal{true, 0} : s.regs[di.inst.rs1];
        if (v.known) {
          Ptid ptid = 0;
          if (ResolveVtid(*r, v.value, &ptid)) {
            r->starts.insert(ptid);
          }
        }
      }
    });
  }

  // vtid -> ptid through the region's TDT when it is a static in-image table;
  // identity for the supervisor default (tdtr == 0, ThreadSystem's identity
  // map) and for tables the image does not contain.
  bool ResolveVtid(const RegionInfo& r, uint64_t vtid, Ptid* ptid) const {
    if (r.spec.tdtr == 0) {
      if (!r.spec.supervisor) {
        return false;  // user thread with no TDT cannot start anything
      }
      *ptid = static_cast<Ptid>(vtid);
      return true;
    }
    if (vtid >= r.spec.tdt_size) {
      return false;
    }
    const Addr entry_addr = r.spec.tdtr + vtid * 16;
    if (entry_addr < program_.base || entry_addr + 16 > program_.end()) {
      // Table built at runtime: assume identity so started regions stay live.
      *ptid = static_cast<Ptid>(vtid);
      return true;
    }
    const size_t off = static_cast<size_t>(entry_addr - program_.base);
    const uint8_t perms = program_.bytes[off + 4];
    if (perms == 0 || (perms & kPermStart) == 0) {
      return false;
    }
    *ptid = static_cast<Ptid>(program_.bytes[off]) |
            static_cast<Ptid>(program_.bytes[off + 1]) << 8 |
            static_cast<Ptid>(program_.bytes[off + 2]) << 16 |
            static_cast<Ptid>(program_.bytes[off + 3]) << 24;
    return true;
  }

  void ComputeLiveness() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (RegionInfo& r : regions_) {
        if (!r.live && r.spec.auto_start) {
          r.live = true;
          changed = true;
        }
        if (!r.live || !r.valid) {
          continue;
        }
        for (Ptid started : r.starts) {
          for (RegionInfo& other : regions_) {
            if (other.spec.ptid == started && !other.live) {
              other.live = true;
              changed = true;
            }
          }
        }
      }
    }
  }

  void CollectArms() {
    for (RegionInfo& r : regions_) {
      if (!r.live || !r.valid) {
        continue;
      }
      ForEachReachableInst(r, [&](const DecodedInst& di, const FlowState& s,
                                  const std::set<uint64_t>&) {
        if (di.inst.op == Opcode::kMonitor) {
          const ConstVal v = di.inst.rs1 == 0 ? ConstVal{true, 0} : s.regs[di.inst.rs1];
          if (v.known) {
            r.arms.insert(LineBase(v.value));
          }
        }
      });
      armed_lines_.insert(r.arms.begin(), r.arms.end());
    }
  }

  // Block-level reachability closure restricted to the region's blocks.
  // reach[a][b] == there is a path of >= 1 edge from a to b, so
  // reach[a][a] means a sits on a cycle.
  void ComputeReach(RegionInfo* r) {
    std::vector<size_t> blocks;
    for (size_t b = 0; b < cfg_.blocks.size(); b++) {
      if (r->flow.block_in[b].reachable) {
        blocks.push_back(b);
      }
    }
    for (size_t from : blocks) {
      std::vector<char> seen(cfg_.blocks.size(), 0);
      std::deque<size_t> work;
      for (const CfgEdge& e : cfg_.blocks[from].succs) {
        if (r->flow.block_in[e.to].reachable && !seen[e.to]) {
          seen[e.to] = 1;
          work.push_back(e.to);
        }
      }
      while (!work.empty()) {
        const size_t b = work.front();
        work.pop_front();
        for (const CfgEdge& e : cfg_.blocks[b].succs) {
          if (r->flow.block_in[e.to].reachable && !seen[e.to]) {
            seen[e.to] = 1;
            work.push_back(e.to);
          }
        }
      }
      r->reach[from] = std::move(seen);
    }
  }

  // Forward must-analysis: the set of lines this region has acquired (mwait
  // return with a usable watch, or a guarded load of a self-armed line) on
  // every path from its entry. An acquire edge never expires: it orders the
  // acquirer after every release that preceded the acquire.
  void ComputeAcquires(RegionInfo* r) {
    const size_t entry_idx = prog_.IndexAt(r->spec.entry);
    const size_t entry_block = cfg_.block_of[entry_idx];
    std::map<size_t, bool> defined;
    r->acq_in[entry_block] = {};
    defined[entry_block] = true;

    std::deque<size_t> work{entry_block};
    std::set<size_t> queued{entry_block};
    while (!work.empty()) {
      const size_t b = work.front();
      work.pop_front();
      queued.erase(b);
      std::set<uint64_t> acq = r->acq_in[b];
      FlowState s = r->flow.block_in[b];
      const BasicBlock& bb = cfg_.blocks[b];
      for (size_t i = bb.first; i <= bb.last; i++) {
        GenAcquires(prog_.insts[i], s, &acq);
        TransferInst(prog_.insts[i], r->opts, &s);
      }
      for (const CfgEdge& e : bb.succs) {
        if (!r->flow.block_in[e.to].reachable) {
          continue;
        }
        bool changed = false;
        if (!defined[e.to]) {
          r->acq_in[e.to] = acq;
          defined[e.to] = true;
          changed = true;
        } else {
          std::set<uint64_t>& into = r->acq_in[e.to];
          for (auto it = into.begin(); it != into.end();) {
            if (acq.count(*it) == 0) {
              it = into.erase(it);
              changed = true;
            } else {
              ++it;
            }
          }
        }
        if (changed && queued.insert(e.to).second) {
          work.push_back(e.to);
        }
      }
    }
  }

  void GenAcquires(const DecodedInst& di, const FlowState& s, std::set<uint64_t>* acq) const {
    if (di.inst.op == Opcode::kMwait) {
      // An mwait return proves a store hit a watched line — unless this
      // thread may have stored there itself, in which case the pending flag
      // proves nothing about remote progress.
      for (uint64_t line : s.armed_must) {
        if (s.selfstore_may.count(line) == 0) {
          acq->insert(line);
        }
      }
      return;
    }
    if (IsPlainLoad(di.inst.op)) {
      const ConstVal v = di.inst.rs1 == 0 ? ConstVal{true, 0} : s.regs[di.inst.rs1];
      if (!v.known) {
        return;
      }
      const uint64_t addr = v.value + static_cast<uint64_t>(di.inst.imm);
      const auto lines = LinesOf(addr, AccessSize(di.inst.op));
      // A guarded load of a self-armed line is the protocol's re-check: the
      // value it observes decides whether to sleep, so we model it as an
      // acquire of the line (assuming the branch it feeds is honored —
      // a documented imprecision, DESIGN.md §4h).
      for (uint64_t line : lines) {
        if (s.armed_must.count(line) == 0) {
          return;
        }
      }
      for (uint64_t line : lines) {
        acq->insert(line);
      }
    }
  }

  void CollectAccesses(RegionInfo* r) {
    for (size_t b = 0; b < cfg_.blocks.size(); b++) {
      if (!r->flow.block_in[b].reachable) {
        continue;
      }
      FlowState s = r->flow.block_in[b];
      std::set<uint64_t> acq = r->acq_in[b];
      const BasicBlock& bb = cfg_.blocks[b];
      for (size_t i = bb.first; i <= bb.last; i++) {
        const DecodedInst& di = prog_.insts[i];
        const Instruction& inst = di.inst;
        const bool load = IsPlainLoad(inst.op);
        const bool store = IsPlainStore(inst.op);
        const bool atomic = inst.op == Opcode::kAmoadd;
        if (load || store || atomic) {
          const ConstVal base = inst.rs1 == 0 ? ConstVal{true, 0} : s.regs[inst.rs1];
          if (base.known) {
            Access a;
            a.inst = i;
            a.addr = atomic ? base.value
                            : base.value + static_cast<uint64_t>(
                                               static_cast<int64_t>(inst.imm));
            a.size = AccessSize(inst.op);
            a.is_load = load || atomic;
            a.is_store = store || atomic;
            a.is_atomic = atomic;
            const auto lines = LinesOf(a.addr, a.size);
            if (a.is_store) {
              a.sync_store = std::any_of(lines.begin(), lines.end(), [&](uint64_t l) {
                return armed_lines_.count(l) != 0;
              });
            }
            if (load) {
              a.sync_load = std::all_of(lines.begin(), lines.end(), [&](uint64_t l) {
                return s.armed_must.count(l) != 0;
              });
            }
            a.started_may = s.started_may;
            a.acq = acq;
            if (a.is_store) {
              for (uint64_t line : lines) {
                r->stores_to_line[line].push_back(r->accesses.size());
              }
            }
            r->accesses.push_back(std::move(a));
          }
        }
        GenAcquires(di, s, &acq);
        TransferInst(di, r->opts, &s);
      }
    }
  }

  // Replays the region's dataflow over every reachable block, calling
  // fn(inst, state-before-inst, acq-before-inst).
  template <typename Fn>
  void ForEachReachableInst(const RegionInfo& r, Fn fn) const {
    for (size_t b = 0; b < cfg_.blocks.size(); b++) {
      if (!r.flow.block_in[b].reachable) {
        continue;
      }
      FlowState s = r.flow.block_in[b];
      std::set<uint64_t> acq;
      if (auto it = r.acq_in.find(b); it != r.acq_in.end()) {
        acq = it->second;
      }
      const BasicBlock& bb = cfg_.blocks[b];
      for (size_t i = bb.first; i <= bb.last; i++) {
        fn(prog_.insts[i], s, acq);
        GenAcquires(prog_.insts[i], s, &acq);
        TransferInst(prog_.insts[i], r.opts, &s);
      }
    }
  }

  // --- ordering -----------------------------------------------------------

  // True when x happens-before y within one region's program order: every
  // co-execution runs x first (y's block cannot get back to x's block).
  bool OrderedInRegion(const RegionInfo& r, const Access& x, const Access& y) const {
    const size_t bx = cfg_.block_of[x.inst];
    const size_t by = cfg_.block_of[y.inst];
    auto reaches = [&](size_t from, size_t to) {
      auto it = r.reach.find(from);
      return it != r.reach.end() && it->second[to] != 0;
    };
    if (bx == by) {
      return x.inst < y.inst && !reaches(bx, bx);
    }
    return reaches(bx, by) && !reaches(by, bx);
  }

  // Vtids through which `parent` can start `child`.
  std::vector<uint64_t> VtidsFor(const RegionInfo& parent, const RegionInfo& child) const {
    std::vector<uint64_t> vtids;
    const uint64_t bound =
        parent.spec.tdt_size != 0 ? parent.spec.tdt_size : parent.opts.tdt_capacity;
    for (uint64_t v = 0; v < bound; v++) {
      Ptid ptid = 0;
      if (ResolveVtid(parent, v, &ptid) && ptid == child.spec.ptid) {
        vtids.push_back(v);
      }
    }
    return vtids;
  }

  // True when the start/stop window argument is sound for this parent/child
  // pair: the child only becomes live through this parent's starts. An
  // auto-started child (or one some other live region can start) runs
  // regardless of the parent's program point, so "not started here" proves
  // nothing.
  bool SoleStarter(const RegionInfo& parent, const RegionInfo& child) const {
    if (child.spec.auto_start) {
      return false;
    }
    for (const RegionInfo& other : regions_) {
      if (&other != &parent && other.live && other.valid &&
          other.starts.count(child.spec.ptid) != 0) {
        return false;
      }
    }
    return true;
  }

  // True when parent access `a` is ordered against every child access by the
  // start/stop window, or against child access `b` specifically by an
  // acquire chain (mwait / guarded load covering a line the child releases).
  bool ParentOrdered(const Access& a, const RegionInfo& child, const Access& b,
                     const std::vector<uint64_t>& vtids, bool window_sound) const {
    // Window test: if no vtid mapping to the child may be started at `a`,
    // the child is not running here — either it was never started (a
    // happens-before the start release) or it was stopped on every path
    // (the stop acquire ordered the child's accesses before a).
    bool window_open = !window_sound;
    for (uint64_t v : vtids) {
      if (a.started_may.count(v) != 0) {
        window_open = true;
        break;
      }
    }
    if (!window_open) {
      return true;
    }
    // Acquire cover: some line acquired on every path before `a` is released
    // by the child, and `b` precedes every such release in the child — so
    // b -> release -> acquire -> a.
    for (uint64_t line : a.acq) {
      auto it = child.stores_to_line.find(line);
      if (it == child.stores_to_line.end() || it->second.empty()) {
        continue;
      }
      bool covers = true;
      for (size_t store_idx : it->second) {
        const Access& release = child.accesses[store_idx];
        if (release.inst != b.inst && !OrderedInRegion(child, b, release)) {
          covers = false;
          break;
        }
      }
      if (covers) {
        return true;
      }
    }
    return false;
  }

  // --- the pair rules -----------------------------------------------------

  void CheckPair(size_t i, size_t j) {
    const RegionInfo& A = regions_[i];
    const RegionInfo& B = regions_[j];
    const std::vector<uint64_t> a_starts_b = VtidsFor(A, B);
    const std::vector<uint64_t> b_starts_a = VtidsFor(B, A);
    const bool a_window = SoleStarter(A, B);
    const bool b_window = SoleStarter(B, A);

    for (const Access& a : A.accesses) {
      for (const Access& b : B.accesses) {
        if (!Overlaps(a, b)) {
          continue;
        }
        if (!a.is_store && !b.is_store) {
          continue;  // two reads never race
        }
        if (a.is_atomic && b.is_atomic) {
          continue;  // rmw vs rmw is indivisible by construction
        }
        const bool ordered =
            (!a_starts_b.empty() && ParentOrdered(a, B, b, a_starts_b, a_window)) ||
            (!b_starts_a.empty() && ParentOrdered(b, A, a, b_starts_a, b_window));
        if (ordered) {
          continue;
        }
        if (a.is_store && b.is_store && a.sync_store && b.sync_store) {
          EmitPair(rules::kMonitorStoreRace, Severity::kWarning, A, a, B, b,
                   "both threads release into watched line " +
                       Hex(LineBase(a.addr)) +
                       " with no ordering between the stores; the waiter "
                       "cannot tell which wakeup it consumed");
          continue;
        }
        if (a.sync_store || a.sync_load || b.sync_store || b.sync_load) {
          continue;  // one side is part of the monitor/mwait protocol itself
        }
        const char* rule = rules::kDataRace;
        std::string detail =
            "no happens-before edge (start/stop, rpull/rpush, or a "
            "monitor/mwait chain) orders these accesses";
        if ((!a_starts_b.empty() && !a.is_store && b.is_store) ||
            (!b_starts_a.empty() && !b.is_store && a.is_store)) {
          rule = rules::kUnsyncStart;
          detail =
              "the parent reads data its child writes while the child may be "
              "running; start alone publishes state to the child but does not "
              "order the child's writes back (use monitor/mwait or stop)";
        }
        EmitPair(rule, Severity::kError, A, a, B, b, detail);
      }
    }
  }

  static bool Overlaps(const Access& a, const Access& b) {
    return a.addr < b.addr + b.size && b.addr < a.addr + a.size;
  }

  void EmitPair(const char* rule, Severity sev, const RegionInfo& A, const Access& a,
                const RegionInfo& B, const Access& b, const std::string& detail) {
    const DecodedInst& da = prog_.insts[a.inst];
    const DecodedInst& db = prog_.insts[b.inst];
    const bool a_first = da.addr <= db.addr;
    const DecodedInst& site = a_first ? da : db;
    if (!reported_
             .insert(std::make_tuple(std::string(rule), std::min(da.addr, db.addr),
                                     std::max(da.addr, db.addr)))
             .second) {
      return;
    }
    auto describe = [&](const RegionInfo& r, const Access& acc, const DecodedInst& di) {
      return "t" + std::to_string(r.spec.ptid) + " " +
             std::string(acc.is_atomic ? "amoadd" : (acc.is_store ? "store" : "load")) +
             " of " + Hex(acc.addr) + " at " + Hex(di.addr);
    };
    const std::string first = a_first ? describe(A, a, da) : describe(B, b, db);
    const std::string second = a_first ? describe(B, b, db) : describe(A, a, da);
    diags_.push_back({rule, sev, site.addr, site.line,
                      first + " vs " + second + ": " + detail});
  }

  const Program& program_;
  const DecodedProgram& prog_;
  const Cfg& cfg_;
  const AnalysisOptions& options_;
  std::vector<RegionInfo> regions_;
  std::set<uint64_t> armed_lines_;  // lines armed by any live region
  std::set<std::tuple<std::string, Addr, Addr>> reported_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> RunConcurrencyChecks(const Program& program,
                                             const DecodedProgram& prog, const Cfg& cfg,
                                             const AnalysisOptions& options,
                                             const std::vector<HarnessThread>& threads) {
  if (threads.size() < 2) {
    return {};
  }
  return ConcurrencyPass(program, prog, cfg, options, threads).Run();
}

}  // namespace analysis
}  // namespace casc

// Native guest programs: C++20 coroutines that execute on simulated hardware
// threads. Each `co_await` issues one timed operation through the same
// ThreadSystem/MemorySystem interfaces as interpreted CASC-ISA instructions,
// so native and interpreted code see identical costs. Complex workloads
// (kernel services, servers, hypervisors) are written this way; tests and
// examples use real assembly.
#ifndef SRC_CPU_GUEST_H_
#define SRC_CPU_GUEST_H_

#include <coroutine>
#include <exception>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/isa/isa.h"
#include "src/sim/types.h"

namespace casc {

class GuestContext;

// The coroutine handle wrapper. Owning and move-only.
//
// Tasks compose: a coroutine may run another as a subtask with
// `co_await ctx.Call(Sub(ctx, ...))`. The machinery below implements
// symmetric transfer: suspending into the subtask, tracking the innermost
// ("leaf") frame that the core should resume, and returning control to the
// caller when the subtask completes.
class GuestTask {
 public:
  struct promise_type {
    GuestTask get_return_object() {
      return GuestTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        promise_type& p = h.promise();
        if (p.leaf_slot != nullptr) {
          *p.leaf_slot = p.continuation;  // caller becomes the leaf again
        }
        return p.continuation ? p.continuation : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }

    std::coroutine_handle<> continuation = nullptr;     // who awaits this task
    std::coroutine_handle<>* leaf_slot = nullptr;       // context's leaf pointer
  };

  GuestTask() = default;
  explicit GuestTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  GuestTask(GuestTask&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  GuestTask& operator=(GuestTask&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  GuestTask(const GuestTask&) = delete;
  GuestTask& operator=(const GuestTask&) = delete;
  ~GuestTask() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }
  std::coroutine_handle<promise_type> handle() const { return handle_; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

// Awaiter that runs a GuestTask as a subtask of the awaiting coroutine.
// Shared by GuestContext (HTM native programs) and SoftContext (baseline
// software threads): `leaf` is the context's record of which frame the
// executor must resume next.
struct SubtaskAwaiter {
  std::coroutine_handle<>* leaf;
  GuestTask task;

  bool await_ready() const noexcept { return !task.valid() || task.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> outer) noexcept {
    task.handle().promise().continuation = outer;
    task.handle().promise().leaf_slot = leaf;
    *leaf = task.handle();
    return task.handle();  // symmetric transfer into the subtask
  }
  void await_resume() const noexcept {}
};

// A native program: invoked to produce a coroutine bound to a hardware
// thread. Re-invoked to create a fresh instance if the thread is restarted
// after the previous instance finished or faulted.
using NativeProgram = std::function<GuestTask(GuestContext&)>;

// One pending timed operation of a native thread.
struct GuestOp {
  enum class Kind : uint8_t {
    kNone = 0,
    kCompute,   // consume `cycles`
    kLoad,      // result <- mem[addr]
    kStore,     // mem[addr] <- value
    kAtomicAdd, // result <- mem[addr]; mem[addr] += value
    kAtomicCas, // result <- mem[addr]; if result == value: mem[addr] = value2
    kMonitor,   // arm watch on addr
    kUnmonitor, // disarm watch on addr
    kMwait,     // block until watched write
    kStart,     // start vtid
    kStop,      // stop vtid
    kStopSelf,  // disable the issuing thread
    kRpull,     // result <- remote reg of vtid
    kRpush,     // remote reg of vtid <- value
    kInvtid,    // invalidate vtid-cache entry
    kCsrRead,   // result <- csr
    kCsrWrite,  // csr <- value
  };
  Kind kind = Kind::kNone;
  Addr addr = 0;
  uint64_t value = 0;
  uint64_t value2 = 0;  // CAS desired value
  uint32_t size = 8;
  Vtid vtid = 0;
  Vtid vtid2 = 0;
  uint32_t reg = 0;
  Csr csr = Csr::kMode;
  Tick cycles = 0;
};

// Per-thread native execution context. The core fills `result`/`faulted`
// after processing each op.
class GuestContext {
 public:
  struct Awaiter {
    GuestContext* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    uint64_t await_resume() const noexcept { return ctx->result_; }
  };

  explicit GuestContext(Ptid ptid) : ptid_(ptid) {}

  Ptid ptid() const { return ptid_; }

  // --- awaitable operations (one simulated instruction each) -------------
  Awaiter Compute(Tick cycles) { return Issue({.kind = GuestOp::Kind::kCompute, .cycles = cycles}); }
  Awaiter Yield() { return Compute(1); }
  Awaiter Load(Addr addr, uint32_t size = 8) {
    return Issue({.kind = GuestOp::Kind::kLoad, .addr = addr, .size = size});
  }
  Awaiter Store(Addr addr, uint64_t value, uint32_t size = 8) {
    return Issue({.kind = GuestOp::Kind::kStore, .addr = addr, .value = value, .size = size});
  }
  Awaiter AtomicAdd(Addr addr, uint64_t delta) {
    return Issue({.kind = GuestOp::Kind::kAtomicAdd, .addr = addr, .value = delta});
  }
  // Returns the old value: the swap happened iff result == expected.
  Awaiter AtomicCas(Addr addr, uint64_t expected, uint64_t desired) {
    return Issue({.kind = GuestOp::Kind::kAtomicCas,
                  .addr = addr,
                  .value = expected,
                  .value2 = desired});
  }
  Awaiter Monitor(Addr addr) { return Issue({.kind = GuestOp::Kind::kMonitor, .addr = addr}); }
  Awaiter Unmonitor(Addr addr) {
    return Issue({.kind = GuestOp::Kind::kUnmonitor, .addr = addr});
  }
  Awaiter Mwait() { return Issue({.kind = GuestOp::Kind::kMwait}); }
  Awaiter Start(Vtid vtid) { return Issue({.kind = GuestOp::Kind::kStart, .vtid = vtid}); }
  Awaiter Stop(Vtid vtid) { return Issue({.kind = GuestOp::Kind::kStop, .vtid = vtid}); }
  Awaiter StopSelf() { return Issue({.kind = GuestOp::Kind::kStopSelf}); }
  Awaiter Rpull(Vtid vtid, uint32_t remote_reg) {
    return Issue({.kind = GuestOp::Kind::kRpull, .vtid = vtid, .reg = remote_reg});
  }
  Awaiter Rpush(Vtid vtid, uint32_t remote_reg, uint64_t value) {
    return Issue(
        {.kind = GuestOp::Kind::kRpush, .value = value, .vtid = vtid, .reg = remote_reg});
  }
  Awaiter Invtid(Vtid vtid, Vtid remote_vtid) {
    return Issue({.kind = GuestOp::Kind::kInvtid, .vtid = vtid, .vtid2 = remote_vtid});
  }
  Awaiter ReadCsr(Csr csr) { return Issue({.kind = GuestOp::Kind::kCsrRead, .csr = csr}); }
  Awaiter WriteCsr(Csr csr, uint64_t value) {
    return Issue({.kind = GuestOp::Kind::kCsrWrite, .value = value, .csr = csr});
  }

  // Runs another coroutine as a subtask: `co_await ctx.Call(Sub(ctx, ...))`.
  SubtaskAwaiter Call(GuestTask task) { return SubtaskAwaiter{&leaf_, std::move(task)}; }

  // Resumes the innermost live frame (the root if no subtask is active).
  void ResumeLeaf(std::coroutine_handle<> root) {
    std::coroutine_handle<> h = leaf_ ? leaf_ : root;
    h.resume();
  }

  // --- core-side protocol -------------------------------------------------
  bool has_pending() const { return pending_.kind != GuestOp::Kind::kNone; }
  GuestOp& pending() { return pending_; }
  GuestOp TakePending() { return std::exchange(pending_, GuestOp{}); }
  void DeliverResult(uint64_t result) { result_ = result; }
  void Complete(uint64_t result) {
    pending_ = GuestOp{};
    result_ = result;
  }
  bool faulted() const { return faulted_; }
  void set_faulted(bool f) { faulted_ = f; }

 private:
  Awaiter Issue(GuestOp op) {
    pending_ = op;
    return Awaiter{this};
  }

  Ptid ptid_;
  GuestOp pending_;
  uint64_t result_ = 0;
  bool faulted_ = false;
  std::coroutine_handle<> leaf_ = nullptr;
};

}  // namespace casc

#endif  // SRC_CPU_GUEST_H_

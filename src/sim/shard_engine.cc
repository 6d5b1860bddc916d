#include "src/sim/shard_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>

#if defined(__linux__)
#include <sched.h>
#endif

namespace casc {

namespace {

constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

Tick SaturatingAdd(Tick a, Tick b) { return b > kTickMax - a ? kTickMax : a + b; }

// CPUs this thread may run on: the affinity mask where the platform exposes
// one (taskset, cgroup cpusets), else hardware_concurrency() (0 = unknown).
uint32_t UsableHostCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

}  // namespace

ShardEngine::ShardEngine(Simulation& sim, uint32_t num_shards, uint32_t host_threads, Tick hop)
    : sim_(sim),
      num_shards_(num_shards),
      host_threads_(std::max(1u, host_threads)),
      hop_(std::max<Tick>(1, hop)) {
  assert(num_shards >= 1 && num_shards <= shard::kMaxShards);
  run_pred_ = [] { return true; };
  // 0 means "unknown"; assume a real multicore.
  if (UsableHostCpus() == 1) {
    wake_workers_ = false;
    worker_spin_limit_ = 1;
  }
}

ShardEngine::~ShardEngine() {
  shutdown_.store(true, std::memory_order_seq_cst);
  {
    // Take the lock so a worker between its parked_ increment and wait()
    // cannot miss the notify.
    std::lock_guard<std::mutex> lk(park_mu_);
  }
  park_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ShardEngine::AddBarrierHook(std::function<void()> hook) {
  barrier_hooks_.push_back(std::move(hook));
}

void ShardEngine::SetHaltedFn(std::function<bool()> fn) { halted_fn_ = std::move(fn); }

Tick ShardEngine::NextTickAll() const {
  Tick t = kTickMax;
  for (uint32_t s = 0; s < num_shards_; s++) {
    t = std::min(t, sim_.QueueFor(s).NextTick());
  }
  return t;
}

void ShardEngine::EnsureWorkers() {
  if (!workers_.empty() || host_threads_ <= 1 || num_shards_ <= 1) {
    return;
  }
  const uint32_t n = std::min(host_threads_, num_shards_);
  workers_.reserve(n - 1);
  for (uint32_t i = 1; i < n; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ShardEngine::RunShard(uint32_t s, Tick window_end) {
  shard::Scope scope(s);
  round_fired_[s].n = sim_.QueueFor(s).RunWhile(window_end, run_pred_);
}

void ShardEngine::DrainClaims() {
  // The claim word packs [active_count:32][next_index:32]; fetch_add hands
  // each caller a unique shard slot of the current round. Which host thread
  // claims which shard is arbitrary — results do not depend on it.
  for (;;) {
    const uint64_t w = claim_.fetch_add(1, std::memory_order_acq_rel);
    const uint32_t count = static_cast<uint32_t>(w >> 32);
    const uint32_t idx = static_cast<uint32_t>(w);
    if (idx >= count) {
      return;
    }
    RunShard(active_[idx], window_end_);
    shards_done_.fetch_add(1, std::memory_order_release);
  }
}

void ShardEngine::PublishRound() {
  shards_done_.store(0, std::memory_order_relaxed);
  claim_.store(static_cast<uint64_t>(active_count_) << 32, std::memory_order_seq_cst);
  if (wake_workers_ && parked_.load(std::memory_order_seq_cst) > 0) {
    park_cv_.notify_all();
  }
}

void ShardEngine::JoinRound() {
  // Busy-wait: rounds are ~a microsecond of work, parking here would
  // dominate the window cost. Fall back to yielding if the wait drags on
  // (oversubscribed host: the thread holding the last shard needs our
  // timeslice more than we do).
  uint32_t spins = 0;
  while (shards_done_.load(std::memory_order_acquire) != active_count_) {
    if (++spins >= 4096) {
      std::this_thread::yield();
    }
  }
}

void ShardEngine::WorkerLoop() {
  const auto work_available = [this] {
    const uint64_t w = claim_.load(std::memory_order_seq_cst);
    return static_cast<uint32_t>(w) < static_cast<uint32_t>(w >> 32);
  };
  uint32_t spins = 0;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    if (work_available()) {
      spins = 0;
      DrainClaims();
      continue;
    }
    if (++spins >= worker_spin_limit_) {
      std::unique_lock<std::mutex> lk(park_mu_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      park_cv_.wait(lk, [&] {
        return work_available() || shutdown_.load(std::memory_order_relaxed);
      });
      parked_.fetch_sub(1, std::memory_order_seq_cst);
      spins = 0;
    }
  }
}

void ShardEngine::FlushMessages() {
  for (uint32_t src = 0; src < num_shards_; src++) {
    for (Msg& m : outboxes_[src].msgs) {
      EventQueue& q = sim_.QueueFor(m.dst);
      // Conservative lookahead guarantee: the effect time is at or after the
      // end of the window that produced the message, so it is never in the
      // target's past.
      assert(m.when >= q.now());
      q.ScheduleFn(m.when, std::move(m.fn));
    }
    outboxes_[src].msgs.clear();
  }
}

void ShardEngine::Post(uint32_t dst, Tick when, std::function<void()> fn) {
  assert(dst < num_shards_);
  if (!Executing()) {
    // Host/control phase (boot, barrier hooks, exit normalization): serial,
    // so scheduling into the target directly is deterministic.
    sim_.QueueFor(dst).ScheduleFn(when, std::move(fn));
    return;
  }
  outboxes_[shard::tls_index].msgs.push_back(Msg{dst, when, std::move(fn)});
  if (solo_running_) {
    // The solo fast path assumed no other shard wakes before its horizon;
    // this message may wake one sooner. Abort at the next dispatch boundary,
    // and break any quiet-advance chain in progress (a core spin-waiting on
    // the woken shard would otherwise never return to the engine).
    posted_.store(true, std::memory_order_relaxed);
    EventQueue& q = sim_.QueueFor(solo_shard_);
    q.ClampAdvanceLimit(q.now());
  }
}

uint64_t ShardEngine::Advance(Tick limit, uint64_t max_events, bool stop_on_halt,
                              bool normalize_to_limit) {
  EnsureWorkers();
  const uint64_t total_before = sim_.TotalEventsFired();
  uint64_t fired = 0;
  for (;;) {
    // Barrier: hooks (window flush, halt merge), then the cross-shard
    // message flush, all serial and in fixed order — determinism is decided
    // here, never by host thread interleaving.
    for (const auto& hook : barrier_hooks_) {
      hook();
    }
    FlushMessages();
    if (stop_on_halt && halted_fn_ && halted_fn_()) {
      break;
    }
    if (fired >= max_events) {
      break;
    }
    const Tick t = NextTickAll();
    if (t == kTickMax || t > limit) {
      break;
    }
    const Tick window_end = std::min(limit, SaturatingAdd(t, hop_ - 1));
    active_count_ = 0;
    for (uint32_t s = 0; s < num_shards_; s++) {
      if (sim_.QueueFor(s).NextTick() <= window_end) {
        active_[active_count_++] = s;
      }
    }
    assert(active_count_ > 0);
    if (active_count_ == 1) {
      // Solo fast path: one shard has all the near-term work (always the
      // case on single-core machines and during single-threaded program
      // phases). Run it beyond the window — up to the last tick before the
      // earliest possible cross-shard effect on any other shard — without
      // paying a barrier per window.
      const uint32_t s = active_[0];
      Tick second = kTickMax;
      for (uint32_t o = 0; o < num_shards_; o++) {
        if (o != s) {
          second = std::min(second, sim_.QueueFor(o).NextTick());
        }
      }
      const Tick horizon =
          second == kTickMax ? limit : std::min(limit, SaturatingAdd(second, hop_ - 1));
      EventQueue& q = sim_.QueueFor(s);
      const uint64_t before = q.events_fired();
      const uint64_t budget = max_events - fired;
      posted_.store(false, std::memory_order_relaxed);
      solo_running_ = true;
      solo_shard_ = s;
      executing_.store(true, std::memory_order_release);
      {
        shard::Scope scope(s);
        fired += q.RunWhile(horizon, [&] {
          if (posted_.load(std::memory_order_relaxed)) {
            return false;
          }
          if (q.events_fired() - before >= budget) {
            return false;
          }
          return !(stop_on_halt && halted_fn_ && halted_fn_());
        });
      }
      executing_.store(false, std::memory_order_release);
      solo_running_ = false;
    } else {
      window_end_ = window_end;
      executing_.store(true, std::memory_order_release);
      PublishRound();
      DrainClaims();  // the host thread works the round too
      JoinRound();
      executing_.store(false, std::memory_order_release);
      for (uint32_t i = 0; i < active_count_; i++) {
        fired += round_fired_[active_[i]].n;
      }
    }
  }
  // Exit normalization: bring every shard to one common clock so callers see
  // a single coherent now(). RunFor-style callers get exactly `limit`;
  // quiescence/budget/halt exits get the frontier the run reached (firing
  // the bounded set of stragglers behind it — deterministic: the frontier is
  // itself a pure function of the rounds above).
  Tick target = limit;
  if (!normalize_to_limit) {
    target = 0;
    for (uint32_t s = 0; s < num_shards_; s++) {
      target = std::max(target, sim_.QueueFor(s).now());
    }
  }
  for (uint32_t s = 0; s < num_shards_; s++) {
    shard::Scope scope(s);
    sim_.QueueFor(s).RunUntil(target);
  }
  // Normalization may itself have flushed writes or proposed halts; run one
  // final barrier so the caller observes a merged, message-flushed state.
  for (const auto& hook : barrier_hooks_) {
    hook();
  }
  FlushMessages();
  return sim_.TotalEventsFired() - total_before;
}

}  // namespace casc

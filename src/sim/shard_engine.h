// ShardEngine: conservative parallel discrete-event execution of a sharded
// Simulation (DESIGN.md §4i).
//
// The engine advances all shards in *rounds*. Each round:
//
//   1. Barrier (serial, host thread): run registered barrier hooks (memory
//      window flush, halt merge), then flush every cross-shard outbox into
//      its target queue in (source shard, post order).
//   2. Compute T = min NextTick over shards and the window end
//      E = min(limit, T + W - 1), where W = the minimum cross-shard latency
//      (`hop`). Conservative lookahead: any message generated at tick t in
//      this window carries an effect time >= t + W > E, so no shard can
//      receive work inside the window that produced it — shards with events
//      in [T, E] can run concurrently without ever seeing each other.
//   3. Execute: every shard with NextTick <= E runs its events up to E on
//      the worker pool (the host thread participates). If exactly one shard
//      is active, a solo fast path runs it beyond E — up to just before the
//      next other shard could wake — and aborts early if it posts a
//      cross-shard message (see Post).
//
// Observable order is a pure function of (program, seed, config): rounds,
// window bounds, and flush order depend only on queue contents, never on
// which host thread ran which shard or how their execution interleaved.
// `--host-threads 1` and `--host-threads N` produce bit-identical results.
#ifndef SRC_SIM_SHARD_ENGINE_H_
#define SRC_SIM_SHARD_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "src/sim/types.h"

namespace casc {

class ShardEngine final : public ShardRouter {
 public:
  // `host_threads` >= 1 is the number of host threads allowed to execute
  // shards concurrently (1 = serial rounds, same results by construction).
  ShardEngine(Simulation& sim, uint32_t num_shards, uint32_t host_threads, Tick hop);
  ~ShardEngine() override;

  // Barrier hooks run serially on the host thread at every round boundary,
  // in registration order, before the message flush.
  void AddBarrierHook(std::function<void()> hook);

  // Predicate consulted for halt-stop (DrainBudget): evaluated on the host
  // thread after the barrier, where a merged halt is visible.
  void SetHaltedFn(std::function<bool()> fn);

  // Drives every shard to `limit` (or until the machine halts when
  // `stop_on_halt`, or `max_events` fire). On return all shards share the
  // same now(): `limit` when `normalize_to_limit`, else the max shard
  // frontier reached. Returns the number of events fired.
  uint64_t Advance(Tick limit, uint64_t max_events, bool stop_on_halt, bool normalize_to_limit);

  // Earliest live event across all shards (Tick max when drained).
  Tick NextTickAll() const;

  // True when the host grants this process a single CPU (affinity mask, or
  // hardware_concurrency() where there is none), so workers park instead of
  // spinning and the host thread drains every round itself.
  bool parks_workers() const { return !wake_workers_; }

  // --- ShardRouter ---------------------------------------------------------
  bool Executing() const override { return executing_.load(std::memory_order_acquire); }
  void Post(uint32_t dst, Tick when, std::function<void()> fn) override;
  Tick hop() const override { return hop_; }

 private:
  struct Msg {
    uint32_t dst;
    Tick when;
    std::function<void()> fn;
  };
  // One outbox per *source* shard; only the host thread currently executing
  // that shard appends, and only the host control thread drains at barriers.
  struct alignas(64) Outbox {
    std::vector<Msg> msgs;
  };

  void RunShard(uint32_t s, Tick window_end);
  void DrainClaims();
  void WorkerLoop();
  void EnsureWorkers();
  void PublishRound();
  void JoinRound();
  void FlushMessages();

  Simulation& sim_;
  const uint32_t num_shards_;
  const uint32_t host_threads_;
  const Tick hop_;

  std::vector<std::function<void()>> barrier_hooks_;
  std::function<bool()> halted_fn_;
  std::function<bool()> run_pred_;  // constant-true predicate for window runs

  Outbox outboxes_[shard::kMaxShards];
  // Events fired by the shard's last round, written by whichever host thread
  // ran it; padded so concurrent writers never share a cache line.
  struct alignas(64) RoundFired {
    uint64_t n = 0;
  };
  RoundFired round_fired_[shard::kMaxShards];

  // Round publication state (host writes before the generation bump).
  uint32_t active_[shard::kMaxShards] = {};
  uint32_t active_count_ = 0;
  Tick window_end_ = 0;

  std::atomic<bool> executing_{false};
  std::atomic<bool> posted_{false};  // solo fast path abort flag
  bool solo_running_ = false;        // true only inside the solo fast path
  uint32_t solo_shard_ = 0;

  // Worker pool: lazily spawned; workers spin on the claim word (windows are
  // about a microsecond of work — parking between consecutive rounds would
  // dominate) and park only after a long dry spell. On a host that grants one
  // CPU spinning is pure theft from the thread doing the work, so workers
  // park immediately and are never woken: the main thread drains every claim
  // itself (`wake_workers_` false). Results are identical either way — only
  // which host thread runs a shard changes. The claim word packs
  // [active_count:32][next_index:32]; publishing a round stores a fresh word
  // and claiming a shard is one fetch_add. The hot atomics get private cache
  // lines: claim_ is read in every worker spin, shards_done_ is written per
  // completed shard.
  std::vector<std::thread> workers_;
  bool wake_workers_ = true;
  uint32_t worker_spin_limit_ = 1u << 16;
  alignas(64) std::atomic<uint64_t> claim_{0};
  alignas(64) std::atomic<uint32_t> shards_done_{0};
  alignas(64) std::atomic<int> parked_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

}  // namespace casc

#endif  // SRC_SIM_SHARD_ENGINE_H_

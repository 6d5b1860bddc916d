// Configuration of the proposed hardware threading model (§3, §4).
#ifndef SRC_HWT_HWT_CONFIG_H_
#define SRC_HWT_HWT_CONFIG_H_

#include <cstdint>

#include "src/sim/types.h"

namespace casc {

// Which §3.2 security model guards the thread-management instructions.
enum class SecurityModel : uint8_t {
  kTdt = 0,        // thread descriptor tables (Table 1)
  kSecretKey = 1,  // the paper's alternative: present the target's key
};

struct HwtConfig {
  SecurityModel security_model = SecurityModel::kTdt;

  // Number of physical hardware threads (ptids) per core. The paper argues
  // for 10s-1000s; even 10 is "a meaningful step forward".
  uint32_t threads_per_core = 64;

  // SMT slots that concurrently share the pipeline (§4: "use a small number
  // of hyperthreads ... likely 2-4").
  uint32_t smt_width = 2;

  // Context-state storage tiers (§4 "Storage for Thread State"). Counts are
  // per core for RF/L2; the L3 pool is shared but we approximate it as a
  // per-core share.
  uint32_t rf_slots = 16;
  uint32_t l2_slots = 64;
  uint32_t l3_slots = 512;

  // vtid translation cache (analogous to a tiny TLB over the TDT).
  uint32_t vtid_cache_entries = 16;

  // §4 optimizations.
  bool dirty_register_tracking = true;  // transfer only used registers
  bool prefetch_on_wake = true;         // begin state restore at wakeup time
  // Threads with prio >= this jump the scheduling rotation on wake
  // (time-critical interrupt handling, §4). 0 disables preemptive insert.
  uint64_t preempt_priority = 0;
};

}  // namespace casc

#endif  // SRC_HWT_HWT_CONFIG_H_

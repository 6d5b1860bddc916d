// The per-run simulation context: event queue, stats, RNG, and the clock
// definition. Every simulated component holds a reference to one Simulation.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/types.h"

namespace casc {

class Simulation {
 public:
  explicit Simulation(double ghz = 3.0, uint64_t seed = 1) : ghz_(ghz), rng_(seed) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  EventQueue& queue() { return queue_; }
  StatsRegistry& stats() { return stats_; }
  Rng& rng() { return rng_; }

  Tick now() const { return queue_.now(); }
  double ghz() const { return ghz_; }

  // Events dispatched since construction (the queue's events_fired()).
  uint64_t TotalEventsFired() const { return queue_.events_fired(); }

  double CyclesToNs(Tick cycles) const { return static_cast<double>(cycles) / ghz_; }
  Tick NsToCycles(double ns) const { return static_cast<Tick>(ns * ghz_ + 0.5); }

 private:
  double ghz_;
  EventQueue queue_;
  StatsRegistry stats_;
  Rng rng_;
};

}  // namespace casc

#endif  // SRC_SIM_SIMULATION_H_

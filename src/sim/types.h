// Core scalar types shared by every casc module.
#ifndef SRC_SIM_TYPES_H_
#define SRC_SIM_TYPES_H_

#include <cstdint>

namespace casc {

// Simulated time, measured in CPU clock cycles of the machine's base clock.
using Tick = uint64_t;

// Physical memory address inside the simulated machine.
using Addr = uint64_t;

// Physical hardware-thread identifier (the paper's "ptid"). Globally unique
// across the machine: the high bits encode the owning core.
using Ptid = uint32_t;

// Virtual hardware-thread identifier (the paper's "vtid"): an index into the
// issuing thread's thread descriptor table.
using Vtid = uint32_t;

// Index of a physical core within the machine.
using CoreId = uint32_t;

inline constexpr Ptid kInvalidPtid = 0xffffffffu;
inline constexpr Vtid kInvalidVtid = 0xffffffffu;

// Cache-line size used by the memory system and the monitor filter.
inline constexpr uint32_t kLineSize = 64;

inline constexpr Addr LineBase(Addr a) { return a & ~static_cast<Addr>(kLineSize - 1); }

// Architected state footprint of one thread (§4: 272 B for x86-64; 784 B
// with SSE3): what a hardware context transfer or a software context switch
// moves.
inline constexpr uint32_t kStateBytes = 272;
inline constexpr uint32_t kStateBytesFp = 784;

}  // namespace casc

#endif  // SRC_SIM_TYPES_H_

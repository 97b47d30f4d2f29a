#pragma once

#include <cstdint>

namespace ftmul {

/// Thread-local arithmetic-work counter.
///
/// Every low-level limb kernel (add, multiply, divide, shift) adds the number
/// of word-level operations it performed. This is the quantity the paper
/// calls the arithmetic cost F, counted per processor; the runtime snapshots
/// it at phase boundaries to accumulate critical-path totals.
class OpsCounter {
public:
    /// Add @p n word operations to this thread's tally.
    static void add(std::uint64_t n) noexcept { tally_ += n; }

    /// Current tally for this thread.
    static std::uint64_t get() noexcept { return tally_; }

    /// Reset this thread's tally to zero.
    static void reset() noexcept { tally_ = 0; }

    /// Overwrite this thread's tally: the fiber executor saves and restores
    /// it around every switch, so each rank keeps its own tally.
    static void set(std::uint64_t n) noexcept { tally_ = n; }

private:
    // Defined inline so every translation unit sees the constant initializer
    // and reads the slot directly, not through a TLS init wrapper: GCC 12's
    // UBSan reports some wrapper accesses as loads of a null pointer.
    static inline thread_local std::uint64_t tally_ = 0;
};

}  // namespace ftmul

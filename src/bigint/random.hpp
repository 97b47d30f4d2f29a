#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"

namespace ftmul {

/// Small deterministic PRNG (splitmix64) for reproducible test and benchmark
/// inputs. Not cryptographic; every experiment in the harness seeds it
/// explicitly so runs are repeatable.
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

    std::uint64_t next_u64() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /// Uniform in [0, bound); bound must be nonzero.
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        return next_u64() % bound;
    }

private:
    std::uint64_t state_;
};

/// Uniform non-negative integer with exactly @p bits significant bits
/// (top bit forced to 1 so the size is exact). bits == 0 yields zero.
BigInt random_bits(Rng& rng, std::size_t bits);

/// Uniform non-negative integer strictly below 2^bits (top bit free).
BigInt random_below_2pow(Rng& rng, std::size_t bits);

/// Uniformly signed variant of random_bits.
BigInt random_signed_bits(Rng& rng, std::size_t bits);

/// @p len integers, each uniform below 2^bits: the digits of a random
/// operand, as the leaf convolution's tests and benchmarks draw them.
std::vector<BigInt> random_digits(Rng& rng, std::size_t len, std::size_t bits);

}  // namespace ftmul

#include "bigint/random.hpp"

namespace ftmul {

BigInt random_bits(Rng& rng, std::size_t bits) {
    if (bits == 0) return {};
    BigInt v = random_below_2pow(rng, bits);
    // Force the top bit so bit_length() == bits exactly.
    detail::Limbs mag = v.magnitude();
    mag.resize((bits + 63) / 64, 0);
    mag[(bits - 1) / 64] |= std::uint64_t{1} << ((bits - 1) % 64);
    return BigInt::from_parts(1, std::move(mag));
}

BigInt random_below_2pow(Rng& rng, std::size_t bits) {
    if (bits == 0) return {};
    detail::Limbs mag((bits + 63) / 64, 0);
    for (auto& limb : mag) limb = rng.next_u64();
    const unsigned top = static_cast<unsigned>(bits % 64);
    if (top != 0) mag.back() &= (~std::uint64_t{0}) >> (64 - top);
    return BigInt::from_parts(1, std::move(mag));
}

BigInt random_signed_bits(Rng& rng, std::size_t bits) {
    BigInt v = random_bits(rng, bits);
    return (rng.next_u64() & 1u) ? -v : v;
}

std::vector<BigInt> random_digits(Rng& rng, std::size_t len,
                                  std::size_t bits) {
    std::vector<BigInt> v;
    v.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
        v.push_back(random_below_2pow(rng, bits));
    }
    return v;
}

}  // namespace ftmul

// Cryptographic workload (paper Section 1: long-integer multiplication is a
// kernel "ranging from cryptographic systems to neural networks"): an
// RSA-style modular exponentiation where every multiplication/squaring runs
// through Toom-Cook, verified against a schoolbook reference.
//
//   ./modexp_crypto [modulus_bits]

#include <cstdio>
#include <cstdlib>

#include "bigint/random.hpp"
#include "toom/sequential.hpp"

namespace {

using ftmul::BigInt;
using ftmul::ToomOptions;
using ftmul::ToomPlan;

/// Square-and-multiply with a pluggable multiplication kernel.
template <typename Mul>
BigInt powmod(const BigInt& base, const BigInt& exp, const BigInt& mod,
              const Mul& mul) {
    BigInt result{1};
    BigInt b = BigInt::mod_floor(base, mod);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
        result = BigInt::mod_floor(mul(result, result), mod);
        if (ftmul::detail::get_bit(exp.magnitude(), i)) {
            result = BigInt::mod_floor(mul(result, b), mod);
        }
    }
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ftmul;
    const std::size_t bits =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 4096;

    Rng rng{97};
    const BigInt modulus = random_bits(rng, bits);
    const BigInt base = random_below_2pow(rng, bits - 1);
    const BigInt exponent = random_bits(rng, 64);

    std::printf("computing base^e mod m with %zu-bit modulus, 64-bit "
                "exponent\n",
                bits);

    const ToomPlan& plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 1024;
    const BigInt via_toom =
        powmod(base, exponent, modulus, [&](const BigInt& x, const BigInt& y) {
            return toom_multiply(x, y, plan, opts);
        });
    const BigInt via_schoolbook = powmod(
        base, exponent, modulus,
        [](const BigInt& x, const BigInt& y) { return x * y; });

    std::printf("toom-3 result:      %.60s...\n", via_toom.to_hex().c_str());
    std::printf("schoolbook result:  %.60s...\n",
                via_schoolbook.to_hex().c_str());
    std::printf("agreement: %s\n",
                via_toom == via_schoolbook ? "ok" : "MISMATCH");

    // A tiny Fermat check so the example demonstrates a real protocol step:
    // a^(p-1) mod p == 1 for prime p (here p = 2^61 - 1, a Mersenne prime).
    const BigInt p = BigInt::power_of_two(61) - BigInt{1};
    const BigInt fermat =
        powmod(BigInt{31337}, p - BigInt{1}, p,
               [&](const BigInt& x, const BigInt& y) {
                   return toom_multiply(x, y, plan, opts);
               });
    std::printf("Fermat check 31337^(p-1) mod (2^61-1) == 1: %s\n",
                fermat == BigInt{1} ? "ok" : "MISMATCH");

    return via_toom == via_schoolbook && fermat == BigInt{1} ? 0 : 1;
}

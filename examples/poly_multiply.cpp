// Polynomial multiplication (paper Section 1: "Toom-Cook algorithms are
// often used in polynomial multiplication as well"): multiply two integer
// polynomials — here the NTRU-like ring flavor used by lattice
// cryptography, coefficients reduced mod q — through toom_convolve, the same
// carry-free kernel the parallel algorithm runs at its leaves.
//
//   ./poly_multiply [degree] [q]

#include <cstdio>
#include <cstdlib>

#include "bigint/random.hpp"
#include "toom/digits.hpp"
#include "toom/lazy.hpp"

int main(int argc, char** argv) {
    using namespace ftmul;
    const std::size_t n =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 701;
    const std::int64_t q = argc > 2 ? std::atoll(argv[2]) : 8192;

    // Random polynomials of degree < n with coefficients in [0, q).
    Rng rng{13};
    std::vector<BigInt> f(n), g(n);
    for (std::size_t i = 0; i < n; ++i) {
        f[i] = BigInt{static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(q)))};
        g[i] = BigInt{static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(q)))};
    }

    std::printf("multiplying two degree-%zu polynomials, coefficients mod "
                "%lld\n",
                n - 1, static_cast<long long>(q));

    // Toom-Cook-3 convolution (exact over Z), then reduce mod q.
    const ToomPlan& plan = ToomPlan::make(3);
    std::vector<BigInt> h = toom_convolve(plan, f, g, /*base_len=*/8);
    const BigInt qq{q};
    for (auto& c : h) c = BigInt::mod_floor(c, qq);

    // Reference: schoolbook convolution.
    std::vector<BigInt> ref = convolve_schoolbook(f, g);
    bool ok = ref.size() == h.size();
    for (std::size_t i = 0; ok && i < ref.size(); ++i) {
        ok = BigInt::mod_floor(ref[i], qq) == h[i];
    }
    std::printf("product degree: %zu; toom vs schoolbook: %s\n", h.size() - 1,
                ok ? "ok" : "MISMATCH");

    // Negacyclic reduction x^n = -1 (the R_q = Z_q[x]/(x^n + 1) ring of
    // module-lattice schemes, the setting of the Lazy Interpolation paper).
    std::vector<BigInt> ring(n);
    for (std::size_t i = 0; i < h.size(); ++i) {
        if (i < n) {
            ring[i] += h[i];
        } else {
            ring[i - n] -= h[i];
        }
    }
    for (auto& c : ring) c = BigInt::mod_floor(c, qq);
    std::printf("negacyclic fold into Z_%lld[x]/(x^%zu + 1): first "
                "coefficients:",
                static_cast<long long>(q), n);
    for (std::size_t i = 0; i < 8 && i < ring.size(); ++i) {
        std::printf(" %s", ring[i].to_decimal().c_str());
    }
    std::printf(" ...\n");
    return ok ? 0 : 1;
}

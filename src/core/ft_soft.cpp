#include "core/ft_soft.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <stdexcept>
#include <tuple>

#include "bigint/random.hpp"
#include "core/layout.hpp"
#include "runtime/collectives.hpp"
#include "toom/digits.hpp"

namespace ftmul {

namespace {

using core_detail::leaf_multiply;
using core_detail::local_input_digits;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kLeafPhase = "leaf-mul";
constexpr const char* kInterpPhase = "interp-L0";

int exact_log(std::uint64_t v, std::uint64_t base) {
    int l = 0;
    while (v > 1) {
        if (v % base != 0) return -1;
        v /= base;
        ++l;
    }
    return l;
}

/// Deterministic nonzero error vector a miscalculating rank adds. The seed
/// is computed in std::uint64_t: the old `rank * 1000003 + salt` as int
/// was UB for large rank values (signed overflow) before widening.
void corrupt(std::vector<BigInt>& state, int rank, int salt) {
    Rng rng{static_cast<std::uint64_t>(rank) * 1000003ull +
            static_cast<std::uint64_t>(salt)};
    for (std::size_t i = 0; i < state.size(); i += 1 + rng.next_below(3)) {
        state[i] += BigInt{static_cast<std::int64_t>(1 + rng.next_below(1u << 20))};
    }
}

}  // namespace

FtSoftResult ft_soft_multiply(const BigInt& a, const BigInt& b,
                              const FtSoftConfig& cfg,
                              const SoftFaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_soft");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.code_rows;
    const int P = cfg.base.processors;
    if (f < 1) throw std::invalid_argument("ft_soft: need at least 1 code row");
    const int bfs = exact_log(static_cast<std::uint64_t>(P),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_soft: processors must be a power of 2k-1, at least 2k-1");
    }
    const int height = P / npts;
    const int world = P + f * npts;

    // Validate: protected phases only; at most one corruption per column per
    // phase (single-error correction); correction requires f >= 2. Config
    // misuse (unknown phase, rank off the grid) stays a plain
    // std::invalid_argument; a *well-formed* plan that merely exceeds the
    // code's budget is typed UnrecoverableFault so drivers (the resilient
    // escalation ladder, chaos campaigns) can classify and escalate it.
    std::map<std::string, std::map<int, std::vector<int>>> per_phase_col;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase != kEvalPhase && phase != kLeafPhase && phase != kInterpPhase) {
            throw std::invalid_argument(
                "ft_soft: corruptions supported at eval-L0, leaf-mul, "
                "interp-L0");
        }
        if (rank < 0 || rank >= P) {
            throw std::invalid_argument(
                "ft_soft: only data processors miscalculate");
        }
        auto& col = per_phase_col[phase][rank % npts];
        col.push_back(rank);
        if (col.size() > 1) {
            throw UnrecoverableFault(
                "ft_soft", phase, col,
                "at most one corruption per column per phase (the code "
                "corrects single errors)");
        }
    }
    if (!plan.all().empty() && f < 2) {
        std::vector<int> ranks;
        for (const auto& [phase, rank] : plan.all()) ranks.push_back(rank);
        throw UnrecoverableFault(
            "ft_soft", "", ranks,
            "correction needs f >= 2 code rows (f = 1 only detects)");
    }

    FtSoftResult result;
    {
        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        result.shape =
            resolve_shape(geo, std::max(a.bit_length(), b.bit_length()));
    }
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - P;
    result.corruptions_injected = static_cast<int>(plan.total());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan = ToomPlan::make(k);
    Machine machine(world);
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(P));
    std::atomic<int> detected{0};
    std::atomic<int> corrected{0};
    const auto unpts = static_cast<std::size_t>(npts);
    const std::size_t N = shape.total_digits;

    // Verification + correction at one boundary. Every column: encode, then
    // f syndrome reduces, then code row 0 locates/corrects. Returns through
    // `state` (corrected in place on the guilty rank).
    auto verify_and_correct = [&](Rank& rank, const char* phase, int tag,
                                  std::vector<BigInt>& state,
                                  std::vector<BigInt>& my_code) {
        const bool is_code = rank.id() >= P;
        const int column = is_code ? (rank.id() - P) % npts : rank.id() % npts;
        std::vector<int> members;
        for (int r = 0; r < height; ++r) members.push_back(r * npts + column);

        rank.phase(std::string("verify-") + phase);
        // Syndrome reduces: s_j = sum_l eta_j^l state_l - code_j at code row j.
        std::vector<BigInt> syndrome;
        for (int j = 0; j < f; ++j) {
            const int code_rank = P + j * npts + column;
            if (is_code && rank.id() != code_rank) continue;
            Group g;
            g.members = members;
            g.members.push_back(code_rank);
            std::vector<BigInt> contribution;
            if (rank.id() == code_rank) {
                contribution.reserve(my_code.size());
                for (const BigInt& v : my_code) contribution.push_back(-v);
            } else {
                const BigInt eta{static_cast<std::int64_t>(j + 1)};
                const BigInt w =
                    eta.pow(static_cast<std::uint64_t>(rank.id() / npts));
                contribution.reserve(state.size());
                for (const BigInt& v : state) contribution.push_back(w * v);
            }
            auto s = reduce_sum(rank, g, code_rank, std::move(contribution),
                                tag + j);
            if (rank.id() == code_rank) syndrome = std::move(s);
        }

        // Code row 1 ships s_1 to code row 0, which locates and corrects.
        const int code0 = P + 0 * npts + column;
        const int code1 = f >= 2 ? P + 1 * npts + column : code0;
        if (is_code && rank.id() == code1 && f >= 2) {
            rank.send_bigints(code0, tag + f, syndrome);
        }

        // code0 decides verdict: -1 clean, else guilty row index.
        std::vector<BigInt> verdict{BigInt{-1}};
        std::vector<BigInt> err;
        if (rank.id() == code0) {
            bool dirty = false;
            for (const BigInt& v : syndrome) dirty = dirty || !v.is_zero();
            if (dirty) {
                detected.fetch_add(1);
                const auto s1 = f >= 2 ? rank.recv_bigints(code1, tag + f)
                                       : std::vector<BigInt>{};
                // Locate: s1[t] = 2^e * s0[t] (eta_0 = 1, eta_1 = 2).
                std::int64_t e = -1;
                for (std::size_t t = 0; t < syndrome.size(); ++t) {
                    if (syndrome[t].is_zero()) continue;
                    BigInt q, r;
                    BigInt::divmod(s1[t], syndrome[t], q, r);
                    if (!r.is_zero() || !q.fits_int64()) { e = -2; break; }
                    std::int64_t cand = -1;
                    for (int row = 0; row < height; ++row) {
                        if (BigInt{2}.pow(static_cast<std::uint64_t>(row)) == q) {
                            cand = row;
                            break;
                        }
                    }
                    if (cand < 0 || (e >= 0 && e != cand)) { e = -2; break; }
                    e = cand;
                }
                if (e < 0) {
                    throw UnrecoverableFault(
                        "ft_soft", std::string("verify-") + phase, members,
                        "syndrome not consistent with a single corrupted "
                        "rank");
                }
                verdict[0] = BigInt{e};
                err = syndrome;  // eta_0^e == 1, so s_0 is the raw error
            } else if (f >= 2) {
                (void)rank.recv_bigints(code1, tag + f);
            }
        }

        // Broadcast the verdict to the column (members + code0).
        Group vg;
        vg.members = members;
        vg.members.push_back(code0);
        if (is_code && rank.id() != code0) return;  // other code rows done
        bcast(rank, vg, code0, verdict, tag + f + 1);
        const std::int64_t guilty = verdict[0].to_int64();
        if (guilty < 0) return;

        // Deliver the error vector to the guilty rank, which subtracts it.
        const int guilty_rank = static_cast<int>(guilty) * npts + column;
        if (rank.id() == code0) {
            rank.send_bigints(guilty_rank, tag + f + 2, err);
            corrected.fetch_add(1);
        }
        if (rank.id() == guilty_rank) {
            auto e = rank.recv_bigints(code0, tag + f + 2);
            if (e.size() != state.size()) {
                throw std::runtime_error("ft_soft: error vector size mismatch");
            }
            for (std::size_t t = 0; t < state.size(); ++t) state[t] -= e[t];
        }
    };

    // Encode helper identical in spirit to ft_linear's.
    auto encode = [&](Rank& rank, const std::vector<BigInt>& state, int tag)
        -> std::vector<BigInt> {
        const bool is_code = rank.id() >= P;
        const int column = is_code ? (rank.id() - P) % npts : rank.id() % npts;
        std::vector<int> members;
        for (int r = 0; r < height; ++r) members.push_back(r * npts + column);
        std::vector<BigInt> my_code;
        for (int j = 0; j < f; ++j) {
            const int code_rank = P + j * npts + column;
            if (is_code && rank.id() != code_rank) continue;
            Group g;
            g.members = members;
            g.members.push_back(code_rank);
            std::vector<BigInt> contribution;
            if (rank.id() != code_rank) {
                const BigInt eta{static_cast<std::int64_t>(j + 1)};
                const BigInt w =
                    eta.pow(static_cast<std::uint64_t>(rank.id() / npts));
                contribution.reserve(state.size());
                for (const BigInt& v : state) contribution.push_back(w * v);
            }
            auto s = reduce_sum(rank, g, code_rank, std::move(contribution), tag + j);
            if (rank.id() == code_rank) my_code = std::move(s);
        }
        return my_code;
    };

    machine.run([&](Rank& rank) {
        const bool is_code = rank.id() >= P;

        auto pack = [](const std::vector<BigInt>& x,
                       const std::vector<BigInt>& y) {
            std::vector<BigInt> s = x;
            s.insert(s.end(), y.begin(), y.end());
            return s;
        };
        auto unpack = [](std::vector<BigInt> s, std::vector<BigInt>& x,
                         std::vector<BigInt>& y) {
            const std::size_t half = s.size() / 2;
            y.assign(std::make_move_iterator(s.begin() +
                                             static_cast<std::ptrdiff_t>(half)),
                     std::make_move_iterator(s.end()));
            s.resize(half);
            x = std::move(s);
        };

        if (is_code) {
            std::vector<BigInt> none;
            rank.phase("encode-input");
            auto code = encode(rank, none, 800);
            verify_and_correct(rank, kEvalPhase, 820, none, code);
            rank.phase("encode-leaf");
            code = encode(rank, none, 840);
            verify_and_correct(rank, kLeafPhase, 860, none, code);
            rank.phase("encode-children");
            code = encode(rank, none, 880);
            verify_and_correct(rank, kInterpPhase, 900, none, code);
            return;
        }

        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, P, rank.id());
        std::vector<BigInt> b_loc = local_input_digits(b, shape, P, rank.id());

        // --- evaluation boundary ---
        rank.phase("encode-input");
        std::vector<BigInt> state = pack(a_loc, b_loc);
        std::vector<BigInt> none;
        encode(rank, state, 800);
        rank.phase(kEvalPhase);
        if (plan.corrupts_at(kEvalPhase, rank.id())) {
            corrupt(state, rank.id(), 1);
        }
        verify_and_correct(rank, kEvalPhase, 820, state, none);
        unpack(std::move(state), a_loc, b_loc);
        state.clear();

        // --- forward sweep ---
        struct Level {
            Group g;
            std::size_t bs;
            std::size_t len;
        };
        std::vector<Level> levels;
        Group g = Group::strided(0, P);
        std::size_t bs = 1;
        std::size_t len = N;
        for (int lv = 0; lv < bfs; ++lv) {
            const std::string lvl = std::to_string(lv);
            rank.phase("fwd-L" + lvl);
            const std::size_t m = g.size();
            const std::size_t s = len / static_cast<std::size_t>(k) / m;
            std::vector<BigInt> ea(unpts * s), eb(unpts * s);
            tplan.evaluate_blocks(a_loc, ea, s);
            tplan.evaluate_blocks(b_loc, eb, s);
            std::tie(a_loc, b_loc) = exchange_forward_pair(
                rank, g, unpts, bs, std::move(ea), std::move(eb),
                100 + lv * 8, 101 + lv * 8);
            levels.push_back({g, bs, len});
            g = column_subgroup(g, unpts, g.index_of(rank.id()) % unpts);
            bs *= unpts;
            len /= static_cast<std::size_t>(k);
        }

        // --- multiplication boundary: verify the leaf inputs first ---
        rank.phase("encode-leaf");
        state = pack(a_loc, b_loc);
        encode(rank, state, 840);
        rank.phase(kLeafPhase);
        if (plan.corrupts_at(kLeafPhase, rank.id())) {
            corrupt(state, rank.id(), 2);
        }
        verify_and_correct(rank, kLeafPhase, 860, state, none);
        unpack(std::move(state), a_loc, b_loc);
        state.clear();
        std::vector<BigInt> child = leaf_multiply(
            tplan, shape, std::move(a_loc), std::move(b_loc));

        // --- backward sweep ---
        for (int lv = bfs - 1; lv >= 0; --lv) {
            const Level& L = levels[static_cast<std::size_t>(lv)];
            const std::string lvl = std::to_string(lv);
            const std::size_t m = L.g.size();
            const std::size_t s = L.len / static_cast<std::size_t>(k) / m;
            const std::size_t rc = 2 * s;
            rank.phase("xbwd-L" + lvl);
            std::vector<BigInt> children = exchange_backward(
                rank, L.g, unpts, L.bs, std::move(child), 102 + lv * 8);

            if (lv == 0) {
                rank.phase("encode-children");
                encode(rank, children, 880);
                rank.phase(kInterpPhase);
                if (plan.corrupts_at(kInterpPhase, rank.id())) {
                    corrupt(children, rank.id(), 3);
                }
                verify_and_correct(rank, kInterpPhase, 900, children, none);
            } else {
                rank.phase("interp-L" + lvl);
            }
            std::vector<BigInt> coeffs(unpts * rc);
            tplan.interpolation().apply_blocks(children, coeffs, rc);
            child.assign(2 * L.len / m, BigInt{});
            for (std::size_t i = 0; i < unpts; ++i) {
                for (std::size_t t = 0; t < rc; ++t) {
                    child[i * s + t] += coeffs[i * rc + t];
                }
            }
        }
        slices[static_cast<std::size_t>(rank.id())] = std::move(child);
    });
    result.stats = machine.stats();
    result.transport = machine.transport_stats();
    result.corruptions_detected = detected.load();
    result.corruptions_corrected = corrected.load();

    const std::vector<BigInt> full = unslice(slices, 1);
    BigInt prod = recompose_digits(full, shape.digit_bits);
    assert(!prod.is_negative());
    result.product = a.sign() * b.sign() < 0 ? -prod : prod;
    return result;
}

}  // namespace ftmul

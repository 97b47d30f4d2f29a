#include "core/ft_soft.hpp"

#include <atomic>
#include <map>
#include <stdexcept>

#include "bigint/random.hpp"
#include "core/driver.hpp"
#include "runtime/collectives.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kLeafPhase = "leaf-mul";
constexpr const char* kInterpPhase = "interp-L0";

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

EngineSpec core_detail::ft_soft_spec(const FtSoftConfig& cfg) {
    const int npts = 2 * cfg.base.k - 1;
    const int P = cfg.base.processors;
    if (cfg.code_rows < 1) {
        throw std::invalid_argument("ft_soft: need at least 1 code row");
    }
    if (exact_log(static_cast<std::uint64_t>(P),
                  static_cast<std::uint64_t>(npts)) < 1) {
        throw std::invalid_argument(
            "ft_soft: processors must be a power of 2k-1, at least 2k-1");
    }
    return {P, P + cfg.code_rows * npts, P, P,
            {kEvalPhase, kLeafPhase, kInterpPhase}};
}

FtSoftResult ft_soft_multiply(const BigInt& a, const BigInt& b,
                              const FtSoftConfig& cfg,
                              const SoftFaultPlan& plan) {
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.code_rows;
    std::atomic<int> detected{0};
    std::atomic<int> corrected{0};
    FtRunResult run_result = run_engine("ft_soft", a, b, cfg.base, {}, [&](std::size_t n_bits) {
        EngineRun run{ft_soft_spec(cfg), {}, {}};
        const int P = run.spec.processors;

        // Validate: protected phases only; at most one corruption per column
        // per phase (single-error correction); correction requires f >= 2.
        // Config misuse (unknown phase, rank off the grid) stays a plain
        // std::invalid_argument; a *well-formed* plan that merely exceeds
        // the code's budget is typed UnrecoverableFault so drivers (the
        // resilient escalation ladder, chaos campaigns) can classify and
        // escalate it.
        std::map<std::string, std::map<int, std::vector<int>>> per_phase_col;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_phase(phase)) {
                throw std::invalid_argument(
                    "ft_soft: corruptions supported at eval-L0, leaf-mul, "
                    "interp-L0");
            }
            if (!run.spec.covers_rank(rank)) {
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

        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        run.shape = resolve_shape(geo, n_bits);
        run.body = [&a, &b, &plan, &detected, &corrected,
                    &tplan = ToomPlan::make(k), P, npts, f,
                    shape = run.shape](Rank& rank, Slices& slices) {
            const bool is_code = rank.id() >= P;
            const int column = is_code ? (rank.id() - P) % npts
                                       : rank.id() % npts;
            CodeColumn col{Group::strided(column, P / npts, npts).members, {}};
            for (int j = 0; j < f; ++j) col.code.push_back(P + j * npts + column);
            const int code0 = col.code[0];
            const int code1 = f >= 2 ? col.code[1] : code0;

            // Verification + correction at one boundary: f syndrome reduces,
            // then code row 0 locates and corrects. Returns through `state`
            // (corrected in place on the guilty rank).
            auto verify = [&](const char* phase, int tag,
                              std::vector<BigInt>& state,
                              const std::vector<BigInt>& my_code) {
                rank.phase(std::string("verify-") + phase);
                // Syndrome reduces: s_j = sum_l eta_j^l state_l - code_j at
                // code row j.
                std::vector<BigInt> syndrome;
                for (int j = 0; j < f; ++j) {
                    const int code_rank = col.code[static_cast<std::size_t>(j)];
                    if (is_code && rank.id() != code_rank) continue;
                    Group g{col.members};
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
                    auto s = reduce_sum(rank, g, code_rank,
                                        std::move(contribution), tag + j);
                    if (rank.id() == code_rank) syndrome = std::move(s);
                }

                // Code row 1 ships s_1 to code row 0, which locates and
                // corrects.
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
                            for (int row = 0; row < P / npts; ++row) {
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
                                "ft_soft", std::string("verify-") + phase,
                                col.members,
                                "syndrome not consistent with a single "
                                "corrupted rank");
                        }
                        verdict[0] = BigInt{e};
                        err = syndrome;  // eta_0^e == 1: s_0 is the raw error
                    } else if (f >= 2) {
                        (void)rank.recv_bigints(code1, tag + f);
                    }
                }

                // Broadcast the verdict to the column (members + code0).
                Group vg{col.members};
                vg.members.push_back(code0);
                if (is_code && rank.id() != code0) return;  // other code rows done
                bcast(rank, vg, code0, verdict, tag + f + 1);
                const std::int64_t guilty = verdict[0].to_int64();
                if (guilty < 0) return;

                // Deliver the error vector to the guilty rank, which
                // subtracts it.
                const int guilty_rank = static_cast<int>(guilty) * npts + column;
                if (rank.id() == code0) {
                    rank.send_bigints(guilty_rank, tag + f + 2, err);
                    corrected.fetch_add(1);
                }
                if (rank.id() == guilty_rank) {
                    auto e = rank.recv_bigints(code0, tag + f + 2);
                    if (e.size() != state.size()) {
                        throw std::runtime_error(
                            "ft_soft: error vector size mismatch");
                    }
                    for (std::size_t t = 0; t < state.size(); ++t) state[t] -= e[t];
                }
            };
            // One protected boundary, entered in its encode phase: encode,
            // enter the phase (where a planned corruption strikes), verify
            // and correct.
            auto boundary = [&](const char* phase, int tag, int salt,
                                std::vector<BigInt>& state) {
                const std::vector<BigInt> code =
                    encode_column(rank, col, state, tag);
                if (!is_code) {
                    rank.phase(phase);
                    if (plan.corrupts_at(phase, rank.id())) {
                        corrupt(state, rank.id(), salt);
                    }
                }
                verify(phase, tag + 20, state, code);
            };
            auto boundary_pair = [&](const char* encode_phase,
                                     const char* phase, int tag, int salt,
                                     std::vector<BigInt>& x,
                                     std::vector<BigInt>& y) {
                rank.phase(encode_phase);
                std::vector<BigInt> state = pack(x, y);
                boundary(phase, tag, salt, state);
                unpack(std::move(state), x, y);
            };

            if (is_code) {
                std::vector<BigInt> none;
                rank.phase("encode-input");
                boundary(kEvalPhase, 800, 1, none);
                rank.phase("encode-leaf");
                boundary(kLeafPhase, 840, 2, none);
                rank.phase("encode-children");
                boundary(kInterpPhase, 880, 3, none);
                return;
            }

            rank.phase("split");
            SweepHooks hooks;
            hooks.eval = [&](int lv, std::vector<BigInt>& x,
                             std::vector<BigInt>& y) {
                if (lv == 0) {
                    boundary_pair("encode-input", kEvalPhase, 800, 1, x, y);
                }
                rank.phase("fwd-L" + std::to_string(lv));
            };
            hooks.exchange = [](int, std::size_t) {};
            // The leaf inputs are verified before the multiplication.
            hooks.leaf = [&](std::vector<BigInt>& x, std::vector<BigInt>& y) {
                boundary_pair("encode-leaf", kLeafPhase, 840, 2, x, y);
            };
            hooks.interp = [&](int lv, std::vector<BigInt>& children) {
                if (lv == 0) {
                    rank.phase("encode-children");
                    boundary(kInterpPhase, 880, 3, children);
                } else {
                    rank.phase("interp-L" + std::to_string(lv));
                }
            };
            slices[static_cast<std::size_t>(rank.id())] = bfs_sweep(
                rank, tplan, shape, local_input_digits(a, shape, P, rank.id()),
                local_input_digits(b, shape, P, rank.id()), hooks);
        };
        return run;
    });
    run_result.faults_injected = static_cast<int>(plan.total());
    return {std::move(run_result), detected.load(), corrected.load()};
}

}  // namespace ftmul

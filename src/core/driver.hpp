#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/config.hpp"
#include "core/ft_poly.hpp"
#include "runtime/fault.hpp"
#include "runtime/group.hpp"
#include "runtime/machine.hpp"
#include "toom/plan.hpp"

namespace ftmul {

struct FtLinearConfig;
struct FtPolyConfig;
struct FtMixedConfig;
struct FtMultistepConfig;
struct ReplicationConfig;
struct CheckpointConfig;
struct FtSoftConfig;

/// Internals shared by the engines: one driver, the BFS traversals, and the
/// two codes of Section 4 acting on grid columns.
namespace core_detail {

/// An engine's geometry and fault surface: what its config alone fixes.
/// fault_surface() reports these numbers and the engine's budget check
/// enforces them, so the two cannot drift apart.
struct EngineSpec {
    int processors = 0;     ///< P, the standard processors
    int world = 0;          ///< ranks the Machine runs
    int slices = 0;         ///< leading ranks whose slices form the product
    int surface_ranks = 0;  ///< a fault may hit ranks [0, surface_ranks)...
    std::vector<std::string> surface_phases;  ///< ...at these phases

    bool covers_rank(int rank) const {
        return rank >= 0 && rank < surface_ranks;
    }
    bool covers_phase(const std::string& phase) const {
        return std::find(surface_phases.begin(), surface_phases.end(),
                         phase) != surface_phases.end();
    }
};

/// Each rank's slice of the product's positional coefficient vector.
using Slices = std::vector<std::vector<BigInt>>;

/// One run of an engine, bound once its config and fault plan passed.
struct EngineRun {
    EngineSpec spec;
    ResolvedShape shape;
    /// The SPMD body; rank r stores its result slice in slices[r].
    std::function<void(Rank&, Slices&)> body;
};

/// Throws std::invalid_argument on a config error; the engine's geometry.
EngineSpec ft_linear_spec(const FtLinearConfig& cfg);
EngineSpec ft_poly_spec(const FtPolyConfig& cfg);
EngineSpec ft_mixed_spec(const FtMixedConfig& cfg);
EngineSpec ft_multistep_spec(const FtMultistepConfig& cfg);
EngineSpec replication_spec(const ReplicationConfig& cfg);
EngineSpec checkpoint_spec(const CheckpointConfig& cfg);
EngineSpec ft_soft_spec(const FtSoftConfig& cfg);

/// The one engine driver. Opens the EngineRunScope, then calls `setup`,
/// which checks the config, then the fault plan, and resolves the shape.
/// On a zero operand it returns the shape alone. Otherwise it runs the body
/// on a fresh Machine carrying the plan, with the event log and the
/// transport armed per @p base, and assembles the product from the slices.
FtRunResult run_engine(const char* name, const BigInt& a, const BigInt& b,
                       const ParallelConfig& base, const FaultPlan& plan,
                       const std::function<EngineRun(std::size_t n_bits)>& setup);

/// x followed by y: the state a linear code or a checkpoint protects.
std::vector<BigInt> pack(const std::vector<BigInt>& x,
                         const std::vector<BigInt>& y);

/// Inverse of pack: the first half of @p s into x, the second into y.
void unpack(std::vector<BigInt> s, std::vector<BigInt>& x,
            std::vector<BigInt>& y);

/// Words a rank holds for @p digits digits of @p shape.
std::uint64_t words_estimate(const ResolvedShape& shape, std::size_t digits);

/// This rank's slice of the split digits of |v| (layout bs=1 over P ranks).
std::vector<BigInt> local_input_digits(const BigInt& v,
                                       const ResolvedShape& shape, int nranks,
                                       int my_index);

/// The recursive distributed convolution; returns this rank's slice of the
/// result vector. See layout.hpp for the slice invariant. Performs dfs_left
/// DFS steps followed by BFS steps until the group is singleton (the
/// optimal order per Ballard et al., cited in Section 3).
std::vector<BigInt> dist_convolve(Rank& rank, const ToomPlan& plan,
                                  const ResolvedShape& shape, const Group& g,
                                  std::size_t bs, std::vector<BigInt> a_loc,
                                  std::vector<BigInt> b_loc, std::size_t len,
                                  int dfs_left, int level);

/// Generalized traversal: @p steps spells the remaining schedule, 'D' for a
/// communication-free DFS step, 'B' for a row-exchange BFS step; the leaf
/// runs when steps are exhausted (the group must be singleton by then, i.e.
/// steps must contain exactly log_{2k-1}(|g|) 'B's).
std::vector<BigInt> dist_convolve_steps(Rank& rank, const ToomPlan& plan,
                                        const ResolvedShape& shape,
                                        const Group& g, std::size_t bs,
                                        std::vector<BigInt> a_loc,
                                        std::vector<BigInt> b_loc,
                                        std::size_t len,
                                        std::string_view steps, int level);

/// Leaf kernel: exact convolution of the two (signed) digit blocks via
/// sequential Toom-Cook (toom_convolve), padded to exactly twice the input
/// length.
std::vector<BigInt> leaf_multiply(const ToomPlan& plan,
                                  const ResolvedShape& shape,
                                  std::vector<BigInt> a_loc,
                                  std::vector<BigInt> b_loc);

/// Overlap-add the npts interpolated coefficient blocks (each the positional
/// result of a len/k sub-product, rc local values) into the positional
/// result of the len-sized problem (out_local_len local values). Block i
/// sits at local offset i*block_gap_local — whole cyclic cycles, so the
/// operation is fully local.
std::vector<BigInt> fold_blocks_local(std::span<const BigInt> blocks,
                                      std::size_t npts, std::size_t rc,
                                      std::size_t block_gap_local,
                                      std::size_t out_local_len);

/// Where an unrolled BFS sweep hands control back to its engine, at every
/// boundary the engine may protect.
struct SweepHooks {
    /// Before level lv's evaluation, on the level's input slices.
    std::function<void(int lv, std::vector<BigInt>& a, std::vector<BigInt>& b)>
        eval;
    /// Between level lv's evaluation and its forward exchange; @p digits is
    /// the live working set (inputs plus evaluations).
    std::function<void(int lv, std::size_t digits)> exchange;
    /// Before the leaf multiplication, on the leaf inputs.
    std::function<void(std::vector<BigInt>& a, std::vector<BigInt>& b)> leaf;
    /// Between level lv's backward exchange and its interpolation, on the
    /// children's coefficient slices.
    std::function<void(int lv, std::vector<BigInt>& children)> interp;
};

/// The unlimited-memory BFS traversal over the shape's P = (2k-1)^bfs ranks,
/// unrolled into a forward and a backward sweep; returns this rank's result
/// slice. Phases "xbwd-L<i>" are the sweep's own; every other phase is the
/// hooks' to enter.
std::vector<BigInt> bfs_sweep(Rank& rank, const ToomPlan& plan,
                              const ResolvedShape& shape,
                              std::vector<BigInt> a_loc,
                              std::vector<BigInt> b_loc,
                              const SweepHooks& hooks);

/// One column of the Section 4.1 linear code: its data ranks, whose
/// positions are the Vandermonde weight indices, and its code ranks; code
/// rank j holds sum_l eta_j^l state_l with eta_j = j + 1.
struct CodeColumn {
    std::vector<int> members;
    std::vector<int> code;
};

/// Faults a linear code repairs: phase -> grid column -> dead ranks.
using LinearFaults = std::map<std::string, std::map<int, std::vector<int>>>;

/// The column's dead ranks at @p phase; nullptr when there are none.
const std::vector<int>* dead_in(const LinearFaults& faults,
                                const std::string& phase, int col);

/// Place a fresh code of @p state on the column's code ranks, one weighted
/// reduce per code rank (tags tag..tag+f-1). Returns the code vector on a
/// code rank, empty on a data rank.
std::vector<BigInt> encode_column(Rank& rank, const CodeColumn& col,
                                  const std::vector<BigInt>& state, int tag);

/// Rebuild the dead data ranks' state from the survivors and the column's
/// first |dead| code ranks. @p state is the rank's code vector on a code
/// rank. Returns the rebuilt state on the dead ranks, empty elsewhere.
/// Throws UnrecoverableFault (naming @p engine) on a singular system.
std::vector<BigInt> recover_column(Rank& rank, const char* engine,
                                   const std::string& phase,
                                   const CodeColumn& col,
                                   const std::vector<int>& dead,
                                   const std::vector<BigInt>& state, int tag);

/// The polynomial code's column kill (Section 4.2) on a grid of `wide`
/// columns: the columns "mul"-phase faults halt, the surviving columns
/// interpolation reads, and the substitute that takes over the dead
/// columns' shares of the result.
struct ColumnKill {
    std::set<int> doomed;
    std::vector<std::size_t> used_cols;  ///< the first `used` survivors
    std::size_t sub_col = 0;             ///< the first survivor

    /// Kills the columns of @p dead. Throws UnrecoverableFault(engine,
    /// "mul", dead, "faults span N distinct columns but " + budget) when
    /// more than f columns die.
    ColumnKill(const char* engine, const std::vector<int>& dead, int wide,
               int used, int f, const std::string& budget);

    /// The result shares @p col interpolates: its own, then, on the
    /// substitute, every dead column's.
    std::vector<std::size_t> roles(std::size_t col) const;
};

/// The backward exchange of a column-killed step: split @p child into its
/// per-column pieces and send each to its row peer, or to the substitute
/// when that peer's column is dead (tag 60 + column). Returns the pieces.
std::vector<std::vector<BigInt>> send_pieces(Rank& rank, const ColumnKill& kill,
                                             std::size_t row, std::size_t col,
                                             std::size_t wide,
                                             std::vector<BigInt> child);

/// One role's pieces from every used column of this rank's row, in used
/// order: the own column's from @p pieces, the rest received.
std::vector<BigInt> receive_role(Rank& rank, const char* engine,
                                 const ColumnKill& kill, std::size_t row,
                                 std::size_t col, std::size_t wide,
                                 std::size_t role,
                                 const std::vector<std::vector<BigInt>>& pieces);

/// Run @p interp on each of this rank's roles; the substituted ones are
/// bracketed as recovery of the row's dead ranks.
void for_each_role(Rank& rank, const ColumnKill& kill, std::size_t row,
                   std::size_t col, std::size_t wide,
                   const std::function<void(std::size_t role)>& interp);

}  // namespace core_detail

}  // namespace ftmul

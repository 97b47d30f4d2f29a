#include "toom/sequential.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "toom/digits.hpp"

namespace ftmul {

namespace {

/// The values of one recursion level. Each is overwritten in its own limb
/// storage, so a level reused for operands of the size it last saw
/// allocates nothing.
struct Level {
    std::vector<BigInt> da, db;    ///< the k digits of |a| and |b|
    std::vector<BigInt> ea, eb;    ///< their values at the 2k-1 base points
    std::vector<BigInt> products;  ///< pointwise products, one per child
    std::vector<BigInt> coeffs;    ///< the interpolated coefficients
};

/// Takes the calling thread's next free level and releases it on exit, so
/// levels are used in LIFO order: a toom_multiply called from inside
/// custom_interpolation starts above the levels in use. A level never moves
/// (the stack owns it through a pointer) and lives until its thread exits,
/// so a thread keeps the largest workspace it has used, like LimbArena's
/// slabs.
class LevelScope {
public:
    explicit LevelScope(std::size_t k) : stack_(local()) {
        if (stack_.depth == stack_.levels.size()) {
            stack_.levels.push_back(std::make_unique<Level>());
        }
        level_ = stack_.levels[stack_.depth++].get();
        level_->da.resize(k);
        level_->db.resize(k);
        level_->ea.resize(2 * k - 1);
        level_->eb.resize(2 * k - 1);
        level_->products.resize(2 * k - 1);
        level_->coeffs.resize(2 * k - 1);
    }
    ~LevelScope() { --stack_.depth; }
    LevelScope(const LevelScope&) = delete;
    LevelScope& operator=(const LevelScope&) = delete;

    Level& operator*() const noexcept { return *level_; }

private:
    struct Stack {
        std::vector<std::unique_ptr<Level>> levels;
        std::size_t depth = 0;
    };
    static Stack& local() {
        static thread_local Stack stack;
        return stack;
    }

    Stack& stack_;
    Level* level_;
};

/// out = a * b. Every value of the recursion lives in a level workspace and
/// each child writes its product straight into its parent's slot, so only
/// the caller's @p out can need fresh storage.
void multiply_rec(BigInt& out, const BigInt& a, const BigInt& b,
                  const ToomPlan& plan, const ToomOptions& opts) {
    const std::size_t n = std::max(a.bit_length(), b.bit_length());
    if (n <= opts.threshold_bits || a.is_zero() || b.is_zero()) {
        mul_into(out, a, b);
        return;
    }

    const auto k = static_cast<std::size_t>(plan.k());
    // Shared base B = 2^digit_bits (paper Section 2.2).
    const std::size_t digit_bits = (n + k - 1) / k;
    const LevelScope scope(k);
    Level& lv = *scope;

    for (std::size_t i = 0; i < k; ++i) {
        lv.da[i].assign_bits(a, i * digit_bits, digit_bits);
        lv.db[i].assign_bits(b, i * digit_bits, digit_bits);
    }
    plan.evaluate_blocks(lv.da, lv.ea, 1);  // the 2k-1 base points
    plan.evaluate_blocks(lv.db, lv.eb, 1);

    for (std::size_t i = 0; i < lv.products.size(); ++i) {
        multiply_rec(lv.products[i], lv.ea[i], lv.eb[i], plan, opts);
    }

    if (opts.custom_interpolation) {
        opts.custom_interpolation(lv.products);
        recompose_digits_into(out, lv.products, digit_bits);
    } else {
        plan.interpolation().apply_into(lv.products, lv.coeffs);
        recompose_digits_into(out, lv.coeffs, digit_bits);
    }
    assert(!out.is_negative());
    if (a.sign() * b.sign() < 0) out.negate();
}

}  // namespace

BigInt toom_multiply(const BigInt& a, const BigInt& b, const ToomPlan& plan,
                     const ToomOptions& opts) {
    BigInt out;
    multiply_rec(out, a, b, plan, opts);
    return out;
}

}  // namespace ftmul

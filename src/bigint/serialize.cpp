#include "bigint/serialize.hpp"

#include <stdexcept>

namespace ftmul {

namespace {

/// The sign word of a value with @p n limbs as serialize_bigint writes it:
/// -1, 0 or +1, and 0 only for an empty magnitude.
int decode_sign(std::uint64_t w, std::size_t n) {
    const auto sign = static_cast<std::int64_t>(w);
    if (sign < -1 || sign > 1 || (sign == 0 && n != 0)) {
        throw std::runtime_error("deserialize_bigint: bad sign word");
    }
    return static_cast<int>(sign);
}

}  // namespace

std::size_t serialize_bigint(const BigInt& v, std::vector<std::uint64_t>& out) {
    const std::size_t start = out.size();
    out.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(v.sign())));
    out.push_back(v.limb_count());
    const auto& mag = v.magnitude();
    out.insert(out.end(), mag.begin(), mag.end());
    return out.size() - start;
}

BigInt deserialize_bigint(std::span<const std::uint64_t> words, std::size_t& pos) {
    if (pos + 2 > words.size()) {
        throw std::runtime_error("deserialize_bigint: truncated header");
    }
    const std::uint64_t sign_word = words[pos++];
    const std::size_t n = words[pos++];
    const int sign = decode_sign(sign_word, n);
    // Compared against the remainder, not as pos + n: n comes off the wire
    // and pos + n wraps for n near 2^64.
    if (n > words.size() - pos) {
        throw std::runtime_error("deserialize_bigint: truncated payload");
    }
    const std::uint64_t* first = words.data() + pos;
    pos += n;
    return BigInt::from_parts(sign, detail::Limbs(first, first + n));
}

std::vector<std::uint64_t> serialize_vec(std::span<const BigInt> values) {
    std::vector<std::uint64_t> out;
    out.push_back(values.size());
    for (const BigInt& v : values) serialize_bigint(v, out);
    return out;
}

std::size_t serialized_words(std::span<const BigInt> values) {
    std::size_t total = 1;  // count word
    for (const BigInt& v : values) total += 2 + v.limb_count();
    return total;
}

void serialize_vec_into(std::span<const BigInt> values,
                        std::vector<std::uint64_t>& out) {
    out.reserve(out.size() + serialized_words(values));
    out.push_back(values.size());
    for (const BigInt& v : values) serialize_bigint(v, out);
}

std::vector<BigInt> deserialize_vec(std::span<const std::uint64_t> words) {
    std::size_t pos = 0;
    if (words.empty()) throw std::runtime_error("deserialize_vec: empty buffer");
    const std::size_t count = words[pos++];
    // Every value takes at least its two header words, so a count beyond
    // that is truncated (and must not size the reservation).
    if (count > (words.size() - pos) / 2) {
        throw std::runtime_error("deserialize_vec: truncated buffer");
    }
    std::vector<BigInt> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(deserialize_bigint(words, pos));
    }
    return out;
}

bool adoptable_frame(std::span<const std::uint64_t> words) {
    return words.size() >= 3 && words[0] == 1 && words[2] >= kAdoptMinWords &&
           words[2] == words.size() - 3;
}

std::vector<BigInt> deserialize_vec_adopt(std::vector<std::uint64_t>&& words) {
    if (adoptable_frame(words)) {
        // Single large value: shift the 3-word header ([count, sign, limbs])
        // out of the way and hand the storage itself to the BigInt.
        const int sign = decode_sign(words[1], words[2]);
        words.erase(words.begin(), words.begin() + 3);
        std::vector<BigInt> out;
        out.push_back(BigInt::from_parts(sign, detail::Limbs(std::move(words))));
        return out;
    }
    return deserialize_vec(words);
}

}  // namespace ftmul

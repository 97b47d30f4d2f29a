#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"

namespace ftmul {

/// Wire format for BigInt values and vectors of them, used by the simulated
/// message-passing runtime. Layout per value: [sign-as-u64, limb-count,
/// limbs...]. Words are the unit the runtime's bandwidth counter charges for,
/// matching the paper's "words moved" (BW) metric.

/// Append the encoding of @p v to @p out; returns words appended.
std::size_t serialize_bigint(const BigInt& v, std::vector<std::uint64_t>& out);

/// Decode one BigInt starting at @p pos; advances @p pos past it. Throws
/// std::runtime_error when the value runs past the buffer or its sign word
/// is not -1, 0 or +1 (0 only with no limbs).
BigInt deserialize_bigint(std::span<const std::uint64_t> words, std::size_t& pos);

/// Encode a whole vector: [count, value, value, ...].
std::vector<std::uint64_t> serialize_vec(std::span<const BigInt> values);

/// Decode a vector encoded by serialize_vec. Throws std::runtime_error on a
/// malformed buffer, including a count the buffer cannot hold.
std::vector<BigInt> deserialize_vec(std::span<const std::uint64_t> words);

/// Exact word count serialize_vec would produce for @p values. Lets a caller
/// size a recycled buffer once instead of growing it limb row by limb row.
std::size_t serialized_words(std::span<const BigInt> values);

/// serialize_vec, but appending into a caller-provided buffer (typically
/// recycled pool storage with the capacity already in place). The words
/// appended are byte-identical to serialize_vec's output.
void serialize_vec_into(std::span<const BigInt> values,
                        std::vector<std::uint64_t>& out);

/// True when deserialize_vec_adopt would take the zero-copy path for this
/// frame: exactly one BigInt whose magnitude spans the rest of the buffer
/// and has at least kAdoptMinWords limbs.
bool adoptable_frame(std::span<const std::uint64_t> words);

/// deserialize_vec that may *adopt* the buffer's storage instead of copying:
/// when the frame holds a single BigInt whose magnitude has at least
/// kAdoptMinWords limbs, the header is shifted out in place and the vector
/// itself becomes the BigInt's limb storage — no allocation, no limb copy.
/// Smaller frames fall back to the copying decoder (so the buffer can return
/// to its pool, which is the better trade for short messages).
std::vector<BigInt> deserialize_vec_adopt(std::vector<std::uint64_t>&& words);

/// Minimum magnitude limb count for the deserialize_vec_adopt zero-copy
/// path. Below this the copy is cheaper than losing a pooled buffer.
inline constexpr std::size_t kAdoptMinWords = 1024;

}  // namespace ftmul

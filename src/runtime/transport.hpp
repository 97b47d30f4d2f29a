#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/fault.hpp"

namespace ftmul {

/// Frame-integrity layer of the message data plane.
///
/// When a Machine's transport guard is armed, every frame a rank sends is
/// *sealed*: a five-word trailer is appended carrying a magic/word-count
/// word, a content checksum, a per-(src, dst, tag) sequence number,
/// the packed route and a piggybacked cumulative acknowledgment. The trailer
/// is physically appended (not prepended) so sealing is O(1) on the
/// already-serialized payload — no memmove — and the receiver strips it with
/// a resize after verification.
///
/// Trailer layout, appended after the payload's `n` words:
///   [n+0]  kFrameMagicLive<<32 | n         (magic + payload word count)
///   [n+1]  frame_checksum over the n payload words
///   [n+2]  sequence number within the (src, dst, tag) stream, from 0
///   [n+3]  route: src<<48 | dst<<32 | tag
///   [n+4]  ack: delivered<<32 | (tag'+1), or 0 when nothing to report —
///          the sender's cumulative receive watermark for one reverse
///          stream dst -> src on tag', piggybacked for free on traffic
///          that is flowing anyway (see the ack-window notes in
///          docs/ROBUSTNESS.md)
///
/// A *tombstone* is a payload-free frame sealed with kFrameMagicDropped:
/// the injection shim converts a dropped frame into one so the loss is
/// detected deterministically at the receiver (no timeout race) and the
/// retransmit protocol can name the missing sequence number. A tombstone
/// keeps the original frame's ack word — a drop loses the payload, not the
/// flow-control information riding the trailer.
inline constexpr std::size_t kFrameTrailerWords = 5;
inline constexpr std::uint32_t kFrameMagicLive = 0xF7134C1Eu;
inline constexpr std::uint32_t kFrameMagicDropped = 0xF713D40Du;

/// Pack a piggybacked cumulative ack: @p delivered frames of the reverse
/// stream on @p tag have been received contiguously. tag+1 keeps tag 0
/// distinguishable from "no ack" (word 0); delivered saturates at 2^32-1,
/// far beyond any stream this machine model produces.
std::uint64_t frame_ack_word(int tag, std::uint64_t delivered) noexcept;

/// The acknowledged stream's tag, or -1 when the word carries no ack.
int frame_ack_tag(std::uint64_t ack) noexcept;

/// The acknowledged cumulative delivered count (0 when no ack).
std::uint64_t frame_ack_count(std::uint64_t ack) noexcept;

/// Content checksum of @p words: one mixing step per word (xor the word in,
/// multiply by an odd constant, fold the high half down), each a bijection
/// of the running state and of the word, so a change confined to one word
/// always changes the checksum. Fixed here (like the FaultInjector's site
/// hash) so checksums are stable across standard libraries and builds.
std::uint64_t frame_checksum(std::span<const std::uint64_t> words) noexcept;

/// The packed route word of the trailer.
std::uint64_t frame_route(int src, int dst, int tag) noexcept;

/// Append the integrity trailer to a serialized frame. @p ack is the
/// piggybacked cumulative acknowledgment word (0 = none).
void seal_frame(std::vector<std::uint64_t>& frame, int src, int dst, int tag,
                std::uint64_t seq, std::uint64_t ack = 0);

/// Build a payload-free tombstone frame for a dropped message (out
/// parameter is overwritten). The original frame's ack word survives the
/// drop.
void seal_tombstone(std::vector<std::uint64_t>& frame, int src, int dst,
                    int tag, std::uint64_t seq, std::uint64_t ack = 0);

/// Drop the trailer after verification; the frame is a pure payload again.
inline void strip_trailer(std::vector<std::uint64_t>& frame) {
    frame.resize(frame.size() - kFrameTrailerWords);
}

/// Receiver-side classification of one popped frame.
enum class FrameState {
    Intact,          ///< trailer consistent, checksum matches
    Tombstone,       ///< a dropped frame's marker; seq names the loss
    PayloadCorrupt,  ///< trailer consistent but the checksum mismatches
    Malformed,       ///< truncated / bad magic / wrong route — seq untrusted
};

struct FrameVerdict {
    FrameState state = FrameState::Malformed;
    std::uint64_t seq = 0;  ///< meaningful unless state == Malformed
    std::uint64_t ack = 0;  ///< piggybacked ack word (0 = none / Malformed)
    std::size_t payload_words = 0;
};

/// Verify a frame against the route the receiver asked for. The sequence
/// number is trusted exactly when the magic, word count and route are all
/// consistent — a checksum mismatch alone (the shim flips payload bits)
/// still yields a usable seq, so recovery can target the right frame
/// instead of guessing.
FrameVerdict inspect_frame(std::span<const std::uint64_t> frame, int src,
                           int dst, int tag);

/// What the injection shim does to one frame in flight.
enum class TransportAction { None, Corrupt, Drop, Dup, Reorder };

const char* to_string(TransportAction a);

/// Seeded probabilistic transport-fault model, the data-plane sibling of
/// FaultInjectorConfig's rate knobs. Sites are (src, dst, link message
/// index) triples hashed content-addressed through splitmix64, so a frame's
/// fate is a pure function of (seed, trial, src, dst, index) — independent
/// of thread interleaving and of every other link's traffic, which is what
/// keeps chaos campaigns byte-identical for any --jobs count.
struct TransportFaultModel {
    std::uint64_t seed = 0;
    std::uint64_t trial = 0;

    /// Per-frame probabilities, drawn in fixed priority order
    /// corrupt > drop > dup > reorder (one action per frame).
    double corrupt_rate = 0.0;
    double drop_rate = 0.0;
    double dup_rate = 0.0;
    double reorder_rate = 0.0;

    bool active() const noexcept {
        return corrupt_rate > 0.0 || drop_rate > 0.0 || dup_rate > 0.0 ||
               reorder_rate > 0.0;
    }

    /// Throws std::invalid_argument when a rate is outside [0, 1].
    void validate() const;

    /// The fate of the @p msg_index-th frame the shim sees on link
    /// src -> dst.
    TransportAction draw(int src, int dst, std::uint64_t msg_index) const;

    /// Deterministic bit-flip schedule for a Corrupt action on the same
    /// site (low bits pick the word, bits 32.. pick the bit).
    std::uint64_t corruption_bits(int src, int dst,
                                  std::uint64_t msg_index) const;
};

/// Flip one payload bit of a sealed frame (empty payloads flip the stored
/// checksum instead) — the shim's Corrupt action. The trailer's magic,
/// route and seq words are never touched, so detection classifies this as
/// PayloadCorrupt with a trusted sequence number.
void corrupt_frame(std::vector<std::uint64_t>& frame, std::uint64_t bits);

/// Per-run transport accounting, snapshot through
/// Machine::transport_stats() and surfaced in FtRunResult/chaos reports.
struct TransportStats {
    // Sender side.
    std::uint64_t sent_frames = 0;
    std::uint64_t header_words = 0;  ///< trailer words charged to the model

    // Injection shim (what the model actually did).
    std::uint64_t injected_corrupt = 0;
    std::uint64_t injected_drop = 0;
    std::uint64_t injected_dup = 0;
    std::uint64_t injected_reorder = 0;

    // Receiver side detection + recovery.
    std::uint64_t corrupt_detected = 0;
    std::uint64_t malformed_detected = 0;  ///< truncation / bad trailer
    std::uint64_t drop_detected = 0;       ///< tombstones seen
    std::uint64_t dedup_hits = 0;          ///< duplicate frames discarded
    std::uint64_t reorder_stashed = 0;     ///< ahead-of-order frames parked
    std::uint64_t retransmits = 0;         ///< retained-frame recoveries
    std::uint64_t retransmit_words = 0;    ///< words re-delivered that way

    // Acknowledgment window (every field below is a pure function of rank
    // program order, so reports built from them stay byte-identical across
    // --jobs counts; racy quantities like the live retention footprint go
    // to the metrics gauges instead).
    std::uint64_t acked_seqs = 0;        ///< seqs covered by recv watermarks
    std::uint64_t acks_piggybacked = 0;  ///< frames sent with a nonzero ack
    std::uint64_t acks_standalone = 0;   ///< charged standalone ack frames
    std::uint64_t retained_frames = 0;   ///< retention insertions (total)
    std::uint64_t retained_words = 0;    ///< words copied into retention
    std::uint64_t live_streams_end = 0;  ///< retention stream nodes left
                                         ///< after the post-run sweep (0)

    std::uint64_t injected_total() const noexcept {
        return injected_corrupt + injected_drop + injected_dup +
               injected_reorder;
    }
    /// Losses the receiver must notice or the product is at risk: corruption
    /// and drops (dups/reorders are absorbed by the seq window either way).
    std::uint64_t detected_losses() const noexcept {
        return corrupt_detected + malformed_detected + drop_detected;
    }

    TransportStats& operator+=(const TransportStats& o) noexcept;
};

}  // namespace ftmul

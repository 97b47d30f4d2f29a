#include "runtime/transport.hpp"

#include <stdexcept>
#include <string>

namespace ftmul {

namespace {

// Same splitmix64 mixer the FaultInjector uses for its site streams, kept
// in lockstep so both fault domains share one replayability story.
std::uint64_t splitmix(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Content-addressed link site: keyed by the endpoint ranks and the frame's
/// index on that link, never by any global order, so one link's draws are
/// independent of every other link's traffic (and of the thread schedule).
std::uint64_t link_site(int src, int dst, std::uint64_t msg_index) noexcept {
    return splitmix(static_cast<std::uint64_t>(src) + 0x535243ull /*SRC*/) ^
           splitmix(static_cast<std::uint64_t>(dst) + 0x445354ull /*DST*/) ^
           splitmix(msg_index + 0x4d5347ull /*MSG*/);
}

std::uint64_t site_bits(std::uint64_t seed, std::uint64_t trial,
                        std::uint64_t site, std::uint64_t salt) noexcept {
    std::uint64_t h = splitmix(seed);
    h = splitmix(h ^ splitmix(trial));
    h = splitmix(h ^ splitmix(site));
    h = splitmix(h ^ splitmix(salt));
    return h;
}

double site_uniform(std::uint64_t seed, std::uint64_t trial,
                    std::uint64_t site, std::uint64_t salt) noexcept {
    // 53 uniform mantissa bits in [0, 1).
    return static_cast<double>(site_bits(seed, trial, site, salt) >> 11) *
           0x1.0p-53;
}

void check_rate(const char* what, double rate) {
    if (rate < 0.0 || rate > 1.0) {
        throw std::invalid_argument(
            std::string("TransportFaultModel: ") + what +
            " rate must be a probability in [0, 1]");
    }
}

}  // namespace

std::uint64_t frame_checksum(std::span<const std::uint64_t> words) noexcept {
    std::uint64_t h = 0x243f6a8885a308d3ull;
    for (const std::uint64_t w : words) {
        // The fold carries the top bits down: with a bare (h ^ w) * odd, the
        // same top-bit flip in two words would cancel.
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
    }
    return h;
}

std::uint64_t frame_route(int src, int dst, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src))
            << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst))
            << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

std::uint64_t frame_ack_word(int tag, std::uint64_t delivered) noexcept {
    if (delivered == 0) return 0;
    const std::uint64_t hi =
        delivered > 0xffffffffull ? 0xffffffffull : delivered;
    return (hi << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) + 1);
}

int frame_ack_tag(std::uint64_t ack) noexcept {
    const auto lo = static_cast<std::uint32_t>(ack);
    if (lo == 0) return -1;
    return static_cast<int>(lo - 1);
}

std::uint64_t frame_ack_count(std::uint64_t ack) noexcept {
    return ack >> 32;
}

void seal_frame(std::vector<std::uint64_t>& frame, int src, int dst, int tag,
                std::uint64_t seq, std::uint64_t ack) {
    const std::uint64_t n = frame.size();
    const std::uint64_t sum = frame_checksum({frame.data(), frame.size()});
    frame.push_back((static_cast<std::uint64_t>(kFrameMagicLive) << 32) |
                    static_cast<std::uint32_t>(n));
    frame.push_back(sum);
    frame.push_back(seq);
    frame.push_back(frame_route(src, dst, tag));
    frame.push_back(ack);
}

void seal_tombstone(std::vector<std::uint64_t>& frame, int src, int dst,
                    int tag, std::uint64_t seq, std::uint64_t ack) {
    frame.clear();
    frame.push_back(static_cast<std::uint64_t>(kFrameMagicDropped) << 32);
    frame.push_back(frame_checksum({}));
    frame.push_back(seq);
    frame.push_back(frame_route(src, dst, tag));
    frame.push_back(ack);
}

FrameVerdict inspect_frame(std::span<const std::uint64_t> frame, int src,
                           int dst, int tag) {
    FrameVerdict v;
    if (frame.size() < kFrameTrailerWords) return v;  // truncated
    const std::size_t n = frame.size() - kFrameTrailerWords;
    const std::uint64_t w0 = frame[n];
    const std::uint64_t sum = frame[n + 1];
    const std::uint64_t seq = frame[n + 2];
    const std::uint64_t route = frame[n + 3];
    const std::uint64_t ack = frame[n + 4];
    const auto magic = static_cast<std::uint32_t>(w0 >> 32);
    const auto count = static_cast<std::uint32_t>(w0);
    if (route != frame_route(src, dst, tag)) return v;  // misrouted
    if (magic == kFrameMagicDropped) {
        if (count != 0 || n != 0) return v;
        v.state = FrameState::Tombstone;
        v.seq = seq;
        v.ack = ack;
        return v;
    }
    if (magic != kFrameMagicLive || count != n) return v;
    v.seq = seq;
    v.ack = ack;
    v.payload_words = n;
    v.state = frame_checksum(frame.first(n)) == sum ? FrameState::Intact
                                                 : FrameState::PayloadCorrupt;
    return v;
}

const char* to_string(TransportAction a) {
    switch (a) {
        case TransportAction::None: return "none";
        case TransportAction::Corrupt: return "corrupt";
        case TransportAction::Drop: return "drop";
        case TransportAction::Dup: return "dup";
        case TransportAction::Reorder: return "reorder";
    }
    return "?";
}

void TransportFaultModel::validate() const {
    check_rate("msg_corrupt", corrupt_rate);
    check_rate("msg_drop", drop_rate);
    check_rate("msg_dup", dup_rate);
    check_rate("msg_reorder", reorder_rate);
}

TransportAction TransportFaultModel::draw(int src, int dst,
                                          std::uint64_t msg_index) const {
    const std::uint64_t site = link_site(src, dst, msg_index);
    // One salt per kind so sweeping one rate never perturbs another kind's
    // draws; fixed priority order makes the action exclusive per frame.
    if (corrupt_rate > 0.0 &&
        site_uniform(seed, trial, site, 0x434f5252ull /*CORR*/) <
            corrupt_rate) {
        return TransportAction::Corrupt;
    }
    if (drop_rate > 0.0 &&
        site_uniform(seed, trial, site, 0x44524f50ull /*DROP*/) < drop_rate) {
        return TransportAction::Drop;
    }
    if (dup_rate > 0.0 &&
        site_uniform(seed, trial, site, 0x4455504cull /*DUPL*/) < dup_rate) {
        return TransportAction::Dup;
    }
    if (reorder_rate > 0.0 &&
        site_uniform(seed, trial, site, 0x52455244ull /*RERD*/) <
            reorder_rate) {
        return TransportAction::Reorder;
    }
    return TransportAction::None;
}

std::uint64_t TransportFaultModel::corruption_bits(
    int src, int dst, std::uint64_t msg_index) const {
    return site_bits(seed, trial, link_site(src, dst, msg_index),
                     0x42495453ull /*BITS*/);
}

void corrupt_frame(std::vector<std::uint64_t>& frame, std::uint64_t bits) {
    if (frame.size() < kFrameTrailerWords) return;
    const std::size_t payload = frame.size() - kFrameTrailerWords;
    // Flip one payload bit; a payload-free frame gets its stored checksum
    // flipped instead. Either way the trailer's magic/seq/route words stay
    // intact, so the receiver can still name the damaged sequence number.
    const std::size_t idx = payload != 0 ? bits % payload : payload + 1;
    frame[idx] ^= 1ull << ((bits >> 32) & 63);
}

const char* to_string(TransportFaultKind kind) {
    switch (kind) {
        case TransportFaultKind::Corrupt: return "corrupt";
        case TransportFaultKind::Truncated: return "truncated";
        case TransportFaultKind::Dropped: return "dropped";
        case TransportFaultKind::RetainMiss: return "retain-miss";
        case TransportFaultKind::RetryExhausted: return "retry-exhausted";
        case TransportFaultKind::StashOverflow: return "stash-overflow";
    }
    return "?";
}

std::string TransportFault::format(TransportFaultKind kind, int src, int dst,
                                   int tag, std::uint64_t seq,
                                   const std::string& detail) {
    return std::string("transport fault (") + to_string(kind) + ") on " +
           std::to_string(src) + " -> " + std::to_string(dst) +
           " tag=" + std::to_string(tag) + " seq=" + std::to_string(seq) +
           ": " + detail;
}

TransportStats& TransportStats::operator+=(const TransportStats& o) noexcept {
    sent_frames += o.sent_frames;
    header_words += o.header_words;
    injected_corrupt += o.injected_corrupt;
    injected_drop += o.injected_drop;
    injected_dup += o.injected_dup;
    injected_reorder += o.injected_reorder;
    corrupt_detected += o.corrupt_detected;
    malformed_detected += o.malformed_detected;
    drop_detected += o.drop_detected;
    dedup_hits += o.dedup_hits;
    reorder_stashed += o.reorder_stashed;
    retransmits += o.retransmits;
    retransmit_words += o.retransmit_words;
    acked_seqs += o.acked_seqs;
    acks_piggybacked += o.acks_piggybacked;
    acks_standalone += o.acks_standalone;
    retained_frames += o.retained_frames;
    retained_words += o.retained_words;
    live_streams_end += o.live_streams_end;
    return *this;
}

}  // namespace ftmul

// Frame-integrity transport layer: trailer round-trips, corruption /
// truncation / drop detection, the seeded transport-fault model's purity,
// the machine-level NACK/retransmit protocol (including the post-run
// residue sweep that keeps the detection ledger exact), and the six FT
// engines multiplying correctly under data-plane fault injection.

#include "runtime/transport.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bigint/random.hpp"
#include "core/resilient.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

std::vector<std::uint64_t> sealed(std::vector<std::uint64_t> payload,
                                  int src, int dst, int tag,
                                  std::uint64_t seq) {
    seal_frame(payload, src, dst, tag, seq);
    return payload;
}

TEST(Frame, TrailerRoundTrip) {
    const std::vector<std::uint64_t> payload{1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
    std::vector<std::uint64_t> frame = sealed(payload, 3, 5, 42, 7);
    ASSERT_EQ(frame.size(), payload.size() + kFrameTrailerWords);

    const FrameVerdict v = inspect_frame(frame, 3, 5, 42);
    EXPECT_EQ(v.state, FrameState::Intact);
    EXPECT_EQ(v.seq, 7u);
    EXPECT_EQ(v.payload_words, payload.size());

    strip_trailer(frame);
    EXPECT_EQ(frame, payload);
}

TEST(Frame, EmptyPayloadRoundTrip) {
    std::vector<std::uint64_t> frame = sealed({}, 0, 1, 0, 0);
    ASSERT_EQ(frame.size(), kFrameTrailerWords);
    const FrameVerdict v = inspect_frame(frame, 0, 1, 0);
    EXPECT_EQ(v.state, FrameState::Intact);
    EXPECT_EQ(v.payload_words, 0u);
}

TEST(Frame, TombstoneNamesTheLostSequence) {
    std::vector<std::uint64_t> frame;
    seal_tombstone(frame, 2, 6, 9, 31);
    const FrameVerdict v = inspect_frame(frame, 2, 6, 9);
    EXPECT_EQ(v.state, FrameState::Tombstone);
    EXPECT_EQ(v.seq, 31u);
}

TEST(Frame, AckWordRoundTrip) {
    // Word 0 means "no ack"; tag 0 with one delivered frame must not
    // collide with it (hence the tag+1 encoding).
    EXPECT_EQ(frame_ack_word(0, 0), 0u);
    EXPECT_EQ(frame_ack_tag(0), -1);
    EXPECT_EQ(frame_ack_count(0), 0u);

    const std::uint64_t w = frame_ack_word(0, 1);
    EXPECT_NE(w, 0u);
    EXPECT_EQ(frame_ack_tag(w), 0);
    EXPECT_EQ(frame_ack_count(w), 1u);

    const std::uint64_t big = frame_ack_word(41, 123456789);
    EXPECT_EQ(frame_ack_tag(big), 41);
    EXPECT_EQ(frame_ack_count(big), 123456789u);

    // Delivered counts saturate at 2^32-1 instead of wrapping into the tag.
    const std::uint64_t sat = frame_ack_word(7, ~0ull);
    EXPECT_EQ(frame_ack_tag(sat), 7);
    EXPECT_EQ(frame_ack_count(sat), 0xffffffffull);
}

TEST(Frame, SealCarriesAckAndTombstoneKeepsIt) {
    const std::uint64_t ack = frame_ack_word(3, 17);
    std::vector<std::uint64_t> frame{9, 8, 7};
    seal_frame(frame, 1, 2, 4, 5, ack);
    FrameVerdict v = inspect_frame(frame, 1, 2, 4);
    EXPECT_EQ(v.state, FrameState::Intact);
    EXPECT_EQ(v.ack, ack);

    // A drop loses the payload, not the flow control riding the trailer.
    std::vector<std::uint64_t> stone;
    seal_tombstone(stone, 1, 2, 4, 5, ack);
    v = inspect_frame(stone, 1, 2, 4);
    EXPECT_EQ(v.state, FrameState::Tombstone);
    EXPECT_EQ(v.ack, ack);
}

TEST(Frame, PayloadCorruptionKeepsSeqTrusted) {
    // Flipping any payload bit must be detected, and because the trailer is
    // untouched the verdict still carries a usable sequence number.
    const std::vector<std::uint64_t> payload{10, 20, 30};
    for (std::size_t word = 0; word < payload.size(); ++word) {
        std::vector<std::uint64_t> frame = sealed(payload, 1, 2, 3, 12);
        frame[word] ^= 1ull << (word * 17);
        const FrameVerdict v = inspect_frame(frame, 1, 2, 3);
        EXPECT_EQ(v.state, FrameState::PayloadCorrupt) << "word " << word;
        EXPECT_EQ(v.seq, 12u);
    }
}

TEST(Frame, CorruptFrameHelperHitsPayloadOnly) {
    std::vector<std::uint64_t> frame = sealed({5, 6, 7}, 0, 1, 2, 4);
    corrupt_frame(frame, /*bits=*/0);
    const FrameVerdict v = inspect_frame(frame, 0, 1, 2);
    EXPECT_EQ(v.state, FrameState::PayloadCorrupt);
    EXPECT_EQ(v.seq, 4u);

    // An empty payload has no bits to flip; the stored checksum is hit
    // instead and detection still fires.
    std::vector<std::uint64_t> empty = sealed({}, 0, 1, 2, 4);
    corrupt_frame(empty, 0);
    EXPECT_EQ(inspect_frame(empty, 0, 1, 2).state, FrameState::PayloadCorrupt);
}

TEST(Frame, TruncationIsMalformed) {
    std::vector<std::uint64_t> frame = sealed({8, 9}, 0, 1, 2, 0);
    frame.pop_back();  // short trailer
    EXPECT_EQ(inspect_frame(frame, 0, 1, 2).state, FrameState::Malformed);

    // Shorter than any trailer at all.
    std::vector<std::uint64_t> tiny{1, 2};
    EXPECT_EQ(inspect_frame(tiny, 0, 1, 2).state, FrameState::Malformed);
}

TEST(Frame, WrongRouteIsMalformed) {
    const std::vector<std::uint64_t> frame = sealed({1}, 3, 4, 5, 0);
    EXPECT_EQ(inspect_frame(frame, 3, 4, 5).state, FrameState::Intact);
    EXPECT_EQ(inspect_frame(frame, 2, 4, 5).state, FrameState::Malformed);
    EXPECT_EQ(inspect_frame(frame, 3, 7, 5).state, FrameState::Malformed);
    EXPECT_EQ(inspect_frame(frame, 3, 4, 6).state, FrameState::Malformed);
}

TEST(Frame, ChecksumCoversEveryPayloadWord) {
    // The checksum must differ when any single word changes — a smoke test
    // that the checksum actually reads the whole payload.
    std::vector<std::uint64_t> payload(64, 0);
    const std::uint64_t base = frame_checksum(payload);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = 1;
        EXPECT_NE(frame_checksum(payload), base) << "word " << i;
        payload[i] = 0;
    }
    EXPECT_EQ(frame_checksum(payload), base);
}

TEST(Frame, ChecksumCatchesTheSameBitFlippedInTwoWords) {
    // A bare (h ^ w) * odd step carries a top-bit flip straight through
    // every later multiply, so flipping bit 63 in two words cancels. The
    // fold must keep any such pair visible, adjacent or far apart.
    std::vector<std::uint64_t> payload(32);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = 0x0123456789abcdefull * (i + 1);
    }
    const std::uint64_t base = frame_checksum(payload);
    for (const int bit : {0, 1, 31, 32, 62, 63}) {
        const std::uint64_t flip = std::uint64_t{1} << bit;
        for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{0, 1},
                                   {3, 4}, {0, 31}, {5, 17}}) {
            payload[i] ^= flip;
            payload[j] ^= flip;
            EXPECT_NE(frame_checksum(payload), base)
                << "bit " << bit << " in words " << i << " and " << j;
            payload[i] ^= flip;
            payload[j] ^= flip;
        }
    }
}

TEST(TransportModel, ValidatesRates) {
    TransportFaultModel m;
    m.corrupt_rate = 1.5;
    EXPECT_THROW(m.validate(), std::invalid_argument);
    m.corrupt_rate = 0.0;
    m.drop_rate = -0.1;
    EXPECT_THROW(m.validate(), std::invalid_argument);
    m.drop_rate = 1.0;
    EXPECT_NO_THROW(m.validate());
}

TEST(TransportModel, InactiveModelDrawsNothing) {
    const TransportFaultModel m;  // all rates zero
    EXPECT_FALSE(m.active());
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(m.draw(0, 1, i), TransportAction::None);
    }
}

TEST(TransportModel, DrawIsPureFunctionOfSeedTrialAndSite) {
    TransportFaultModel a;
    a.seed = 42;
    a.trial = 7;
    a.corrupt_rate = a.drop_rate = a.dup_rate = a.reorder_rate = 0.1;
    TransportFaultModel b = a;

    bool trial_differs = false;
    TransportFaultModel c = a;
    c.trial = 8;
    for (int src = 0; src < 4; ++src) {
        for (int dst = 0; dst < 4; ++dst) {
            for (std::uint64_t idx = 0; idx < 64; ++idx) {
                EXPECT_EQ(a.draw(src, dst, idx), b.draw(src, dst, idx));
                EXPECT_EQ(a.corruption_bits(src, dst, idx),
                          b.corruption_bits(src, dst, idx));
                if (a.draw(src, dst, idx) != c.draw(src, dst, idx)) {
                    trial_differs = true;
                }
            }
        }
    }
    EXPECT_TRUE(trial_differs);
}

TEST(TransportModel, PriorityOrderAtRateOne) {
    // One action per frame, drawn corrupt > drop > dup > reorder.
    TransportFaultModel m;
    m.corrupt_rate = m.drop_rate = m.dup_rate = m.reorder_rate = 1.0;
    EXPECT_EQ(m.draw(0, 1, 0), TransportAction::Corrupt);
    m.corrupt_rate = 0.0;
    EXPECT_EQ(m.draw(0, 1, 0), TransportAction::Drop);
    m.drop_rate = 0.0;
    EXPECT_EQ(m.draw(0, 1, 0), TransportAction::Dup);
    m.dup_rate = 0.0;
    EXPECT_EQ(m.draw(0, 1, 0), TransportAction::Reorder);
}

/// Two ranks, rank 0 streams kMsgs tagged messages to rank 1, under the
/// given fault model. Returns the machine's transport stats; every payload
/// is verified at the receiver.
TransportStats ping_run(const TransportFaultModel& model, int msgs) {
    Machine m(2);
    m.set_transport_guard(true);
    if (model.active()) m.set_transport_faults(model);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            for (int i = 0; i < msgs; ++i) {
                r.send(1, 5, {static_cast<std::uint64_t>(i), 0xABCDu});
            }
        } else {
            for (int i = 0; i < msgs; ++i) {
                const auto got = r.recv(0, 5);
                ASSERT_EQ(got.size(), 2u);
                EXPECT_EQ(got[0], static_cast<std::uint64_t>(i));
                EXPECT_EQ(got[1], 0xABCDu);
            }
        }
    });
    return m.transport_stats();
}

TEST(MachineTransport, GuardChargesTrailerWords) {
    const TransportStats s = ping_run(TransportFaultModel{}, 10);
    EXPECT_EQ(s.sent_frames, 10u);
    EXPECT_EQ(s.header_words, 10u * kFrameTrailerWords);
    EXPECT_EQ(s.injected_total(), 0u);
    EXPECT_EQ(s.detected_losses(), 0u);
    EXPECT_EQ(s.retransmits, 0u);
}

TEST(MachineTransport, CorruptionIsDetectedAndRetransmitted) {
    TransportFaultModel m;
    m.seed = 7;
    m.corrupt_rate = 1.0;  // every first transmission corrupt
    const TransportStats s = ping_run(m, 8);
    EXPECT_EQ(s.injected_corrupt, 8u);
    EXPECT_EQ(s.corrupt_detected, 8u);
    EXPECT_EQ(s.retransmits, 8u);
    EXPECT_GT(s.retransmit_words, 0u);
}

TEST(MachineTransport, DropsAreDetectedViaTombstones) {
    TransportFaultModel m;
    m.seed = 7;
    m.drop_rate = 1.0;
    const TransportStats s = ping_run(m, 8);
    EXPECT_EQ(s.injected_drop, 8u);
    EXPECT_EQ(s.drop_detected, 8u);
    EXPECT_EQ(s.retransmits, 8u);
}

TEST(MachineTransport, DuplicatesAreAbsorbed) {
    TransportFaultModel m;
    m.seed = 7;
    m.dup_rate = 1.0;
    const TransportStats s = ping_run(m, 8);
    EXPECT_EQ(s.injected_dup, 8u);
    // The receiver pops 8 payloads; duplicates are either discarded by the
    // seq window mid-stream or reclaimed by the post-run residue sweep.
    // Either way nothing is lost and nothing needs retransmission.
    EXPECT_EQ(s.detected_losses(), 0u);
    EXPECT_EQ(s.retransmits, 0u);
}

TEST(MachineTransport, ReordersAreAbsorbed) {
    TransportFaultModel m;
    m.seed = 7;
    m.reorder_rate = 1.0;
    const TransportStats s = ping_run(m, 8);
    EXPECT_EQ(s.injected_reorder, 8u);
    EXPECT_EQ(s.detected_losses(), 0u);
}

TEST(MachineTransport, MixedFaultLedgerBalancesExactly) {
    // The acceptance property the chaos campaign gates on: every injected
    // corruption or drop is detected — in-stream or by the residue sweep —
    // so injected == detected with nothing unaccounted.
    TransportFaultModel m;
    m.seed = 42;
    m.corrupt_rate = m.drop_rate = m.dup_rate = m.reorder_rate = 0.25;
    const TransportStats s = ping_run(m, 64);
    EXPECT_GT(s.injected_total(), 0u);
    EXPECT_EQ(s.injected_corrupt + s.injected_drop, s.detected_losses());
}

TEST(MachineTransport, StatsAreDeterministic) {
    TransportFaultModel m;
    m.seed = 99;
    m.corrupt_rate = m.drop_rate = m.dup_rate = m.reorder_rate = 0.2;
    const TransportStats a = ping_run(m, 32);
    const TransportStats b = ping_run(m, 32);
    EXPECT_EQ(a.sent_frames, b.sent_frames);
    EXPECT_EQ(a.injected_corrupt, b.injected_corrupt);
    EXPECT_EQ(a.injected_drop, b.injected_drop);
    EXPECT_EQ(a.injected_dup, b.injected_dup);
    EXPECT_EQ(a.injected_reorder, b.injected_reorder);
    EXPECT_EQ(a.corrupt_detected, b.corrupt_detected);
    EXPECT_EQ(a.drop_detected, b.drop_detected);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.retransmit_words, b.retransmit_words);
}

TEST(MachineTransport, RetentionMissRaisesTransportFault) {
    // With no sender retention, a detected defect has no frame to recover
    // from: the typed fault must surface instead of a wrong payload.
    Machine m(2);
    m.set_transport_guard(true);
    TransportFaultModel model;
    model.seed = 3;
    model.corrupt_rate = 1.0;
    m.set_transport_faults(model);
    m.set_transport_retain_depth(0);
    try {
        m.run([&](Rank& r) {
            if (r.id() == 0) {
                r.send(1, 5, {1, 2, 3});
            } else {
                (void)r.recv(0, 5);
            }
        });
        FAIL() << "expected TransportFault";
    } catch (const TransportFault& f) {
        EXPECT_EQ(f.kind(), TransportFaultKind::RetainMiss);
        EXPECT_EQ(f.src(), 0);
        EXPECT_EQ(f.dst(), 1);
        EXPECT_EQ(f.tag(), 5);
    }
}

TEST(MachineTransport, RetransmitIsChargedToTheCostModel) {
    TransportFaultModel m;
    m.seed = 11;
    m.corrupt_rate = 1.0;

    Machine clean(2);
    clean.set_transport_guard(true);
    Machine faulty(2);
    faulty.set_transport_guard(true);
    faulty.set_transport_faults(m);
    const auto body = [](Rank& r) {
        if (r.id() == 0) {
            r.send(1, 5, {1, 2, 3, 4});
        } else {
            (void)r.recv(0, 5);
        }
    };
    clean.run(body);
    faulty.run(body);
    // The NACK round-trip and re-delivery cost messages, words and latency
    // beyond the clean run.
    EXPECT_GT(faulty.stats().aggregate.msgs, clean.stats().aggregate.msgs);
    EXPECT_GT(faulty.stats().aggregate.words, clean.stats().aggregate.words);
}

TEST(MachineTransport, AckWindowBoundsRetention) {
    // Ping-pong: the two ranks proceed in lockstep, so the true in-flight
    // window is one frame per stream. The receivers' cumulative watermarks
    // must keep retention at that window — not at the fixed fallback depth,
    // which is what a depth-only policy would converge to.
    constexpr int kRounds = 200;
    Machine m(2);
    m.set_transport_guard(true);
    m.run([&](Rank& r) {
        for (int i = 0; i < kRounds; ++i) {
            if (r.id() == 0) {
                r.send(1, 7, {static_cast<std::uint64_t>(i)});
                const auto echo = r.recv(1, 8);
                ASSERT_EQ(echo.size(), 1u);
                EXPECT_EQ(echo[0], static_cast<std::uint64_t>(i) * 3);
            } else {
                const auto got = r.recv(0, 7);
                ASSERT_EQ(got.size(), 1u);
                r.send(0, 8, {got[0] * 3});
            }
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_EQ(s.sent_frames, 2u * kRounds);
    EXPECT_EQ(s.retained_frames, 2u * kRounds);
    // Every delivery advances a watermark.
    EXPECT_EQ(s.acked_seqs, 2u * kRounds);
    // Reverse traffic exists for both streams, so acks ride it for free.
    EXPECT_GT(s.acks_piggybacked, 0u);
    // The live-footprint peak is the headline: bounded by the in-flight
    // window (plus scheduling slack), far below the fixed fallback depth
    // of 64 that a depth-only policy would fill.
    EXPECT_LE(m.transport_retained_peak_frames(), 8u);
    EXPECT_LT(m.transport_retained_peak_frames(), 64u);
    // Drained streams erase their map nodes; the post-run sweep leaves
    // nothing alive.
    EXPECT_EQ(m.live_streams(), 0u);
    EXPECT_EQ(s.live_streams_end, 0u);
}

TEST(MachineTransport, EvictionFollowsTheWatermarkNotThePublishedAck) {
    // Bursts of kBurst frames, each answered by one echo. The receiver's
    // published ack trails delivery (a standalone ack every 16 frames, the
    // rest piggybacked on the echo), but eviction applies at the delivery
    // watermark itself: a frame leaves retention the moment it is
    // consumed, so the live footprint never exceeds one burst.
    constexpr int kBursts = 20;
    constexpr int kBurst = 24;  // above the ack interval, below the depth
    Machine m(2);
    m.set_transport_guard(true);
    m.run([&](Rank& r) {
        for (int b = 0; b < kBursts; ++b) {
            if (r.id() == 0) {
                for (int i = 0; i < kBurst; ++i) {
                    r.send(1, 7, {static_cast<std::uint64_t>(b * kBurst + i)});
                }
                const auto echo = r.recv(1, 8);
                ASSERT_EQ(echo.size(), 1u);
                EXPECT_EQ(echo[0], static_cast<std::uint64_t>(b));
            } else {
                for (int i = 0; i < kBurst; ++i) {
                    const auto got = r.recv(0, 7);
                    ASSERT_EQ(got.size(), 1u);
                    EXPECT_EQ(got[0],
                              static_cast<std::uint64_t>(b * kBurst + i));
                }
                r.send(0, 8, {static_cast<std::uint64_t>(b)});
            }
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_EQ(s.sent_frames, static_cast<std::uint64_t>(kBursts) * (kBurst + 1));
    EXPECT_EQ(s.acked_seqs, s.sent_frames);
    // Ack publication lags: one standalone ack per burst (at its 16th
    // frame), the echoes and the bursts' first frames piggyback the rest.
    EXPECT_EQ(s.acks_standalone, static_cast<std::uint64_t>(kBursts));
    EXPECT_GT(s.acks_piggybacked, 0u);
    // Eviction does not: the footprint peaks within a single burst.
    EXPECT_GE(m.transport_retained_peak_frames(), 1u);
    EXPECT_LE(m.transport_retained_peak_frames(),
              static_cast<std::uint64_t>(kBurst));
    EXPECT_EQ(m.live_streams(), 0u);
    EXPECT_EQ(s.live_streams_end, 0u);
}

TEST(MachineTransport, SeqOnlyRetentionForEmptyPayloads) {
    // Payload-free frames are retained as seq-only entries (no words), and
    // their seals are reconstructed on demand when a tombstone NACKs them.
    constexpr int kMsgs = 8;
    Machine m(2);
    m.set_transport_guard(true);
    TransportFaultModel model;
    model.seed = 7;
    model.drop_rate = 1.0;
    m.set_transport_faults(model);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            for (int i = 0; i < kMsgs; ++i) r.send(1, 3, {});
        } else {
            for (int i = 0; i < kMsgs; ++i) {
                EXPECT_TRUE(r.recv(0, 3).empty());
            }
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_EQ(s.drop_detected, static_cast<std::uint64_t>(kMsgs));
    EXPECT_EQ(s.retransmits, static_cast<std::uint64_t>(kMsgs));
    EXPECT_EQ(s.retained_frames, static_cast<std::uint64_t>(kMsgs));
    EXPECT_EQ(s.retained_words, 0u);  // seq-only entries store no words
    EXPECT_EQ(m.transport_retained_peak_words(), 0u);
}

TEST(MachineTransport, WatermarkEvictionNeverCausesRetainMiss) {
    // With the ack window evicting delivered frames, a tiny fallback depth
    // suffices in lockstep traffic: only in-flight frames need retention,
    // and an acked seq is never NACKed again (stale duplicates below the
    // receive window are absorbed, not refetched).
    constexpr int kRounds = 100;
    Machine m(2);
    m.set_transport_guard(true);
    m.set_transport_retain_depth(4);
    TransportFaultModel model;
    model.seed = 13;
    model.corrupt_rate = 0.3;
    model.dup_rate = 0.2;
    m.set_transport_faults(model);
    m.run([&](Rank& r) {
        for (int i = 0; i < kRounds; ++i) {
            if (r.id() == 0) {
                r.send(1, 1, {static_cast<std::uint64_t>(i), 0xFEEDu});
                const auto echo = r.recv(1, 2);
                ASSERT_EQ(echo.size(), 1u);
                EXPECT_EQ(echo[0], static_cast<std::uint64_t>(i));
            } else {
                const auto got = r.recv(0, 1);
                ASSERT_EQ(got.size(), 2u);
                r.send(0, 2, {got[0]});
            }
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_GT(s.injected_corrupt, 0u);
    EXPECT_EQ(s.corrupt_detected, s.injected_corrupt);
    EXPECT_EQ(m.live_streams(), 0u);
}

TEST(MachineTransport, ReorderStashOverflowRaisesTypedFault) {
    // An adversarial reorder schedule must not grow the deferral stash
    // without bound: past the configured cap the typed fault surfaces.
    Machine m(2);
    m.set_transport_guard(true);
    m.set_transport_stash_limit(2);
    TransportFaultModel model;
    model.seed = 5;
    model.reorder_rate = 1.0;  // defer every frame
    m.set_transport_faults(model);
    try {
        m.run([&](Rank& r) {
            if (r.id() == 0) {
                for (int i = 0; i < 4; ++i) {
                    r.send(1, 9, {static_cast<std::uint64_t>(i)});
                }
            } else {
                for (int i = 0; i < 4; ++i) (void)r.recv(0, 9);
            }
        });
        FAIL() << "expected TransportFault(StashOverflow)";
    } catch (const TransportFault& f) {
        EXPECT_EQ(f.kind(), TransportFaultKind::StashOverflow);
        EXPECT_EQ(f.src(), 0);
        EXPECT_EQ(f.dst(), 1);
    }
}

TEST(MachineTransport, StandaloneAcksChargedForQuietStreams) {
    // A one-way stream has no reverse traffic to piggyback on; every
    // ack_interval deliveries the receiver publishes (and is charged for)
    // a standalone ack instead.
    constexpr int kMsgs = 64;
    Machine m(2);
    m.set_transport_guard(true);
    m.set_transport_ack_interval(8);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            for (int i = 0; i < kMsgs; ++i) {
                r.send(1, 4, {static_cast<std::uint64_t>(i)});
            }
        } else {
            for (int i = 0; i < kMsgs; ++i) (void)r.recv(0, 4);
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_EQ(s.acks_piggybacked, 0u);
    EXPECT_EQ(s.acks_standalone, static_cast<std::uint64_t>(kMsgs / 8));
    EXPECT_EQ(s.acked_seqs, static_cast<std::uint64_t>(kMsgs));
}

TEST(MachineTransport, AckStatsAreDeterministic) {
    // The report-visible ack/retention counters are pure functions of rank
    // program order — two identical runs agree exactly, which is what lets
    // campaign reports stay byte-identical across --jobs counts.
    TransportFaultModel m;
    m.seed = 321;
    m.corrupt_rate = m.drop_rate = m.dup_rate = m.reorder_rate = 0.15;
    const TransportStats a = ping_run(m, 48);
    const TransportStats b = ping_run(m, 48);
    EXPECT_EQ(a.acked_seqs, b.acked_seqs);
    EXPECT_EQ(a.acks_piggybacked, b.acks_piggybacked);
    EXPECT_EQ(a.acks_standalone, b.acks_standalone);
    EXPECT_EQ(a.retained_frames, b.retained_frames);
    EXPECT_EQ(a.retained_words, b.retained_words);
    EXPECT_EQ(a.live_streams_end, b.live_streams_end);
    EXPECT_EQ(a.live_streams_end, 0u);
}

TEST(MachineTransport, ConcurrentAckRetransmitStress) {
    // All-to-all traffic with every fault kind active: acks advance, frames
    // retire from retention and retransmits fetch from it concurrently
    // across 8 rank threads. Runs under TSan in CI, where any lock-order or
    // data race between ack_retained / retain_frame / retained_copy shows
    // up; here we assert the ledger still balances exactly.
    constexpr int kWorld = 8;
    constexpr int kRounds = 6;
    Machine m(kWorld);
    m.set_transport_guard(true);
    TransportFaultModel model;
    model.seed = 2026;
    model.corrupt_rate = model.drop_rate = 0.1;
    model.dup_rate = model.reorder_rate = 0.1;
    m.set_transport_faults(model);
    m.run([&](Rank& r) {
        for (int round = 0; round < kRounds; ++round) {
            for (int peer = 0; peer < kWorld; ++peer) {
                if (peer == r.id()) continue;
                r.send(peer, round,
                       {static_cast<std::uint64_t>(r.id()) * 1000 +
                        static_cast<std::uint64_t>(round)});
            }
            for (int peer = 0; peer < kWorld; ++peer) {
                if (peer == r.id()) continue;
                const auto got = r.recv(peer, round);
                ASSERT_EQ(got.size(), 1u);
                EXPECT_EQ(got[0], static_cast<std::uint64_t>(peer) * 1000 +
                                      static_cast<std::uint64_t>(round));
            }
        }
    });
    const TransportStats s = m.transport_stats();
    EXPECT_EQ(s.injected_corrupt + s.injected_drop, s.detected_losses());
    EXPECT_GT(s.acked_seqs, 0u);
    EXPECT_EQ(m.live_streams(), 0u);
    EXPECT_EQ(s.live_streams_end, 0u);
}

/// End-to-end: every FT engine multiplies correctly with the guard armed
/// and the injection shim corrupting, dropping, duplicating and reordering
/// frames. TransportFault escalations are legal (the resilient ladder's
/// job); silently wrong products are not.
TEST(EngineTransport, AllEnginesSurviveInjection) {
    Rng rng{2024};
    const BigInt a = random_bits(rng, 1500);
    const BigInt b = random_bits(rng, 1400);
    const BigInt expected = a * b;

    for (FtEngine engine :
         {FtEngine::Linear, FtEngine::Poly, FtEngine::Mixed,
          FtEngine::Multistep, FtEngine::Replication, FtEngine::Checkpoint}) {
        ResilientConfig cfg;
        cfg.engine = engine;
        cfg.base.k = 2;
        cfg.base.processors = 9;
        cfg.base.digit_bits = 32;
        cfg.faults = 1;
        cfg.fused_steps = 2;
        cfg.base.transport_faults.seed = 4242;
        cfg.base.transport_faults.trial = 1;
        cfg.base.transport_faults.corrupt_rate = 0.05;
        cfg.base.transport_faults.drop_rate = 0.05;
        cfg.base.transport_faults.dup_rate = 0.05;
        cfg.base.transport_faults.reorder_rate = 0.05;
        try {
            const FtRunResult r = run_ft_engine(a, b, cfg, FaultPlan{});
            EXPECT_EQ(r.product, expected) << to_string(engine);
            EXPECT_GT(r.transport.sent_frames, 0u) << to_string(engine);
            EXPECT_EQ(r.transport.injected_corrupt +
                          r.transport.injected_drop,
                      r.transport.detected_losses())
                << to_string(engine);
        } catch (const TransportFault&) {
            // Escalation path: the ladder retries on a fresh interconnect.
            const ResilientResult rr =
                resilient_multiply(a, b, cfg, FaultPlan{});
            EXPECT_EQ(rr.product, expected) << to_string(engine);
        }
    }
}

TEST(EngineTransport, GuardAloneLeavesProductAndLedgerClean) {
    Rng rng{77};
    const BigInt a = random_bits(rng, 1200);
    const BigInt b = random_bits(rng, 1100);
    ResilientConfig cfg;
    cfg.engine = FtEngine::Poly;
    cfg.base.k = 2;
    cfg.base.processors = 9;
    cfg.base.digit_bits = 32;
    cfg.base.transport_guard = true;
    const FtRunResult r = run_ft_engine(a, b, cfg, FaultPlan{});
    EXPECT_EQ(r.product, a * b);
    EXPECT_GT(r.transport.sent_frames, 0u);
    EXPECT_EQ(r.transport.injected_total(), 0u);
    EXPECT_EQ(r.transport.detected_losses(), 0u);
    EXPECT_EQ(r.transport.retransmits, 0u);
    // Retention must not leak past the run.
    EXPECT_EQ(r.transport.live_streams_end, 0u);
}

TEST(EngineTransport, ResilientLadderAccumulatesTransportStats) {
    Rng rng{88};
    const BigInt a = random_bits(rng, 1000);
    const BigInt b = random_bits(rng, 900);
    ResilientConfig cfg;
    cfg.engine = FtEngine::Poly;
    cfg.base.k = 2;
    cfg.base.processors = 9;
    cfg.base.digit_bits = 32;
    cfg.base.transport_faults.seed = 5;
    cfg.base.transport_faults.corrupt_rate = 0.1;
    const ResilientResult r = resilient_multiply(a, b, cfg, FaultPlan{});
    EXPECT_EQ(r.product, a * b);
    EXPECT_GT(r.transport.sent_frames, 0u);
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_GT(r.attempts.front().transport.sent_frames, 0u);
}

}  // namespace
}  // namespace ftmul

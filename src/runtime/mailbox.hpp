#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/msg_pool.hpp"

namespace ftmul {

/// Thrown when a receive waits past the deadlock-detection timeout; turns a
/// communication-protocol bug into a test failure instead of a hang.
class RecvTimeout : public std::runtime_error {
public:
    explicit RecvTimeout(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown out of a blocked receive when another rank aborted the run, so the
/// whole machine fails fast instead of cascading into timeouts.
class RunAborted : public std::runtime_error {
public:
    RunAborted() : std::runtime_error("run aborted by another rank") {}
};

/// One logical message queued for delivery: the matching tag plus its
/// payload buffer.
struct TaggedPayload {
    int tag = 0;
    PayloadBuf buf;
};

/// One frame still queued after a run finished, with its (src, tag)
/// routing — the unit of the transport guard's post-run residue sweep.
struct ResidueFrame {
    int src = 0;
    int tag = 0;
    PayloadBuf buf;
};

/// One rank's incoming-message queue. Messages are matched by (source, tag)
/// and delivered FIFO per matching pair, like an MPI receive queue.
/// push_batch delivers several messages from one sender under a single lock
/// acquisition and wakeup — the transport under the fused collectives.
///
/// Sharded per source rank (sends are single-producer per (src, dst) in this
/// machine), each shard guarding a small flat open-addressed tag table with
/// its own mutex: no global lock, no per-pop tree lookup, and drained queue
/// slots are reclaimed instead of leaking for the life of the run.
class Mailbox {
public:
    explicit Mailbox(int world_size);
    ~Mailbox();

    void push(int src, int tag, PayloadBuf payload);
    void push_batch(int src, std::vector<TaggedPayload> items);

    /// Wake any blocked pop and make it throw RunAborted.
    void abort();

    PayloadBuf pop(int src, int tag, std::chrono::milliseconds timeout);

    /// Live (src, tag) queue slots currently held — drained slots must be
    /// reclaimed, so this stays bounded by the number of in-flight
    /// (src, tag) pairs no matter how many send/recv cycles have run.
    std::size_t live_slots() const;

    /// Remove and return every frame still queued, in deterministic
    /// (src, tag, FIFO) order. The transport guard sweeps this residue
    /// after the rank threads joined: duplicate frames of single-message
    /// streams and fire-and-forget traffic no recv consumed land here and
    /// still get inspected and attributed.
    std::vector<ResidueFrame> drain_residue();

private:
    struct Shard;
    struct Slot;

    Slot* find_slot(Shard& s, int tag) const;
    Slot& find_or_insert(Shard& s, int tag);
    void erase_slot(Shard& s, std::size_t idx);
    static void grow_table(Shard& s);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> aborted_{false};
};

}  // namespace ftmul

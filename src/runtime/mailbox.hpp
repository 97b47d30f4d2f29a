#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/msg_pool.hpp"

namespace ftmul {

class Fiber;

/// Thrown by Machine::run when every unfinished rank is parked in a receive
/// that no rank can ever satisfy: a communication-protocol bug, reported
/// the moment it happens instead of as a hang. The message names every
/// parked rank with the (src, tag) it waits on and its phase.
class DeadlockError : public std::runtime_error {
public:
    explicit DeadlockError(const std::string& what)
        : std::runtime_error(what) {}
};

/// Thrown out of a parked receive when another rank aborted the run (or the
/// run deadlocked), so the whole machine fails fast with the first error.
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
///
/// A pop on an empty queue parks the calling rank fiber (runtime/
/// executor.hpp) as its shard's waiter, registered under the shard mutex;
/// the push that fills the awaited (src, tag) queue wakes it.
class Mailbox {
public:
    explicit Mailbox(int world_size);
    ~Mailbox();

    void push(int src, int tag, PayloadBuf payload);
    void push_batch(int src, std::vector<TaggedPayload> items);

    /// Wake every parked pop and make it, and every later pop, throw
    /// RunAborted.
    void abort();

    /// Next message of the (src, tag) stream. On an empty queue the calling
    /// rank fiber parks until a push fills it; outside a fiber that would
    /// block forever, so it throws std::logic_error instead. A pop that
    /// parks observes its wall time, first park to return, into
    /// @p parked_us when that histogram is live; one that finds its
    /// message queued reads no clock.
    PayloadBuf pop(int src, int tag, Histogram parked_us = {});

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

    /// One shard per source, in one allocation; a shard's tag table is
    /// allocated by its first push, so a P-rank machine's P^2 shards cost
    /// little where traffic is sparse.
    std::unique_ptr<Shard[]> shards_;
    std::size_t nshards_ = 0;
    std::atomic<bool> aborted_{false};
};

}  // namespace ftmul

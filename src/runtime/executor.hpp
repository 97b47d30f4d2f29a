#pragma once

#include <cstddef>
#include <functional>

namespace ftmul {

/// One rank of a Machine run, executing as a stackful fiber. Opaque outside
/// the executor; the mailbox holds a pointer to its parked receiver.
class Fiber;

/// The Machine executor: every rank of every run is a stackful fiber, and
/// the fibers run on a process-wide set of carrier threads — at most C of
/// them, where C is the number of CPUs the process may run on
/// (sched_getaffinity). A run of P ranks uses min(P, C) carriers; rank i
/// stays on one carrier for the whole run, so a carrier's thread-locals
/// (LimbArena, MsgPool cache, metrics slot) are never shared mid-operation
/// by a migrating rank. Carriers start lazily, on the first run that needs
/// them, and live until process exit: after that, a run starts no thread.
///
/// A fiber blocks only by park() and resumes only after wake(). Every
/// switch saves and restores the OpsCounter tally, so each rank is charged
/// exactly its own limb ops, and the carrier's own tally is untouched.
/// Rules for code running on a fiber:
///   * no ArenaScope may be open across a park (asserted);
///   * no park inside a catch handler or during unwinding (asserted): the
///     C++ runtime keeps its caught-exception stack per thread;
///   * no exception may escape the task (the process terminates);
///   * no OS lock may be held across a park;
///   * executor::run must not be called from inside a fiber (asserted).
namespace executor {

/// Run task(i) for every i in [0, n), each on its own fiber, and return
/// when all have finished. Rank i runs on carrier (@p offset + i mod
/// min(n, C)) mod C. Each run counts its runnable fibers; when that count
/// reaches zero while some fiber is unfinished, every unfinished fiber is
/// parked and no message can ever arrive — a deadlock, detected exactly
/// and at once. @p on_deadlock then runs once, on a carrier, outside any
/// fiber, and must wake at least one parked fiber (Machine aborts its
/// mailboxes); if it wakes none, the process aborts instead of hanging.
void run(std::size_t n, std::size_t offset,
         const std::function<void(std::size_t)>& task,
         const std::function<void()>& on_deadlock);

/// A carrier offset for a new Machine, rotating so that concurrent
/// Machines spread their ranks over different carriers. A Machine draws one
/// for its lifetime, so every run of one Machine puts rank r on the same
/// carrier thread: the run after a failed one reuses exactly the failed
/// run's threads (Machine.PoolRecoversAfterAFailedRun asserts this).
std::size_t next_offset() noexcept;

/// The fiber running on the calling thread, or nullptr outside a fiber.
Fiber* current() noexcept;

/// Suspend the calling fiber until wake(). The caller registers itself
/// where a waker will find it (under the waker's lock) before calling
/// park(); a wake() that lands before the fiber is off its stack is not
/// lost, because only the fiber's own carrier resumes it.
void park();

/// Make a parked (or parking) fiber runnable. Callable from any thread, at
/// most once per park.
void wake(Fiber* f);

/// Carrier threads started so far in this process.
std::size_t carriers() noexcept;

/// The most carriers this process will start: the usable CPU count.
std::size_t max_carriers() noexcept;

}  // namespace executor
}  // namespace ftmul

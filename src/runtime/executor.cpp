#include "runtime/executor.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "bigint/limb_arena.hpp"
#include "bigint/ops_counter.hpp"
#include "runtime/metrics.hpp"
#include "runtime/msg_pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace ftmul {

namespace {

/// Virtual size of one fiber stack. Only touched pages are resident (a
/// few KiB for a rank body); the guard page below turns an overflow into a
/// fault instead of silent corruption.
constexpr std::size_t kStackBytes = std::size_t{256} << 10;
/// Stacks kept for reuse after a run; a larger world maps its extra
/// stacks fresh and unmaps them when it ends.
constexpr std::size_t kPooledStacksMax = 256;

struct Stack {
    char* base = nullptr;  ///< lowest usable byte; the guard page is below
    std::size_t size = 0;
};

std::size_t page_bytes() {
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

std::size_t usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

struct Run;
struct Carrier;

}  // namespace

class Fiber {
public:
    // Mailboxes and ready queues hold a fiber's address.
    Fiber() = default;
    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    Run* run = nullptr;
    Carrier* carrier = nullptr;
    std::size_t index = 0;
    Stack stack;
    ucontext_t ctx{};
    std::uint64_t tally = 0;  ///< OpsCounter while switched out
    bool finished = false;
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
#endif
#if defined(__SANITIZE_THREAD__)
    void* tsan = nullptr;
#endif
};

namespace {

/// One executor::run call. `runnable` counts fibers that are running or
/// queued to run; every change is an acq_rel RMW, so the carrier that takes
/// it to zero sees every park record written before each park.
struct Run {
    const std::function<void(std::size_t)>* task = nullptr;
    const std::function<void()>* on_deadlock = nullptr;
    std::atomic<std::size_t> runnable{0};
    std::atomic<std::size_t> unfinished{0};
    bool deadlock_handled = false;  ///< touched only while runnable == 0
    std::mutex mu;  ///< guards done
    bool done = false;
    std::condition_variable cv;
};

thread_local Fiber* t_fiber = nullptr;

struct Carrier {
    // Its thread and its fibers hold a carrier's address.
    Carrier() = default;
    Carrier(const Carrier&) = delete;
    Carrier& operator=(const Carrier&) = delete;

    std::mutex mu;  ///< guards ready, live, sleeping and stop
    std::condition_variable cv;
    std::deque<Fiber*> ready;
    std::size_t live = 0;  ///< unfinished fibers placed on this carrier
    bool sleeping = false;
    bool stop = false;
    ucontext_t sched{};  ///< the carrier's own context while a fiber runs
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    const void* stack_bottom = nullptr;
    std::size_t stack_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
    void* tsan = nullptr;
#endif
    std::thread thread;  ///< last: it runs loop() over the members above

    void loop();
    void resume(Fiber* f);
    void retire(Fiber* f);
};

class Executor {
public:
    static Executor& instance() {
        static Executor ex;
        return ex;
    }

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    ~Executor() {
        for (auto& c : carriers_) {
            if (!c) continue;
            {
                std::lock_guard<std::mutex> lock(c->mu);
                c->stop = true;
            }
            c->cv.notify_one();
            c->thread.join();
        }
        for (const Stack& s : stacks_) unmap(s);
    }

    std::size_t max_carriers() const noexcept { return carriers_.size(); }
    std::size_t started() const noexcept {
        return started_.load(std::memory_order_relaxed);
    }

    /// The carriers a run of @p k lanes uses, starting any not yet running.
    std::vector<Carrier*> carriers_for(std::size_t offset, std::size_t k) {
        std::vector<Carrier*> out(k);
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t j = 0; j < k; ++j) {
            auto& slot = carriers_[(offset + j) % carriers_.size()];
            if (!slot) {
                slot = std::make_unique<Carrier>();
                Carrier* c = slot.get();
                c->thread = std::thread([c] { c->loop(); });
                started_.fetch_add(1, std::memory_order_relaxed);
            }
            out[j] = slot.get();
        }
        metric_threads_.update_max(static_cast<std::int64_t>(started()));
        return out;
    }

    void acquire_stacks(std::vector<Fiber>& fibers) {
        std::size_t reused = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            while (reused < fibers.size() && !stacks_.empty()) {
                fibers[reused++].stack = stacks_.back();
                stacks_.pop_back();
            }
        }
        for (std::size_t i = reused; i < fibers.size(); ++i) {
            fibers[i].stack = map_stack();
        }
#if defined(__SANITIZE_ADDRESS__)
        // A finished fiber never returns from its entry frame, so its
        // redzones stay poisoned; clear them before the stack is reused.
        for (Fiber& f : fibers) {
            __asan_unpoison_memory_region(f.stack.base, f.stack.size);
        }
#endif
    }

    void release_stacks(std::vector<Fiber>& fibers) {
        std::vector<Stack> extra;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (Fiber& f : fibers) {
                if (stacks_.size() < kPooledStacksMax) {
                    stacks_.push_back(f.stack);
                } else {
                    extra.push_back(f.stack);
                }
            }
        }
        for (const Stack& s : extra) unmap(s);
    }

    Counter metric_runs;
    Counter metric_tasks;
    Histogram metric_run_us;
    Histogram metric_task_us;

private:
    Executor() : carriers_(usable_cpus()) {
        metric_runs = metrics::counter("ftmul_pool_runs_total", {},
                                       "Machine runs dispatched to fibers");
        metric_tasks = metrics::counter("ftmul_pool_tasks_total", {},
                                        "rank fibers run to completion");
        metric_run_us = metrics::histogram(
            "ftmul_pool_run_us", {}, duration_buckets_us(),
            "wall-clock of one run's fibers, dispatch to last finish");
        metric_task_us = metrics::histogram(
            "ftmul_pool_task_us", {}, duration_buckets_us(),
            "wall span of one rank fiber, first dispatch to finish");
        metric_threads_ = metrics::gauge("ftmul_pool_threads_max", {},
                                         "carrier threads started");
    }

    static Stack map_stack() {
        const std::size_t page = page_bytes();
        void* p = mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                       -1, 0);
        if (p == MAP_FAILED) throw std::bad_alloc();
        if (mprotect(p, page, PROT_NONE) != 0) {
            munmap(p, kStackBytes + page);
            throw std::bad_alloc();
        }
        return {static_cast<char*>(p) + page, kStackBytes};
    }

    static void unmap(const Stack& s) {
        munmap(s.base - page_bytes(), s.size + page_bytes());
    }

    std::mutex mu_;
    std::vector<std::unique_ptr<Carrier>> carriers_;  ///< C slots, lazy
    std::atomic<std::size_t> started_{0};
    std::vector<Stack> stacks_;
    Gauge metric_threads_;
};

/// Fiber side of a switch back to the carrier; returns when the carrier
/// resumes the fiber (never, for a finished one).
void switch_to_carrier(Fiber* f) {
    Carrier* c = f->carrier;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(f->finished ? nullptr : &f->fake_stack,
                                   c->stack_bottom, c->stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(c->tsan, 0);
#endif
    swapcontext(&f->ctx, &c->sched);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(f->fake_stack, nullptr, nullptr);
#endif
}

void call_task(Fiber* f) noexcept {
    ProfileScope span(Executor::instance().metric_task_us);
    (*f->run->task)(f->index);
}

[[noreturn]] void fiber_entry() {
    Fiber* f = t_fiber;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &f->carrier->stack_bottom,
                                    &f->carrier->stack_size);
#endif
    call_task(f);
    f->finished = true;
    switch_to_carrier(f);
    std::abort();  // a finished fiber is never resumed
}

// glibc ucontext runs on every target and under CET's shadow stack; its
// swapcontext also restores the signal mask, one rt_sigprocmask syscall per
// switch.
void make_context(Fiber& f) {
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack.base;
    f.ctx.uc_stack.ss_size = f.stack.size;
    f.ctx.uc_link = nullptr;
    makecontext(&f.ctx, &fiber_entry, 0);
}

/// runnable just reached zero: the run is complete, or deadlocked.
void stalled(Run* run) {
    for (;;) {
        if (run->unfinished.load(std::memory_order_acquire) == 0) {
            std::lock_guard<std::mutex> lock(run->mu);
            run->done = true;
            // Notify under the lock: the caller destroys the run as soon as
            // it sees done.
            run->cv.notify_one();
            return;
        }
        if (run->deadlock_handled) {
            std::fputs("ftmul executor: every fiber of a run is parked and "
                       "the deadlock handler woke none of them\n",
                       stderr);
            std::abort();
        }
        run->deadlock_handled = true;
        // Hold the run open while the handler wakes fibers, so it cannot
        // complete (and be destroyed) under the handler.
        run->runnable.fetch_add(1, std::memory_order_acq_rel);
        (*run->on_deadlock)();
        if (run->runnable.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    }
}

void Carrier::resume(Fiber* f) {
    t_fiber = f;
    const std::uint64_t own = OpsCounter::get();
    OpsCounter::set(f->tally);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&fake_stack, f->stack.base, f->stack.size);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(f->tsan, 0);
#endif
    swapcontext(&sched, &f->ctx);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    f->tally = OpsCounter::get();
    OpsCounter::set(own);
    t_fiber = nullptr;
}

void Carrier::retire(Fiber* f) {
    Run* run = f->run;
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(f->tsan);
#endif
    {
        std::lock_guard<std::mutex> lock(mu);
        --live;
    }
    run->unfinished.fetch_sub(1, std::memory_order_acq_rel);
    if (run->runnable.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        stalled(run);
    }
}

void Carrier::loop() {
#if defined(__SANITIZE_THREAD__)
    tsan = __tsan_get_current_fiber();
#endif
    bool cache_released = true;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        if (ready.empty() && live == 0 && !cache_released) {
            // Idle between runs: free the message buffers this carrier
            // cached, so a carrier that outlives its runs holds no more
            // than a thread that exited after its run would.
            cache_released = true;
            lock.unlock();
            MsgPool::release_thread_cache();
            lock.lock();
            continue;
        }
        if (ready.empty()) {
            sleeping = true;
            cv.wait(lock, [&] { return stop || !ready.empty(); });
            sleeping = false;
            if (ready.empty()) return;  // stopped
        }
        Fiber* f = ready.front();
        ready.pop_front();
        cache_released = false;
        lock.unlock();
        resume(f);
        if (f->finished) {
            retire(f);
        } else {
            Run* run = f->run;
            if (run->runnable.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                stalled(run);
            }
        }
        lock.lock();
    }
}

}  // namespace

namespace executor {

void run(std::size_t n, std::size_t offset,
         const std::function<void(std::size_t)>& task,
         const std::function<void()>& on_deadlock) {
    assert(t_fiber == nullptr && "Machine::run called from inside a fiber");
    if (n == 0) return;
    Executor& ex = Executor::instance();
    ex.metric_runs.inc();
    ProfileScope dispatch(ex.metric_run_us);

    Run run;
    run.task = &task;
    run.on_deadlock = &on_deadlock;
    run.runnable.store(n, std::memory_order_relaxed);
    run.unfinished.store(n, std::memory_order_relaxed);
    std::vector<Fiber> fibers(n);
    const std::size_t k = std::min(n, ex.max_carriers());
    const std::vector<Carrier*> lanes = ex.carriers_for(offset, k);
    ex.acquire_stacks(fibers);
    for (std::size_t i = 0; i < n; ++i) {
        Fiber& f = fibers[i];
        f.run = &run;
        f.index = i;
        f.carrier = lanes[i % k];
        make_context(f);
#if defined(__SANITIZE_THREAD__)
        f.tsan = __tsan_create_fiber(0);
#endif
    }
    for (std::size_t j = 0; j < k; ++j) {
        Carrier* c = lanes[j];
        bool notify = false;
        {
            std::lock_guard<std::mutex> lock(c->mu);
            for (std::size_t i = j; i < n; i += k) {
                c->ready.push_back(&fibers[i]);
                ++c->live;
            }
            notify = c->sleeping;
        }
        if (notify) c->cv.notify_one();
    }
    {
        std::unique_lock<std::mutex> lock(run.mu);
        run.cv.wait(lock, [&] { return run.done; });
    }
    ex.release_stacks(fibers);
    ex.metric_tasks.inc(n);
}

std::size_t next_offset() noexcept {
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

Fiber* current() noexcept { return t_fiber; }

void park() {
    Fiber* f = t_fiber;
    assert(f != nullptr && "park() outside a fiber");
    assert(detail::LimbArena::local().used_words() == 0 &&
           "an ArenaScope is open across a park");
    assert(std::uncaught_exceptions() == 0 && !std::current_exception() &&
           "park() inside a catch handler or during unwinding");
    switch_to_carrier(f);
}

void wake(Fiber* f) {
    f->run->runnable.fetch_add(1, std::memory_order_acq_rel);
    Carrier* c = f->carrier;
    bool notify = false;
    {
        std::lock_guard<std::mutex> lock(c->mu);
        c->ready.push_back(f);
        notify = c->sleeping;
    }
    if (notify) c->cv.notify_one();
}

std::size_t carriers() noexcept { return Executor::instance().started(); }

std::size_t max_carriers() noexcept {
    return Executor::instance().max_carriers();
}

}  // namespace executor
}  // namespace ftmul

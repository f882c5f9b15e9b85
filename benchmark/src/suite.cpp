#include "suite.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace numaws::bench {

RuntimeOptions
runtimeOptions(int workers, uint64_t seed)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = std::min(workers, 2);
    o.seed = seed;
    return o;
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

bool
sortedWithSum(const int64_t *data, int64_t n, const KeySum &expected)
{
    KeySum got;
    for (int64_t i = 0; i < n; ++i)
        got.add(data[i]);
    return std::is_sorted(data, data + n) && got.sum == expected.sum
           && got.xorAll == expected.xorAll;
}

double
concurrentSerialMs(const std::vector<int> &cpus, int samples,
                   const std::function<SerialSample(int)> &body, Report &rep,
                   const std::string &what)
{
    const int n = static_cast<int>(cpus.size());
    std::vector<std::vector<SerialSample>> got(static_cast<std::size_t>(n));
    std::atomic<int> ready{0};
    {
        std::vector<std::thread> threads;
        for (int slot = 0; slot < n; ++slot) {
            threads.emplace_back([&, slot] {
                const CpuPin pin(cpus[static_cast<std::size_t>(slot)]);
                // Start together, so every timed sample runs beside the
                // others.
                ready.fetch_add(1);
                while (ready.load() < n)
                    std::this_thread::yield();
                std::vector<SerialSample> &mine =
                    got[static_cast<std::size_t>(slot)];
                for (int i = 0; i <= samples; ++i)
                    mine.push_back(body(slot));
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    std::vector<double> per_thread;
    for (const std::vector<SerialSample> &mine : got) {
        std::vector<double> ms;
        for (std::size_t i = 0; i < mine.size(); ++i) {
            rep.check(mine[i].ok, what);
            if (i > 0) // warm-up
                ms.push_back(mine[i].ms);
        }
        per_thread.push_back(median(std::move(ms)));
    }
    return harmonicMean(per_thread);
}

void
RuntimeTally::add(const RuntimeStats &s, uint64_t block_ops, int workers,
                  int64_t wall_ns)
{
    ops += block_ops;
    counters.merge(s.counters);
    workNs += s.time.ns(TimeSplit::Work);
    schedNs += s.time.ns(TimeSplit::Scheduling);
    idleNs += s.time.ns(TimeSplit::Idle);
    workerWallNs += static_cast<double>(workers)
                    * static_cast<double>(wall_ns);
    slabBytes = std::max<uint64_t>(
        slabBytes, s.counters.slabBytes + s.counters.dataSlabBytes);
}

double
RuntimeTally::workNsPerOp() const
{
    return ratio(static_cast<double>(workNs), static_cast<double>(ops));
}

void
RuntimeTally::report(Report &rep) const
{
    const WorkerCounters &c = counters;
    const auto per_op = [this](uint64_t v) {
        return ratio(static_cast<double>(v), static_cast<double>(ops));
    };
    const auto frac = [](uint64_t a, uint64_t b) {
        return ratio(static_cast<double>(a), static_cast<double>(b));
    };
    rep.set("runtime.spawns_per_op", per_op(c.spawns), "count", ops);
    rep.set("runtime.frames_recycled_frac",
            frac(c.framesRecycled, c.spawns), "frac", c.spawns);
    rep.set("runtime.idle_frac",
            ratio(static_cast<double>(idleNs),
                  static_cast<double>(workNs + schedNs + idleNs)),
            "frac", ops);
    rep.set("sched.steal_hit_frac", frac(c.steals, c.stealAttempts),
            "frac", c.stealAttempts);
    rep.set("sched.steal_attempts_per_op", per_op(c.stealAttempts),
            "count", ops);
    rep.set("sched.parks_per_op", per_op(c.parks), "count", ops);
    rep.set("sched.park_timeout_frac", frac(c.parkTimeouts, c.parks),
            "frac", c.parks);
    rep.set("sched.spurious_wake_frac", frac(c.spuriousWakes, c.parks),
            "frac", c.parks);
    rep.set("sched.parked_frac",
            ratio(static_cast<double>(c.parkedNs), workerWallNs), "frac",
            ops);
    rep.set("sched.hinted_frac",
            frac(c.tasksOnHintedPlace, c.tasksExecuted), "frac",
            c.tasksExecuted);
    rep.set("sched.pushback_success_frac",
            frac(c.pushbackSuccesses, c.pushbackAttempts), "frac",
            c.pushbackAttempts);
    rep.set("deque.mailbox_takes_per_op", per_op(c.mailboxTakes), "count",
            ops);
    rep.set("deque.steal_half_tasks_per_op", per_op(c.stealHalfTasks),
            "count", ops);
    rep.set("mem.remote_frees_per_op", per_op(c.dataRemoteFrees), "count",
            ops);
    rep.set("mem.slab_mb",
            static_cast<double>(slabBytes) / (1024.0 * 1024.0), "MB", ops);
}

} // namespace numaws::bench

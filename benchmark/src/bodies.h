/**
 * @file
 * The benchmark's own fork-join body, shared by fj-fine and the
 * serve-open Latency jobs.
 */
#ifndef NUMAWS_BENCHMARK_BODIES_H
#define NUMAWS_BENCHMARK_BODIES_H

#include <cstdint>

#include "numaws.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace numaws::bench {

/** Below this n, fib runs serially (one leaf per task). */
inline constexpr int kFibCutoff = 14;

/**
 * fib in the shape of workloads::fibTask (spawn n-1, call n-2, sync;
 * fibSerial below the cutoff), with spans around its calls into the
 * runtime when @p kTrace. The task span lets sync's self time exclude
 * the children it runs while helping.
 */
template <bool kTrace>
uint64_t
fibTask(int n, uint64_t op)
{
    using trace::Kind;
    if (n < kFibCutoff)
        return workloads::fibSerial(n);
    uint64_t a = 0;
    TaskGroup tg;
    {
        trace::SpanIf<kTrace> s(Kind::Spawn, op);
        tg.spawn([&a, n, op] {
            trace::SpanIf<kTrace> t(Kind::Task, op);
            a = fibTask<kTrace>(n - 1, op);
        });
    }
    const uint64_t b = fibTask<kTrace>(n - 2, op);
    {
        trace::SpanIf<kTrace> s(Kind::Sync, op);
        tg.sync();
    }
    return a + b;
}

} // namespace numaws::bench

#endif // NUMAWS_BENCHMARK_BODIES_H

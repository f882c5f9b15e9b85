/**
 * @file
 * Span recorder for the traced benchmark run.
 *
 * Spans are placed in the benchmark's own code around its calls into
 * each layer of the library: runtime construction, Runtime::submit and
 * JobHandle::wait, TaskGroup::spawn/sync inside the benchmark's task
 * bodies, numa::allocate/deallocate, container construction, kernel
 * calls and sim::simulate*. Span names carry their layer as the prefix
 * before the dot ("runtime.spawn", "mem.alloc", "sim.simulate").
 *
 * Each thread owns its log: a stack of open spans (so self time, the
 * span minus the spans nested in it on the same thread, is computed as
 * spans close) and chunks of closed-span records, allocated on demand
 * up to a process-wide cap and written out at exit as Chrome Trace
 * Event JSON, which Perfetto and chrome://tracing open. Self-time
 * totals keep accumulating after the record cap is reached.
 *
 * Tracing is off unless enable() ran; the hot fork-join bodies take a
 * compile-time flag instead (SpanIf<false> is empty), so the untraced
 * run that produces the end-to-end numbers carries no tracing code.
 */
#ifndef NUMAWS_BENCHMARK_TRACE_H
#define NUMAWS_BENCHMARK_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace numaws::bench::trace {

enum class Kind : uint8_t
{
    RuntimeConstruct,
    Spawn,
    Sync,
    Submit,
    Wait,
    Alloc,
    Free,
    Container,
    Task,
    Job,
    Fib,
    Heat,
    Sort,
    SimBuild,
    SimSimulate,
    SimServe,
    Block,
    NumKinds,
};

/** "layer.name" of a span kind. */
const char *kindName(Kind k);

/** Turn tracing on for this process; at most @p max_records closed
 * spans are kept for the trace file. */
void enable(std::size_t max_records);

/** Open spans or not, between operations of a traced run (a traced run
 * alternates traced and untraced rounds to price the tracing). No
 * effect unless enable() ran. */
void setActive(bool active);

/**
 * Call on the main thread between operations: keeps recording only
 * while the cap has room for twice the spans the previous operation
 * produced, so the trace file holds whole operations.
 */
void gateRecording();

/** Self/total time of every closed span of one kind, all threads.
 * Read only after every thread that recorded spans has been joined. */
struct KindStats
{
    uint64_t count = 0;
    int64_t selfNs = 0;
    int64_t totalNs = 0;

    double
    meanSelfNs() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(selfNs)
                                / static_cast<double>(count);
    }
};
KindStats stats(Kind k);

/** Write the recorded spans as Chrome Trace Event JSON; @p other_data
 * is a JSON object body (without braces) stamped into "otherData".
 * Returns false if the file cannot be written. */
bool writeChromeTrace(const std::string &path, const std::string &other_data);

/** Spans recorded / dropped at the cap / lost to stack overflow. */
uint64_t recordedSpans();
uint64_t droppedSpans();

/** Scoped span; a no-op unless enable() ran and @p on. @p op is the
 * iteration or job the span works for. */
class Span
{
  public:
    Span(Kind kind, uint64_t op, bool on = true);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool _open = false;
};

/** Span compiled in only when @p kOn. */
template <bool kOn>
class SpanIf : public Span
{
  public:
    SpanIf(Kind kind, uint64_t op) : Span(kind, op) {}
};

template <>
class SpanIf<false>
{
  public:
    SpanIf(Kind, uint64_t) {}
};

} // namespace numaws::bench::trace

#endif // NUMAWS_BENCHMARK_TRACE_H

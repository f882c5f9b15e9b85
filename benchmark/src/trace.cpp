#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "support/timing.h"

namespace numaws::bench::trace {

namespace {

constexpr int kNumKinds = static_cast<int>(Kind::NumKinds);
/** Deepest span nesting tracked per thread (fib's helping recursion
 * stays far below it); deeper spans are counted as dropped. */
constexpr int kMaxDepth = 512;
constexpr std::size_t kChunkRecords = 8192;

struct Record
{
    int64_t startNs;
    int64_t endNs;
    uint64_t id;
    uint64_t parent;
    uint64_t op;
    Kind kind;
};

struct Open
{
    int64_t startNs;
    int64_t childNs;
    uint64_t id;
    uint64_t op;
    Kind kind;
};

struct ThreadLog
{
    int tid = 0;
    uint64_t nextSeq = 1;
    int depth = 0;
    Open stack[kMaxDepth];
    KindStats kinds[kNumKinds];
    std::vector<std::unique_ptr<Record[]>> chunks;
    std::size_t usedInLast = kChunkRecords;
};

struct Registry
{
    std::mutex mutex; ///< guards logs (registration, final reads)
    std::vector<std::unique_ptr<ThreadLog>> logs;
    bool enabled = false;
    /** Spans open at all (enabled and in a traced round). */
    std::atomic<bool> on{false};
    /** Closed spans are also stored for the trace file. */
    std::atomic<bool> recording{false};
    std::size_t maxRecords = 0;
    std::atomic<std::size_t> recorded{0};
    std::atomic<uint64_t> dropped{0};
    std::size_t recordedAtGate = 0;
    int64_t originNs = 0;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadLog &
localLog()
{
    thread_local ThreadLog *log = nullptr;
    if (log == nullptr) {
        Registry &r = registry();
        auto owned = std::make_unique<ThreadLog>();
        std::lock_guard<std::mutex> guard(r.mutex);
        owned->tid = static_cast<int>(r.logs.size()) + 1;
        log = owned.get();
        r.logs.push_back(std::move(owned));
    }
    return *log;
}

/** Claim one slot under the process-wide cap; false when full. */
Record *
claimRecord(ThreadLog &log)
{
    Registry &r = registry();
    if (r.recorded.fetch_add(1, std::memory_order_relaxed) >= r.maxRecords) {
        r.recorded.fetch_sub(1, std::memory_order_relaxed);
        return nullptr;
    }
    if (log.usedInLast == kChunkRecords) {
        log.chunks.push_back(std::make_unique<Record[]>(kChunkRecords));
        log.usedInLast = 0;
    }
    return &log.chunks.back()[log.usedInLast++];
}

} // namespace

const char *
kindName(Kind k)
{
    static constexpr const char *kNames[kNumKinds] = {
        "runtime.construct", "runtime.spawn",  "runtime.sync",
        "job.submit",        "job.wait",       "mem.alloc",
        "mem.free",          "mem.container",  "workloads.task",
        "workloads.job",     "workloads.fib",  "workloads.heat",
        "workloads.sort",    "sim.build",      "sim.simulate",
        "sim.serve",         "bench.block"};
    return kNames[static_cast<int>(k)];
}

void
enable(std::size_t max_records)
{
    Registry &r = registry();
    r.maxRecords = max_records;
    r.originNs = nowNs();
    localLog(); // the main thread takes tid 1

    r.enabled = true;
    r.recording.store(true, std::memory_order_relaxed);
    r.on.store(true, std::memory_order_relaxed);
}

void
setActive(bool active)
{
    Registry &r = registry();
    r.on.store(r.enabled && active, std::memory_order_relaxed);
}

void
gateRecording()
{
    Registry &r = registry();
    if (!r.enabled)
        return;
    const std::size_t now = r.recorded.load(std::memory_order_relaxed);
    const std::size_t last_op = now - r.recordedAtGate;
    r.recordedAtGate = now;
    r.recording.store(now + 2 * last_op + 1024 <= r.maxRecords,
                      std::memory_order_relaxed);
}

KindStats
stats(Kind k)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.mutex);
    KindStats sum;
    for (const auto &log : r.logs) {
        const KindStats &s = log->kinds[static_cast<int>(k)];
        sum.count += s.count;
        sum.selfNs += s.selfNs;
        sum.totalNs += s.totalNs;
    }
    return sum;
}

uint64_t
recordedSpans()
{
    return registry().recorded.load(std::memory_order_relaxed);
}

uint64_t
droppedSpans()
{
    return registry().dropped.load(std::memory_order_relaxed);
}

Span::Span(Kind kind, uint64_t op, bool on)
{
    if (!on || !registry().on.load(std::memory_order_relaxed))
        return;
    ThreadLog &log = localLog();
    if (log.depth == kMaxDepth) {
        registry().dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Open &o = log.stack[log.depth++];
    o.kind = kind;
    o.op = op;
    o.childNs = 0;
    o.id = (static_cast<uint64_t>(log.tid) << 40) | log.nextSeq++;
    o.startNs = nowNs();
    _open = true;
}

Span::~Span()
{
    if (!_open)
        return;
    const int64_t end = nowNs();
    ThreadLog &log = localLog();
    const Open o = log.stack[--log.depth];
    const int64_t dur = end - o.startNs;
    KindStats &s = log.kinds[static_cast<int>(o.kind)];
    ++s.count;
    s.totalNs += dur;
    s.selfNs += dur - o.childNs;
    const uint64_t parent = log.depth > 0 ? log.stack[log.depth - 1].id : 0;
    if (log.depth > 0)
        log.stack[log.depth - 1].childNs += dur;
    Registry &r = registry();
    if (!r.recording.load(std::memory_order_relaxed))
        return;
    Record *rec = claimRecord(log);
    if (rec == nullptr) {
        r.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    *rec = {o.startNs, end, o.id, parent, o.op, o.kind};
}

bool
writeChromeTrace(const std::string &path, const std::string &other_data)
{
    Registry &r = registry();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> guard(r.mutex);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{%s},"
                    "\"traceEvents\":[\n",
                 other_data.c_str());
    bool first = true;
    for (const auto &log : r.logs) {
        std::fprintf(f,
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s-%d\"}}",
                     first ? "" : ",\n", log->tid,
                     log->tid == 1 ? "main" : "thread", log->tid);
        first = false;
        for (std::size_t c = 0; c < log->chunks.size(); ++c) {
            const std::size_t n = c + 1 == log->chunks.size()
                                      ? log->usedInLast
                                      : kChunkRecords;
            for (std::size_t i = 0; i < n; ++i) {
                const Record &rec = log->chunks[c][i];
                const char *name = kindName(rec.kind);
                const std::string layer(name,
                                        std::string(name).find('.'));
                std::fprintf(
                    f,
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                    name, layer.c_str(), log->tid,
                    static_cast<double>(rec.startNs - r.originNs) / 1e3,
                    static_cast<double>(rec.endNs - rec.startNs) / 1e3,
                    static_cast<unsigned long long>(rec.id),
                    static_cast<unsigned long long>(rec.parent),
                    static_cast<unsigned long long>(rec.op));
            }
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace numaws::bench::trace

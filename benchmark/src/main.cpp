/**
 * @file
 * numaws_bench: the repository benchmark. One workload per run; prints
 * every metric as `name value unit` with its sample count and checks the
 * program's outputs as it goes.
 *
 *   numaws_bench --workload=fj-fine|fj-numa|serve-open|sim-numa32
 *                --seed=N [--seconds=20] [--json=FILE] [--trace=FILE]
 *                [--git-sha=SHA]
 *   numaws_bench --selftest
 *
 * --trace=FILE records spans in alternate rounds, writes them to FILE as
 * Chrome Trace Event JSON and adds the per-layer metrics; end-to-end
 * numbers always come from untraced rounds. --json=FILE writes the full
 * result, stamped with the host shape, seed, git sha and the benchmark
 * source directory the binary was built from.
 */
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "common.h"
#include "suite.h"
#include "support/cli.h"
#include "support/panic.h"
#include "support/timing.h"
#include "trace.h"

using namespace numaws;
using namespace numaws::bench;

namespace {

/** Spans kept for the trace file (~48 bytes each in memory). */
constexpr std::size_t kMaxTraceRecords = 200000;

const char *const kEndToEnd[] = {"setup_s", "peak_rss_mb", "speedup",
                                 "tail_slowdown", "work_ratio"};

/** Every per-layer metric; one a workload does not measure reads 0. */
const char *const kPerLayer[] = {
    "runtime.spawn_ns",
    "runtime.sync_ns",
    "runtime.overhead_ns_per_spawn",
    "runtime.spawns_per_op",
    "runtime.frames_recycled_frac",
    "runtime.start_us",
    "runtime.work_inflation",
    "runtime.idle_frac",
    "runtime.cpu_ms_per_op",
    "job.submit_ns",
    "job.queue_p50_us",
    "job.queue_p99_us",
    "job.exec_p50_us",
    "job.exec_p99_us",
    "job.capacity_per_s",
    "sched.steal_hit_frac",
    "sched.steal_attempts_per_op",
    "sched.parks_per_op",
    "sched.park_timeout_frac",
    "sched.spurious_wake_frac",
    "sched.parked_frac",
    "sched.hinted_frac",
    "sched.pushback_success_frac",
    "deque.mailbox_takes_per_op",
    "deque.steal_half_tasks_per_op",
    "mem.alloc_ns",
    "mem.remote_frees_per_op",
    "mem.pooled_bytes_frac",
    "mem.setup_alloc_ms",
    "mem.slab_mb",
    "workloads.fib_ts_ms",
    "workloads.heat_ts_ms",
    "workloads.sort_ts_ms",
    "workloads.heat_tp_ms",
    "workloads.sort_tp_ms",
    "workloads.heat_gb_per_s_computed",
    "sim.remote_dram_frac",
    "sim.idle_frac",
    "sim.steals_per_run",
    "sim.push_attempts_per_run",
    "sim.work_inflation",
    "sim.strands_per_s",
    "sim.cpu_ms_per_pass",
    "sim.serve_queue_p99_us",
    "gen.late_p99_us",
    "trace.overhead_frac",
};

/** Absolute times and other context printed beside the gated metrics;
 * on a shared host they drift with its speed and load. */
const char *const kExtras[] = {
    "tp_p50_ms",        "tp_tail_ms",   "ts_ms",
    "tsref_ms",         "t1_ms",        "lat_p50_ms",
    "lat_tail_ms",      "idle_lat_tail_ms", "idle_speedup",
    "idle_tail_slowdown", "goodput_frac", "rate_low",
    "rate_mid",         "serve_p50_us", "serve_tail_us"};

/** Per-layer metrics read off the span self times. */
void
reportSpanLayers(Report &rep)
{
    using trace::Kind;
    const auto self = [&rep](const char *name, Kind k, const char *unit) {
        const trace::KindStats s = trace::stats(k);
        rep.set(name, s.meanSelfNs(), unit, s.count, "traced self time");
    };
    self("runtime.spawn_ns", Kind::Spawn, "ns");
    self("runtime.sync_ns", Kind::Sync, "ns");
    self("job.submit_ns", Kind::Submit, "ns");
    const trace::KindStats a = trace::stats(Kind::Alloc);
    const trace::KindStats f = trace::stats(Kind::Free);
    rep.set("mem.alloc_ns",
            ratio(static_cast<double>(a.selfNs + f.selfNs),
                  static_cast<double>(a.count + f.count)),
            "ns", a.count + f.count, "traced self time per call");
}

std::string
resultJson(const Report &rep, const std::string &workload,
           const RunConfig &cfg, const HostShape &host,
           const std::string &git_sha)
{
    std::string out = "{";
    out += "\"workload\":" + jsonString(workload);
    out += ",\"seed\":" + std::to_string(cfg.seed);
    out += ",\"seconds\":" + jsonNumber(cfg.seconds);
    out += ",\"trace\":" + std::string(cfg.trace ? "true" : "false");
    out += ",\"workers\":" + std::to_string(cfg.workers());
    out += ",\"host_cores\":" + std::to_string(host.hostCores);
    out += ",\"effective_cpus\":" + jsonNumber(host.effectiveCpus);
    out += ",\"git_sha\":" + jsonString(git_sha);
    out += ",\"source_dir\":" + jsonString(NUMAWS_BENCH_SOURCE_DIR);
    out += ",\"correct\":"
           + std::string(rep.failed() == 0 ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(rep.attempted());
    out += ",\"failed\":" + std::to_string(rep.failed());
    out += ",\"metrics\":{";
    bool first = true;
    for (const Metric &m : rep.metrics()) {
        out += first ? "" : ",";
        first = false;
        out += jsonString(m.name) + ":{\"value\":" + jsonNumber(m.value)
               + ",\"unit\":" + jsonString(m.unit)
               + ",\"samples\":" + std::to_string(m.samples)
               + ",\"note\":" + jsonString(m.note) + "}";
    }
    out += "}}\n";
    return out;
}

bool
writeFile(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    if (cli.getBool("selftest", false)) {
        cli.checkUnknownKeys();
        const int64_t t0 = nowNs();
        const int failures = runSelftest();
        std::printf("selftest: %d failure(s) in %.3f s\n", failures,
                    static_cast<double>(nowNs() - t0) / 1e9);
        return failures == 0 ? 0 : 1;
    }
    const std::string workload = cli.getString("workload", "");
    RunConfig cfg;
    cfg.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    cfg.seconds = cli.getDouble("seconds", 20.0);
    const std::string json_path = cli.getString("json", "");
    const std::string trace_path = cli.getString("trace", "");
    const std::string git_sha = cli.getString("git-sha", "unknown");
    cli.checkUnknownKeys();
    cfg.trace = !trace_path.empty();

    void (*run)(const RunConfig &, Report &) = nullptr;
    if (workload == "fj-fine")
        run = runFjFine;
    else if (workload == "fj-numa")
        run = runFjNuma;
    else if (workload == "serve-open")
        run = runServeOpen;
    else if (workload == "sim-numa32")
        run = runSimNuma32;
    else
        NUMAWS_FATAL("unknown --workload '%s' (fj-fine, fj-numa, "
                     "serve-open, sim-numa32)",
                     workload.c_str());
    if (!(cfg.seconds > 0.0))
        NUMAWS_FATAL("--seconds must be positive");

    // glibc raises its mmap threshold after large frees, moving later
    // large blocks onto the heap, where they may stay resident; pinning
    // the threshold at its initial value makes peak RSS repeat.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    const HostShape host = probeHost();
    cfg.cpus = allowedCpus();
    cfg.cpus.resize(std::min<std::size_t>(cfg.cpus.size(), 4));
    std::printf("# workload=%s seed=%llu seconds=%g workers=%d "
                "host_cores=%d effective_cpus=%.2f git_sha=%s trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.workers(), host.hostCores,
                host.effectiveCpus, git_sha.c_str(), cfg.trace ? 1 : 0);
    std::fflush(stdout);

    if (cfg.trace)
        trace::enable(kMaxTraceRecords);
    Report rep;
    run(cfg, rep);
    rep.set("peak_rss_mb", peakRssMb(), "MB", 1);
    if (cfg.trace) {
        reportSpanLayers(rep);
        for (const char *name : kPerLayer) {
            const auto &ms = rep.metrics();
            if (std::none_of(ms.begin(), ms.end(), [name](const Metric &m) {
                    return m.name == name;
                }))
                rep.set(name, 0.0, "-", 0, "not measured by this workload");
        }
    }

    std::set<std::string> known(std::begin(kEndToEnd), std::end(kEndToEnd));
    known.insert(std::begin(kPerLayer), std::end(kPerLayer));
    known.insert(std::begin(kExtras), std::end(kExtras));
    for (const Metric &m : rep.metrics()) {
        if (known.count(m.name) == 0)
            NUMAWS_PANIC("metric '%s' is in no metric list", m.name.c_str());
        std::printf("%-34s %16.6g %-6s n=%-8llu %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples),
                    m.note.c_str());
    }
    std::printf("# checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(rep.attempted()),
                static_cast<unsigned long long>(rep.failed()));

    const std::string result = resultJson(rep, workload, cfg, host, git_sha);
    if (!json_path.empty() && !writeFile(json_path, result))
        NUMAWS_FATAL("cannot write %s", json_path.c_str());
    if (cfg.trace) {
        std::string other = "\"workload\":" + jsonString(workload)
                            + ",\"seed\":" + std::to_string(cfg.seed)
                            + ",\"host_cores\":"
                            + std::to_string(host.hostCores)
                            + ",\"effective_cpus\":"
                            + jsonNumber(host.effectiveCpus)
                            + ",\"git_sha\":" + jsonString(git_sha);
        for (const Metric &m : rep.metrics()) {
            if (m.name == "trace.overhead_frac")
                other += ",\"trace_overhead_frac\":" + jsonNumber(m.value)
                         + ",\"trace_overhead_basis\":" + jsonString(m.note);
        }
        if (!trace::writeChromeTrace(trace_path, other))
            NUMAWS_FATAL("cannot write %s", trace_path.c_str());
        std::printf("# trace: %llu spans recorded, %llu dropped -> %s\n",
                    static_cast<unsigned long long>(trace::recordedSpans()),
                    static_cast<unsigned long long>(trace::droppedSpans()),
                    trace_path.c_str());
    }
    return 0;
}

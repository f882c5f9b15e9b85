/**
 * @file
 * sim-numa32: the paper's nine benchmarks on the simulated packed
 * 32-core, 4-socket machine under the shipped SchedPolicy defaults, plus
 * one open-loop serving pass of a fib/heat/matmul job mix at 60% load
 * with idle-core parking modelled.
 *
 * The host has one socket, so this is the only workload where NUMA
 * placement and the shared policy core (sched/) show. It runs no
 * threaded mechanism: a spawn-path change must read as "no change"
 * here. Passes repeat until the time budget is spent; every pass must
 * reproduce the first byte for byte.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "suite.h"
#include "sim/scheduler.h"
#include "sim/serving.h"
#include "support/timing.h"
#include "topology/machine.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace numaws::bench {

namespace {

using trace::Kind;
using trace::Span;
using workloads::Placement;

constexpr int kCores = 32;
constexpr int kSockets = 4;
constexpr int kServingJobs = 6000;
constexpr double kServingUtil = 0.6;

/** The dags of one pass (building them is the set-up). */
struct PassInputs
{
    std::vector<std::string> names;
    /** Single-socket dags, run as TS (serial elision) and T1. */
    std::vector<sim::ComputationDag> oneSocket;
    /** Four-socket dags with partitioned data and locality hints. */
    std::vector<sim::ComputationDag> fourSocket;
    sim::ComputationDag mix;
    std::vector<sim::SimJob> jobs;
    /** Work of each job's dag, cycles: its serial time. */
    std::vector<double> jobWork;
};

PassInputs
buildInputs(uint64_t seed)
{
    PassInputs in;
    for (const workloads::SimWorkload &wl : workloads::simWorkloads(1.0)) {
        in.names.push_back(wl.name);
        in.oneSocket.push_back(wl.build(1, Placement::FirstTouch, false));
        in.fourSocket.push_back(
            wl.build(kSockets, Placement::Partitioned, true));
    }
    // The serving mix: Latency fib, Normal hinted heat, Batch matmul.
    std::vector<sim::ComputationDag> kinds;
    kinds.push_back(workloads::fibDag(12));
    workloads::HeatParams heat;
    heat.nx = 64;
    heat.ny = 64;
    heat.steps = 2;
    heat.baseRows = 16;
    kinds.push_back(
        workloads::heatDag(heat, kSockets, Placement::Partitioned, true));
    workloads::MatmulParams mm;
    mm.n = 64;
    mm.block = 32;
    kinds.push_back(
        workloads::matmulDag(mm, kSockets, Placement::FirstTouch, false));
    std::vector<sim::FrameId> roots;
    double work = 0.0;
    for (int i = 0; i < kServingJobs; ++i) {
        const sim::ComputationDag &k = kinds[static_cast<std::size_t>(i % 3)];
        roots.push_back(in.mix.append(k));
        in.jobWork.push_back(k.workSpan().work);
        work += in.jobWork.back();
    }
    const Machine machine = Machine::paperMachineSubset(kCores);
    sim::ArrivalProcess arrivals;
    arrivals.ratePerSec = kServingUtil * kCores * machine.ghz() * 1e9
                          / (work / kServingJobs);
    arrivals.seed = seed;
    const std::vector<double> at =
        sim::arrivalCycles(arrivals, kServingJobs, machine.ghz());
    for (int i = 0; i < kServingJobs; ++i) {
        sim::SimJob j;
        j.root = roots[static_cast<std::size_t>(i)];
        j.arrivalCycles = at[static_cast<std::size_t>(i)];
        j.cls = i % 3;
        in.jobs.push_back(j);
    }
    return in;
}

/** Everything one pass computes, and the bytes that must repeat. */
struct PassResult
{
    std::vector<double> ts, t32;
    /** W32: work summed over the 32 cores. */
    std::vector<double> w32;
    std::vector<double> inflation; ///< W32 / T1 per benchmark
    sim::MemCounters memory;
    double idleSeconds = 0.0;
    double processingSeconds = 0.0;
    uint64_t steals = 0;
    uint64_t pushAttempts = 0;
    uint64_t strands = 0;
    std::vector<double> serveLatencyUs;
    /** Each Done job's latency over its work. */
    std::vector<double> serveSlowdown;
    double serveQueueP99Us = 0.0;
    std::string fingerprint;
};

void
appendFingerprint(std::string &fp, const sim::SimResult &r)
{
    char buf[512];
    const sim::SimCounters &c = r.counters;
    std::snprintf(buf, sizeof(buf),
                  "%.17g %.17g %.17g %.17g %llu %llu %llu %llu %llu %llu "
                  "%llu;",
                  r.elapsedCycles, r.workSeconds, r.schedSeconds,
                  r.idleSeconds,
                  static_cast<unsigned long long>(c.strandsExecuted),
                  static_cast<unsigned long long>(c.steals),
                  static_cast<unsigned long long>(c.stealAttempts),
                  static_cast<unsigned long long>(c.pushAttempts),
                  static_cast<unsigned long long>(c.parks),
                  static_cast<unsigned long long>(r.memory.remoteDramLines),
                  static_cast<unsigned long long>(r.memory.llcHitLines));
    fp += buf;
}

PassResult
simulatePass(const PassInputs &in, uint64_t seed, uint64_t pass)
{
    PassResult out;
    sim::SimConfig cfg; // the shipped SchedPolicy defaults
    cfg.seed = seed;
    for (std::size_t i = 0; i < in.names.size(); ++i) {
        sim::SimResult ts, t1, t32;
        {
            Span s(Kind::SimSimulate, pass);
            ts = sim::simulatePacked(in.oneSocket[i], 1,
                                     sim::SimConfig::serial());
        }
        {
            Span s(Kind::SimSimulate, pass);
            t1 = sim::simulatePacked(in.oneSocket[i], 1, cfg);
        }
        {
            Span s(Kind::SimSimulate, pass);
            t32 = sim::simulatePacked(in.fourSocket[i], kCores, cfg);
        }
        out.ts.push_back(ts.elapsedSeconds);
        out.w32.push_back(t32.workSeconds);
        out.t32.push_back(t32.elapsedSeconds);
        out.inflation.push_back(ratio(t32.workSeconds, t1.elapsedSeconds));
        out.memory.merge(t32.memory);
        out.idleSeconds += t32.idleSeconds;
        out.processingSeconds += t32.totalProcessingSeconds();
        out.steals += t32.counters.steals;
        out.pushAttempts += t32.counters.pushAttempts;
        out.strands += ts.counters.strandsExecuted
                       + t1.counters.strandsExecuted
                       + t32.counters.strandsExecuted;
        for (const sim::SimResult *r : {&ts, &t1, &t32})
            appendFingerprint(out.fingerprint, *r);
    }
    sim::SimConfig serving = cfg;
    serving.modelParking = true;
    sim::ServingResult sr;
    {
        Span s(Kind::SimServe, pass);
        sr = sim::simulateServingPacked(in.mix, in.jobs, kCores, serving);
    }
    out.strands += sr.sim.counters.strandsExecuted;
    appendFingerprint(out.fingerprint, sr.sim);
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const sim::SimJobStats &j = sr.jobs[i];
        if (j.outcome != JobOutcome::Done)
            continue;
        out.serveLatencyUs.push_back(j.latencyCycles() / (sr.sim.ghz * 1e3));
        out.serveSlowdown.push_back(j.latencyCycles() / in.jobWork[i]);
    }
    out.serveQueueP99Us = sr.queueP99Us;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "serve %zu %.17g %.17g",
                  out.serveLatencyUs.size(), sr.p50Us, sr.p99Us);
    out.fingerprint += buf;
    return out;
}

} // namespace

void
runSimNuma32(const RunConfig &cfg, Report &rep)
{
    const uint64_t seed = cfg.seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
    std::vector<double> setup_s, cpu_ms, wall_traced_ms, wall_ms;
    PassResult first;
    uint64_t strands = 0;
    double strand_seconds = 0.0;
    const Deadline deadline(cfg.seconds);
    const uint64_t min_passes = cfg.trace ? 3 : 2;
    for (uint64_t pass = 0; pass < min_passes || !deadline.passed();
         ++pass) {
        const bool traced = cfg.trace && pass % 2 == 1;
        trace::setActive(traced);
        trace::gateRecording();
        int64_t t0 = nowNs();
        PassInputs in;
        {
            Span s(Kind::SimBuild, pass);
            in = buildInputs(seed);
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        const int64_t cpu0 = threadCpuNs();
        t0 = nowNs();
        PassResult r = simulatePass(in, seed, pass);
        const int64_t wall = nowNs() - t0;
        (traced ? wall_traced_ms : wall_ms)
            .push_back(static_cast<double>(wall) / 1e6);
        if (!traced) {
            cpu_ms.push_back(static_cast<double>(threadCpuNs() - cpu0) / 1e6);
            strands += r.strands;
            strand_seconds += static_cast<double>(wall) / 1e9;
        }
        if (pass == 0)
            first = std::move(r);
        else
            rep.check(r.fingerprint == first.fingerprint,
                      "sim-numa32: pass repeats the first byte for byte");
    }
    trace::setActive(false);

    std::vector<double> speedup, work_ratio;
    for (std::size_t i = 0; i < first.ts.size(); ++i) {
        speedup.push_back(ratio(first.ts[i], first.t32[i]));
        work_ratio.push_back(ratio(first.w32[i], first.ts[i]));
    }
    const double q = tailQuantileFor(first.serveLatencyUs.size());
    rep.set("setup_s", median(setup_s), "s", setup_s.size(),
            "dag construction per pass");
    rep.set("speedup", geomean(speedup), "x", speedup.size(),
            "simulated geomean TS/T32");
    rep.set("tail_slowdown", quantile(first.serveSlowdown, kTailQ), "x",
            first.serveSlowdown.size(),
            "simulated serving latency / job work, p90");
    rep.set("work_ratio", geomean(work_ratio), "x", work_ratio.size(),
            "simulated geomean W32/TS");
    rep.set("serve_p50_us", median(first.serveLatencyUs), "us",
            first.serveLatencyUs.size(), "simulated serving latency");
    rep.set("serve_tail_us", quantile(first.serveLatencyUs, q), "us",
            first.serveLatencyUs.size(),
            "simulated serving " + quantileName(q));
    if (!cfg.trace)
        return;
    rep.set("sim.cpu_ms_per_pass", median(cpu_ms), "ms", cpu_ms.size(),
            "host CPU per untraced pass");
    rep.set("sim.remote_dram_frac", first.memory.remoteFraction(), "frac",
            first.memory.totalLines(), "T32 runs");
    rep.set("sim.idle_frac", ratio(first.idleSeconds, first.processingSeconds),
            "frac", first.ts.size(), "T32 runs");
    rep.set("sim.steals_per_run",
            ratio(static_cast<double>(first.steals),
                  static_cast<double>(first.ts.size())),
            "count", first.ts.size(), "T32 runs");
    rep.set("sim.push_attempts_per_run",
            ratio(static_cast<double>(first.pushAttempts),
                  static_cast<double>(first.ts.size())),
            "count", first.ts.size(), "T32 runs");
    rep.set("sim.work_inflation", geomean(first.inflation), "x",
            first.inflation.size(), "geomean W32/T1");
    rep.set("sim.strands_per_s",
            ratio(static_cast<double>(strands), strand_seconds), "1/s",
            cpu_ms.size(), "host throughput, untraced passes");
    rep.set("sim.serve_queue_p99_us", first.serveQueueP99Us, "us",
            first.serveLatencyUs.size(), "simulated");
    rep.set("trace.overhead_frac", ratio(median(wall_traced_ms),
                                         median(wall_ms)) - 1.0,
            "frac", wall_traced_ms.size(), "traced / untraced pass time - 1");
}

} // namespace numaws::bench

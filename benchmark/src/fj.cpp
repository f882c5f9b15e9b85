/**
 * @file
 * The fork-join workloads: fj-fine (fib, spawn/sync-bound) and fj-numa
 * (parted heat then cilksort, bandwidth- and placement-bound).
 *
 * Each round runs four blocks, each after one untimed warm-up sample:
 *  - TS, the serial elision alone, and T1 on a fresh 1-worker runtime,
 *    both pinned to one CPU (the next CPU each round), so T1/TS compares
 *    two runs on the same CPU a few milliseconds apart;
 *  - TSref, P serial elisions at once, one per CPU, and TP on a fresh
 *    P-worker runtime, so TSref/TP compares two runs that met the same
 *    host (see concurrentSerialMs).
 * No runtime is alive during a serial block: with runtimes alive beside
 * it, TS turned bimodal.
 */
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bodies.h"
#include "suite.h"
#include "support/rng.h"
#include "support/timing.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace numaws::bench {

namespace {

using trace::Kind;
using trace::Span;
using trace::SpanIf;

/** Median of v[from..]: the samples one block appended. */
double
medianFrom(const std::vector<double> &v, std::size_t from)
{
    return median(std::vector<double>(v.begin() + from, v.end()));
}

/** What a serial sample is for. */
enum class SerialRun
{
    /** The round's first sample: produces the reference output. */
    Reference,
    /** Timed alone on the main thread; its phases are recorded. */
    Alone,
    /** One of P samples running at once on other threads. */
    Concurrent,
};

/** One fork-join workload as the rounds see it. */
class ForkJoinKernel
{
  public:
    virtual ~ForkJoinKernel() = default;

    /** Generate a round's inputs from @p round_seed (untimed: set-up
     * counts library work only). */
    virtual void prepareRound(uint64_t round_seed) = 0;
    /** One TS sample on serial buffer set @p slot: restores the slot's
     * inputs (untimed), times the serial elision and checks its output.
     * Calls on different slots may run at once. */
    virtual SerialSample runSerial(int slot, uint64_t op, SerialRun run) = 0;
    /** Build the runtime-side inputs (timed as set-up). */
    virtual void attach(Runtime &rt) = 0;
    /** Free them; runs before the runtime is destroyed. */
    virtual void detach() = 0;
    /** Restore what a T1/TP sample consumes (untimed). */
    virtual void resetParallel() = 0;
    /** One T1/TP sample. Returns the root's queue delay in ns, or -1
     * when the kernel's runs give the benchmark no JobHandle. */
    virtual int64_t runParallel(Runtime &rt, uint64_t op, bool traced,
                                Report &rep) = 0;
    /** Kernel-specific per-layer metrics. */
    virtual void reportLayers(Report &rep) const = 0;
};

// ---------------------------------------------------------------------
// fj-fine: fib(32), cutoff 14
// ---------------------------------------------------------------------

constexpr int kFibN = 32;

template <bool kTrace>
int64_t
submitFib(Runtime &rt, uint64_t op, uint64_t &result)
{
    JobHandle h;
    {
        Span s(Kind::Submit, op, submitSpanned(rt));
        h = rt.submit([&result, op] {
            SpanIf<kTrace> j(Kind::Job, op);
            result = fibTask<kTrace>(kFibN, op);
        });
    }
    {
        Span s(Kind::Wait, op);
        h.wait();
    }
    return h.queueNs();
}

class FibKernel final : public ForkJoinKernel
{
  public:
    FibKernel() : _expected(workloads::fibSerial(kFibN)) {}

    void prepareRound(uint64_t) override {}

    SerialSample
    runSerial(int, uint64_t op, SerialRun run) override
    {
        uint64_t r = 0;
        const int64_t t0 = nowNs();
        {
            Span s(Kind::Fib, op);
            r = workloads::fibSerial(kFibN);
        }
        const double ms = toMs(nowNs() - t0);
        if (run == SerialRun::Alone)
            _tsMs.push_back(ms);
        return {ms, r == _expected};
    }

    void attach(Runtime &) override {}
    void detach() override {}
    void resetParallel() override {}

    int64_t
    runParallel(Runtime &rt, uint64_t op, bool traced, Report &rep) override
    {
        uint64_t r = 0;
        const int64_t queue_ns = traced ? submitFib<true>(rt, op, r)
                                        : submitFib<false>(rt, op, r);
        rep.check(r == _expected, "fj-fine: fib equals fibSerial");
        return queue_ns;
    }

    void
    reportLayers(Report &rep) const override
    {
        rep.set("workloads.fib_ts_ms", median(_tsMs), "ms", _tsMs.size());
    }

  private:
    const uint64_t _expected;
    std::vector<double> _tsMs;
};

// ---------------------------------------------------------------------
// fj-numa: parted heat 2048^2 x 6, then cilksort 2^20 int64
// ---------------------------------------------------------------------

class NumaKernel final : public ForkJoinKernel
{
  public:
    explicit NumaKernel(int slots) : _slots(static_cast<std::size_t>(slots))
    {
        _heat.nx = 2048;
        _heat.ny = 2048;
        _heat.steps = 6; // even: the result lands back in the first grid
        _sort.n = int64_t{1} << 20;
    }

    void
    prepareRound(uint64_t round_seed) override
    {
        Rng rng(round_seed);
        _init.resize(cells());
        for (double &x : _init)
            x = rng.nextDouble();
        _keys.resize(static_cast<std::size_t>(_sort.n));
        _keySum = {};
        for (int64_t &k : _keys) {
            k = static_cast<int64_t>(rng.next() >> 1);
            _keySum.add(k);
        }
        // Serial buffers live for the whole run: freeing and
        // re-allocating them per round made peak RSS depend on where
        // the allocator happened to place the blocks.
        for (SerialBuffers &b : _slots) {
            b.a.resize(cells());
            b.b.resize(cells());
            b.data.resize(_keys.size());
            b.tmp.resize(_keys.size());
        }
    }

    SerialSample
    runSerial(int slot, uint64_t op, SerialRun run) override
    {
        SerialBuffers &b = _slots[static_cast<std::size_t>(slot)];
        std::memcpy(b.a.data(), _init.data(), cells() * sizeof(double));
        std::memcpy(b.data.data(), _keys.data(),
                    _keys.size() * sizeof(int64_t));
        const int64_t t0 = nowNs();
        {
            Span s(Kind::Heat, op);
            workloads::heatSerial(b.a.data(), b.b.data(), _heat);
        }
        const int64_t t1 = nowNs();
        {
            Span s(Kind::Sort, op);
            workloads::cilksortSerial(b.data.data(), _sort.n, b.tmp.data(),
                                      _sort);
        }
        const int64_t t2 = nowNs();
        bool ok = sortedWithSum(b.data.data(), _sort.n, _keySum);
        if (run == SerialRun::Reference)
            _ref = b.a;
        else
            ok &= std::memcmp(b.a.data(), _ref.data(),
                              cells() * sizeof(double))
                  == 0;
        if (run == SerialRun::Alone) {
            _heatTsMs.push_back(toMs(t1 - t0));
            _sortTsMs.push_back(toMs(t2 - t1));
        }
        return {toMs(t2 - t0), ok};
    }

    void
    attach(Runtime &rt) override
    {
        const int64_t t0 = nowNs();
        Span s(Kind::Container, 0);
        const auto ny = static_cast<std::size_t>(_heat.ny);
        _pa = std::make_unique<PartedVec<double>>(rt, cells(), ny);
        _pb = std::make_unique<PartedVec<double>>(rt, cells(), ny);
        _buf = std::make_unique<workloads::CilksortBuffers>(rt, _sort.n);
        resetParallel(); // first touch of the grid and the sort buffers
        if (rt.numWorkers() > 1)
            _containerMs.push_back(toMs(nowNs() - t0));
    }

    void
    detach() override
    {
        _buf.reset();
        _pb.reset();
        _pa.reset();
    }

    void
    resetParallel() override
    {
        for (int s = 0; s < _pa->numShards(); ++s)
            std::memcpy(_pa->shardData(s), _init.data() + _pa->shardBegin(s),
                        _pa->shardSize(s) * sizeof(double));
        std::memcpy(_buf->data, _keys.data(), _keys.size() * sizeof(int64_t));
    }

    int64_t
    runParallel(Runtime &rt, uint64_t op, bool traced, Report &rep) override
    {
        const int64_t t0 = nowNs();
        {
            Span s(Kind::Heat, op);
            workloads::heatParallel(rt, *_pa, *_pb, _heat);
        }
        const int64_t t1 = nowNs();
        {
            Span s(Kind::Sort, op);
            workloads::cilksortParallel(rt, *_buf, _sort, /*hints=*/true);
        }
        const int64_t t2 = nowNs();
        if (rt.numWorkers() > 1 && !traced) {
            _heatTpMs.push_back(toMs(t1 - t0));
            _sortTpMs.push_back(toMs(t2 - t1));
        }
        bool same = true;
        for (int s = 0; s < _pa->numShards(); ++s)
            same &= std::memcmp(_pa->shardData(s),
                                _ref.data() + _pa->shardBegin(s),
                                _pa->shardSize(s) * sizeof(double))
                    == 0;
        rep.check(same, "fj-numa: parted heat equals heatSerial bit for bit");
        rep.check(sortedWithSum(_buf->data, _sort.n, _keySum),
                  "fj-numa: parallel sort is sorted with its checksum");
        // The library kernels wrap Runtime::run, so no handle is exposed.
        return -1;
    }

    void
    reportLayers(Report &rep) const override
    {
        rep.set("workloads.heat_ts_ms", median(_heatTsMs), "ms",
                _heatTsMs.size());
        rep.set("workloads.sort_ts_ms", median(_sortTsMs), "ms",
                _sortTsMs.size());
        const double heat_tp = median(_heatTpMs);
        rep.set("workloads.heat_tp_ms", heat_tp, "ms", _heatTpMs.size());
        rep.set("workloads.sort_tp_ms", median(_sortTpMs), "ms",
                _sortTpMs.size());
        // Computed, not measured: each step streams one grid in and one
        // out; stencil neighbours are assumed to hit in cache.
        const double bytes = static_cast<double>(_heat.steps)
                             * static_cast<double>(cells()) * 2.0
                             * sizeof(double);
        rep.set("workloads.heat_gb_per_s_computed",
                ratio(bytes, heat_tp * 1e6), "GB/s", _heatTpMs.size(),
                "computed bytes / measured time");
        rep.set("mem.setup_alloc_ms", median(_containerMs), "ms",
                _containerMs.size(),
                "PartedVec + CilksortBuffers + first touch");
    }

  private:
    /** Inputs and scratch of one serial run. */
    struct SerialBuffers
    {
        std::vector<double> a, b;
        std::vector<int64_t> data, tmp;
    };

    std::size_t
    cells() const
    {
        return static_cast<std::size_t>(_heat.nx)
               * static_cast<std::size_t>(_heat.ny);
    }

    workloads::HeatParams _heat;
    workloads::CilksortParams _sort;
    std::vector<double> _init, _ref;
    std::vector<int64_t> _keys;
    KeySum _keySum;
    std::vector<SerialBuffers> _slots;
    std::unique_ptr<PartedVec<double>> _pa, _pb;
    std::unique_ptr<workloads::CilksortBuffers> _buf;
    std::vector<double> _heatTsMs, _sortTsMs, _heatTpMs, _sortTpMs;
    std::vector<double> _containerMs;
};

// ---------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------

/** Timed samples per block in one round (each block adds one warm-up),
 * and the rounds a run makes at least, so the TP sample count (and with
 * it the tail percentile) does not depend on how fast the host is. */
struct ForkJoinPlan
{
    int ts;
    int t1;
    int tsRef;
    int tp;
    uint64_t minRounds;
};

class ForkJoinRounds
{
  public:
    ForkJoinRounds(const RunConfig &cfg, ForkJoinKernel &kernel,
                   Report &rep)
        : _cfg(cfg), _k(kernel), _rep(rep)
    {
    }

    void
    run(const ForkJoinPlan &plan)
    {
        const Deadline deadline(_cfg.seconds);
        // A traced run makes twice the rounds: half of them are traced.
        const uint64_t min_rounds = plan.minRounds * (_cfg.trace ? 2 : 1);
        for (uint64_t round = 0; round < min_rounds || !deadline.passed();
             ++round) {
            // A traced run alternates traced and untraced rounds, so the
            // tracing overhead is measured under the same conditions and
            // the end-to-end numbers still come from untraced rounds.
            const bool traced = _cfg.trace && round % 2 == 1;
            trace::setActive(traced);
            Samples &out = _samples[traced ? 1 : 0];
            const std::size_t ts0 = out.ts.size();
            const std::size_t t10 = out.t1.size();
            const std::size_t tp0 = out.tp.size();
            const uint64_t round_seed = _cfg.seed * 0x9e3779b97f4a7c15ULL
                                        + round;
            _k.prepareRound(round_seed);
            int64_t setup_ns = 0;
            {
                const CpuPin pin(_cfg.cpus[round % _cfg.cpus.size()]);
                serialBlock(plan.ts, out);
                setup_ns += runtimeBlock(1, plan.t1, traced, round_seed, out);
            }
            double ts_ref = 0.0;
            {
                Span s(Kind::Block, round);
                const uint64_t op = _op++;
                ts_ref = concurrentSerialMs(
                    _cfg.cpus, plan.tsRef,
                    [this, op](int slot) {
                        return _k.runSerial(slot, op, SerialRun::Concurrent);
                    },
                    _rep, "fork-join: concurrent serial run is correct");
            }
            setup_ns += runtimeBlock(_cfg.workers(), plan.tp, traced,
                                     round_seed, out);
            out.setupS.push_back(static_cast<double>(setup_ns) / 1e9);
            out.tsRef.push_back(ts_ref);
            out.speedup.push_back(ratio(ts_ref, medianFrom(out.tp, tp0)));
            out.workRatio.push_back(
                ratio(medianFrom(out.t1, t10), medianFrom(out.ts, ts0)));
            for (std::size_t i = tp0; i < out.tp.size(); ++i)
                out.slowdown.push_back(ratio(out.tp[i], ts_ref));
        }
        trace::setActive(false);
    }

    void
    report() const
    {
        const Samples &u = _samples[0];
        const double ts = median(u.ts);
        const double t1 = median(u.t1);
        const double tp = median(u.tp);
        _rep.set("setup_s", median(u.setupS), "s", u.setupS.size());
        _rep.set("speedup", median(u.speedup), "x", u.speedup.size(),
                 "TSref/TP p50, median over rounds");
        _rep.set("tail_slowdown", quantile(u.slowdown, kTailQ), "x",
                 u.slowdown.size(), "TP p90 / TSref");
        _rep.set("work_ratio", median(u.workRatio), "x", u.workRatio.size(),
                 "T1/TS on one CPU, median over rounds");
        const double q = tailQuantileFor(u.tp.size());
        _rep.set("tp_p50_ms", tp, "ms", u.tp.size(), "TP");
        _rep.set("tp_tail_ms", quantile(u.tp, q), "ms", u.tp.size(),
                 "TP " + quantileName(q));
        _rep.set("ts_ms", ts, "ms", u.ts.size(), "TS alone");
        _rep.set("tsref_ms", median(u.tsRef), "ms", u.tsRef.size(),
                 "TSref, median over rounds");
        _rep.set("t1_ms", t1, "ms", u.t1.size(), "T1");
        if (!_cfg.trace)
            return;
        _rep.set("runtime.cpu_ms_per_op", median(u.cpuMs), "ms",
                 u.cpuMs.size(), "worker CPU per TP run");
        _tallyP.report(_rep);
        const double spawns_1 =
            ratio(static_cast<double>(_tally1.counters.spawns),
                  static_cast<double>(_tally1.ops));
        _rep.set("runtime.overhead_ns_per_spawn",
                 ratio((t1 - ts) * 1e6, spawns_1), "ns", u.t1.size(),
                 "(T1 - TS) / spawns");
        _rep.set("runtime.work_inflation",
                 ratio(_tallyP.workNsPerOp(), _tally1.workNsPerOp()), "x",
                 _tallyP.ops, "W_P / W_1");
        _rep.set("runtime.start_us", median(u.startUs), "us",
                 u.startUs.size(), "root queue delay of a TP run");
        const Samples &t = _samples[1];
        _rep.set("trace.overhead_frac", ratio(median(t.tp), tp) - 1.0,
                 "frac", t.tp.size(), "traced / untraced TP p50 - 1");
        _k.reportLayers(_rep);
    }

  private:
    /** Timings of untraced or of traced rounds. */
    struct Samples
    {
        std::vector<double> ts, t1, tp, tsRef, setupS, cpuMs, startUs;
        /** Per-round TSref/TP and T1/TS. */
        std::vector<double> speedup, workRatio;
        /** Each TP sample over its round's TSref. */
        std::vector<double> slowdown;
    };

    /** TS alone on the main thread, serial buffer set 0. */
    void
    serialBlock(int samples, Samples &out)
    {
        Span block(Kind::Block, 0);
        for (int i = 0; i <= samples; ++i) {
            trace::gateRecording();
            const SerialSample s = _k.runSerial(
                0, _op++, i == 0 ? SerialRun::Reference : SerialRun::Alone);
            _rep.check(s.ok, "fork-join: serial run is correct");
            if (i > 0)
                out.ts.push_back(s.ms);
        }
    }

    /** One T1 or TP block on a fresh runtime; returns its set-up ns. */
    int64_t
    runtimeBlock(int workers, int samples, bool traced, uint64_t seed,
                 Samples &out)
    {
        Span block(Kind::Block, static_cast<uint64_t>(workers));
        const int64_t t0 = nowNs();
        std::unique_ptr<Runtime> rt;
        {
            Span s(Kind::RuntimeConstruct, 0);
            rt = std::make_unique<Runtime>(runtimeOptions(workers, seed));
        }
        _k.attach(*rt);
        const int64_t setup_ns = nowNs() - t0;
        const bool tp = workers > 1;
        int64_t cpu0 = 0;
        int64_t main_cpu0 = 0;
        int64_t wall0 = 0;
        for (int i = 0; i <= samples; ++i) {
            _k.resetParallel();
            if (i == 1) {
                // Counters cover the timed samples only.
                rt->resetStats();
                cpu0 = processCpuNs();
                main_cpu0 = threadCpuNs();
                wall0 = nowNs();
            }
            trace::gateRecording();
            const int64_t s0 = nowNs();
            const int64_t queue_ns = _k.runParallel(*rt, _op++, traced, _rep);
            const int64_t s1 = nowNs();
            if (i == 0)
                continue;
            (tp ? out.tp : out.t1).push_back(toMs(s1 - s0));
            if (tp && queue_ns >= 0)
                out.startUs.push_back(static_cast<double>(queue_ns) / 1e3);
        }
        const int64_t wall = nowNs() - wall0;
        if (tp) {
            // The main thread only submits, waits and resets inputs;
            // everything else on the process clock is the runtime.
            const int64_t worker_cpu =
                (processCpuNs() - cpu0) - (threadCpuNs() - main_cpu0);
            out.cpuMs.push_back(toMs(worker_cpu) / samples);
        }
        // Counter metrics come from untraced rounds, like the timings.
        if (!traced)
            (tp ? _tallyP : _tally1)
                .add(rt->stats(), static_cast<uint64_t>(samples), workers,
                     wall);
        _k.detach();
        return setup_ns;
    }

    const RunConfig &_cfg;
    ForkJoinKernel &_k;
    Report &_rep;
    uint64_t _op = 0;
    /** [0]: untraced rounds, [1]: traced rounds. */
    Samples _samples[2];
    RuntimeTally _tally1, _tallyP;
};

} // namespace

void
runFjFine(const RunConfig &cfg, Report &rep)
{
    FibKernel kernel;
    ForkJoinRounds rounds(cfg, kernel, rep);
    rounds.run({10, 10, 10, 100, 20});
    rounds.report();
}

void
runFjNuma(const RunConfig &cfg, Report &rep)
{
    NumaKernel kernel(cfg.workers());
    ForkJoinRounds rounds(cfg, kernel, rep);
    rounds.run({3, 3, 3, 12, 9});
    rounds.report();
}

} // namespace numaws::bench

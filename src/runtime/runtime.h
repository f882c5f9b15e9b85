/**
 * @file
 * NUMA-WS threaded runtime: the adoptable task-parallel platform.
 *
 * Workers are surrogates of processing cores (paper Section II). Each owns
 * a THE-protocol deque, a single-entry mailbox, and a private RNG. Workers
 * are grouped into virtual places; the scheduler honors place hints with
 * best effort via locality-biased steals and lazy work pushing, but load
 * balancing always comes first (a starving worker will steal against the
 * hint rather than idle).
 *
 * Since PR 4 every scheduling *decision* — victim selection, the
 * mailbox-vs-deque coin flip, PUSHBACK receivers and thresholds,
 * escalation, dry-poll cadence, parking streaks and tuning — lives in
 * the engine-agnostic StealCore (sched/steal_core.h), configured by the
 * SchedPolicy nested in RuntimeOptions (sched/policy.h, where the full
 * knob table is documented). Worker::trySteal/pushBack/mainLoop are
 * thin drivers that execute the core's actions against the threaded
 * mechanics: real deques, mailboxes, condition variables, and the
 * ParkingLot. The simulator drives the very same core, so ablations on
 * either engine toggle one shared implementation.
 *
 * Since PR 6 the public entry point is *job submission* (the serving
 * front door): Runtime::submit(fn, JobOptions) deposits an independent
 * root computation into the JobQueue and returns a joinable JobHandle
 * with per-job latency; batch run(fn) is submit(fn).wait() — the same
 * code path. Idle workers claim queued jobs between steals, and the
 * pool is *elastic*: workers park through the ParkingLot whenever the
 * occupancy board and the JobQueue are both dry, waking on admission
 * edges, so idle cores are yielded between bursts.
 */
#ifndef NUMAWS_RUNTIME_RUNTIME_H
#define NUMAWS_RUNTIME_RUNTIME_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "deque/mailbox.h"
#include "deque/ws_deque.h"
#include "mem/numa_heap.h"
#include "runtime/job.h"
#include "runtime/job_queue.h"
#include "runtime/task.h"
#include "runtime/task_pool.h"
#include "sched/interference_core.h"
#include "sched/occupancy.h"
#include "sched/parking.h"
#include "sched/policy.h"
#include "sched/shed_core.h"
#include "sched/steal_core.h"
#include "support/cache_aligned.h"
#include "support/latency_hist.h"
#include "support/panic.h"
#include "support/pressure.h"
#include "support/rng.h"
#include "support/single_writer.h"
#include "support/spin_lock.h"
#include "support/timing.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

namespace numaws {

class Runtime;

/**
 * What Runtime teardown does with jobs still queued (running jobs are
 * always completed — a body cannot be abandoned mid-flight).
 */
enum class ShutdownPolicy : uint8_t
{
    /** Wait for every submitted job, queued included, to finish (the
     * PR 6 behavior and the default). */
    Drain,
    /** Resolve queued-but-unstarted jobs as Cancelled without running
     * them, then wait only for the jobs already executing. The
     * fast-teardown choice for servers dying under load. */
    CancelQueued,
};

/**
 * Runtime construction parameters: engine-side knobs only. Every
 * scheduling *decision* knob (victim selection, parking, PUSHBACK
 * targeting, escalation, mailbox capacity, ...) lives in the nested
 * SchedPolicy, shared verbatim with the simulator's SimConfig — see
 * sched/policy.h for the full table and PR 4 migration notes.
 */
struct RuntimeOptions
{
    /** Worker threads; 0 means one per host CPU. */
    int numWorkers = 0;
    /** Virtual places the workers are spread over. */
    int numPlaces = 1;
    /** The unified scheduling policy (sched/policy.h). */
    SchedPolicy sched{};
    /**
     * Optional page-home registry for data-home affinity (not owned;
     * must outlive the runtime). Tasks spawned with a data range resolve
     * their home sockets through it.
     */
    const PageMap *pageMap = nullptr;
    /** Pin worker threads to host CPUs (best effort). */
    bool pinThreads = false;
    /**
     * Task-frame allocation: NUMA-local per-worker pools (default) or
     * global-heap new/delete per spawn (the ablation baseline). An
     * engine-side mechanics knob, deliberately *not* in SchedPolicy:
     * the simulator has no allocator to steer, and no scheduling
     * decision may depend on it (the engine-parity contract).
     */
    TaskPoolPolicy taskPool = TaskPoolPolicy::Pooled;
    /**
     * User-data allocation (numa::allocate / NumaAllocator / PartedVec):
     * per-worker NUMA heaps plus PageMap-registered arena blocks
     * (default), or plain unregistered heap blocks (the ablation
     * baseline — pre-data-plane behavior). Engine-side like taskPool:
     * the simulator has no allocator, and no scheduling decision may
     * depend on this knob.
     */
    DataHeapPolicy dataHeap = DataHeapPolicy::Pooled;
    /** Root seed; worker RNGs derive from it. */
    uint64_t seed = 0x5eed;
    /** Deque capacity (spawn depth bound). */
    std::size_t dequeCapacity = 1 << 16;
    /** Teardown policy for jobs still queued when the Runtime is
     * destroyed (see ShutdownPolicy). */
    ShutdownPolicy shutdownPolicy = ShutdownPolicy::Drain;
    /**
     * Stall watchdog, milliseconds; 0 (default) disables. When set, a
     * monitor thread checks every window that at least one task or job
     * completed while work was active; a silent window emits a
     * one-line-per-worker state dump (park state, running class, deque
     * depth, socket pressure) to stderr. Diagnosis only — it never
     * kills or unwedges anything.
     */
    int watchdogMs = 0;
};

/**
 * Per-worker event counters, aggregated by Runtime::stats().
 *
 * @tparam Count storage: uint64_t for aggregates (WorkerCounters), a
 *         SingleWriterCounter for a worker's live set
 *         (LiveWorkerCounters). Each live counter has one writer, its
 *         worker, while stats() may read it from another thread, so an
 *         increment is a relaxed load plus a store: race-free, and no
 *         locked RMW on the spawn path.
 */
template <typename Count>
struct BasicWorkerCounters
{
    Count spawns = 0;
    Count stealAttempts = 0;
    Count steals = 0;          ///< successful deque steals
    Count mailboxTakes = 0;    ///< frames obtained from a mailbox
    Count pushbackAttempts = 0;
    Count pushbackSuccesses = 0;
    Count pushbackGiveUps = 0; ///< threshold reached, ran it ourselves
    /** Hinted children deposited on their place at spawn
     * (SchedPolicy::deliverHintedSpawns); not PUSHBACK attempts. */
    Count spawnDeliveries = 0;
    Count tasksExecuted = 0;
    Count tasksOnHintedPlace = 0; ///< hinted tasks run where hinted
    /** Always 0: steals move one frame (the paper's transport). Kept
     * because the repository benchmark still reports it. */
    Count stealHalfTasks = 0;
    /** Decision counters (stealAttempts above, and the three below) are
     * maintained by each worker's StealCore — the shared policy brain —
     * and folded in by Runtime::stats() via Worker::foldCoreCounters. */
    Count escalations = 0;        ///< hierarchical level widenings
    Count levelSkips = 0;         ///< dry levels skipped via the board
    Count dryPolls = 0;           ///< probes skipped on a dry board
    Count yields = 0;             ///< preemption yields serviced
    /** Jobs claimed at an aged (promoted) effective class — the
     * priority-aging counter, bumped runtime-wide by takeJobAbove. */
    Count agedClaims = 0;
    /** @name Task-frame pool counters
     * Maintained by each worker's TaskFramePool and folded in by
     * Runtime::stats() via Worker::foldPoolCounters. framesRecycled /
     * spawns is the steady-state figure of merit (~1.0 once the pool
     * is warm); remoteFrees counts frames thieves pushed home across
     * workers; slabBytes is a gauge of carved pool memory. */
    /// @{
    Count framesRecycled = 0; ///< pool allocations served from a free list
    Count remoteFrees = 0;    ///< frames freed onto a remote-free stack
    Count slabBytes = 0;      ///< pool memory carved from NumaArena
    Count slabFallbacks = 0;  ///< failed carves degraded to heap frames
    /// @}
    /** @name Data-plane counters
     * Maintained by each worker's NumaHeap (the user-data sibling of
     * the frame pool) and folded in via Worker::foldDataCounters.
     * dataBytesPooled is user bytes served from the size-classed fast
     * path; dataRemoteFrees counts blocks freed cross-thread onto a
     * remote stack; dataSlabBytes gauges carved heap memory. */
    /// @{
    Count dataBytesPooled = 0;
    Count dataRemoteFrees = 0;
    Count dataSlabBytes = 0;
    Count dataSlabFallbacks = 0; ///< failed carves, plain-heap blocks
    /// @}
    /** @name Parking counters
     * These advance on the idle path too: workers park while the
     * runtime is quiescent. */
    /// @{
    Count parks = 0;              ///< idleWait entries
    Count parkWakes = 0;          ///< parks ended by a notification
    Count parkTimeouts = 0;       ///< parks ended by the timeout
    Count spuriousWakes = 0;      ///< wakes with a still-dry board
    /** Nanoseconds spent parked in idleWait: the elastic-pool yield
     * metric (parkedNs over total worker-idle time is the fraction of
     * idleness actually handed back to the OS). */
    Count parkedNs = 0;
    /** Interference adaptation (ServingPolicy::interference): times
     * this worker entered retirement (parked by the InterferenceCore
     * verdict) and times it was reinstated. */
    Count interferenceRetires = 0;
    Count interferenceReinstates = 0;
    /// @}
    /** Jobs whose root completed on this worker (serving front door). */
    Count jobsCompleted = 0;
    /** Time-split bucket changes (clock reads on the accounting path).
     * Work-first accounting reads the clock only on a real state change
     * — running dry, a steal, a pushback, a wait's end — so this stays
     * proportional to steal-path events, never to spawns. */
    Count timeSplitSwitches = 0;

    template <typename O>
    void merge(const BasicWorkerCounters<O> &o);
};

using WorkerCounters = BasicWorkerCounters<uint64_t>;
using LiveWorkerCounters = BasicWorkerCounters<SingleWriterCounter<uint64_t>>;

/** Per-class job-resolution tallies (overload-protection telemetry).
 * `rejected` counts submit-time admission rejections, `shed` counts
 * queued jobs the QueueDelay policy removed (their JobOutcome is also
 * Rejected — the counters split the two causes). */
struct JobOutcomeCounts
{
    uint64_t done = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t expired = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;
};

/** Aggregated runtime statistics (counters plus the time split). */
struct RuntimeStats
{
    WorkerCounters counters;
    TimeSplit time;
    /** Aggregate per-job latency (submit -> finish) across all classes,
     * merged from the per-worker histograms; see also quantile().
     * Records jobs that ran to completion (Done/Failed) — resolved-
     * without-running jobs appear in jobOutcomes, not here, so latency
     * percentiles stay a statement about served work. */
    LatencyHist jobLatency;
    /** Same, split by JobClass (index with static_cast<int>(cls)). */
    LatencyHist jobLatencyByClass[kNumJobClasses];
    /** Per-class outcome tallies (index with static_cast<int>(cls)). */
    JobOutcomeCounts jobOutcomes[kNumJobClasses];
};

/**
 * Fork-join synchronization scope: the library's cilk_sync.
 *
 * Every spawn names its group; sync() returns once all tasks spawned on
 * the group have completed, helping to execute work while waiting (first
 * its own deque — descendants only — then stealing, so a blocked worker is
 * never idle while work exists). Groups nest arbitrarily.
 *
 * Ownership rule (Cilk's "a frame syncs only its own children"): every
 * spawn into a group, and its sync, must come from the thread of the
 * worker that made the group's first spawn — in practice, from the task
 * body that declared the group. A child may not spawn into its parent's
 * group; it declares its own. spawn() asserts this (always on).
 *
 * Steal-only join counter: the owner counts children in a plain
 * _outstanding (spawn +1, a child it finishes itself -1), so a sync
 * whose children all ran at home does no locked RMW. A child finished
 * on any other worker (thief or mailbox receiver) does one release
 * fetch_add on _remoteDone instead. The rule above is what makes the
 * plain count safe: a task body never migrates, so every write to
 * _outstanding happens on the owner's thread.
 */
class TaskGroup
{
  public:
    TaskGroup();
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Spawn @p fn as a child task.
     * @param place locality hint: a concrete place, kAnyPlace, or
     *        kInheritPlace (default) to adopt the spawner's current hint
     *        (the paper's "subsequently spawned computation inherits the
     *        locality" rule).
     */
    template <typename F>
    void spawn(F &&fn, Place place = kInheritPlace);

    /**
     * Spawn @p fn annotated with the data range it chiefly touches.
     * When the runtime has a PageMap (RuntimeOptions::pageMap), workers
     * resolve the range's home sockets and use them as the data-home
     * affinity signal for hierarchical (informed) steals.
     */
    template <typename F>
    void spawn(F &&fn, Place place, const void *data,
               std::size_t data_bytes);

    /** Wait for all spawned tasks, then rethrow the first exception. */
    void sync();

    /** Outstanding children. Owner-side only: it reads the owner's
     * plain count (test/diagnostic hook, and helpSync's exit test). */
    int64_t
    pending() const
    {
        return _outstanding - _remoteDone.load(std::memory_order_acquire);
    }

    /** @name Runtime-internal */
    /// @{
    /** A child of this group finished on @p w. */
    void
    onChildDone(const Worker *w)
    {
        // _owner was written before the child's deque push or
        // spawn-time mailbox deposit, and every route to a finisher
        // (steal, mailbox take, both acq_rel or acquire) is an acquire
        // chain from that publication, so a remote finisher reads it
        // race-free. The fetch_add is the finisher's last touch: the
        // owner may return from sync and destroy the group right after.
        if (w == _owner)
            --_outstanding;
        else
            _remoteDone.fetch_add(1, std::memory_order_release);
    }
    void recordException(std::exception_ptr e);
    /// @}

  private:
    /** Worker of the first spawn; every later spawn must match. */
    const Worker *_owner = nullptr;
    /** Owner-only: children spawned minus children the owner finished. */
    int64_t _outstanding = 0;
    /** Children finished on other workers (release RMWs only). */
    std::atomic<int64_t> _remoteDone{0};
    SpinLock _exceptionLock;
    std::exception_ptr _exception;
};

class Worker;

namespace detail {
/** The worker running on this thread (set by Worker::mainLoop). A
 * header inline so Worker::current() — one TLS load on every spawn and
 * sync — needs no out-of-line call. */
inline thread_local Worker *tlsWorker = nullptr;
} // namespace detail

/**
 * A worker thread: deque + mailbox + RNG + place, and the scheduling loop.
 */
class Worker
{
  public:
    Worker(Runtime &runtime, int id, int place, uint64_t seed,
           std::size_t deque_capacity);

    int id() const { return _id; }
    Place place() const { return _place; }
    Runtime &runtime() { return _runtime; }

    /** The worker executing the calling thread, or nullptr. */
    static Worker *current() { return detail::tlsWorker; }

    /** Owner-side push (spawn path). Under board parking, a deque bit
     * we already published means the publish could find no edge and
     * wake no one (WakeDirective::None), so a spawn burst skips the
     * out-of-line call after its first push. */
    void
    pushTask(TaskBase *task)
    {
        _deque.pushTail(task);
        if (!(_boardParking && _dequeBitPublished))
            publishOwnDequeAndNotify();
    }

    /** Current inherited locality hint of the executing task. */
    Place currentHint() const { return _currentHint; }

    /** The job whose task this worker is executing right now, or null
     * on the idle path. Maintained by executeTask (stolen subtasks
     * carry their job via TaskBase::job), it is what gives TaskGroup's
     * spawn/sync boundaries and currentCancelToken their cancellation
     * view. */
    JobState *currentJob() const { return _currentJob; }

    /** @name Cooperative preemption (ServingPolicy::preempt) */
    /// @{
    /** Class of the job this worker is executing, -1 on the idle path.
     * Maintained by executeTask (only when preemption is enabled) so
     * the admission path can pick a preemption victim without touching
     * the workers' hot state. */
    int8_t
    runningCls() const
    {
        return _runningCls.load(std::memory_order_relaxed);
    }

    /** Spawn/sync boundary peek: preemption on and a yield raised.
     * One cached bool plus one relaxed load — the work-first price. */
    bool
    yieldPending() const
    {
        return _preemptEnabled && _core.yieldRequested();
    }

    /** Consume the yield directive and, if a strictly higher-class job
     * is queued, run it inline before returning to the preempted job.
     * The preempted job's deque-resident children stay stealable
     * throughout — that is its checkpointed continuation. */
    void serviceYield();
    /// @}

    LiveWorkerCounters &counters() { return _counters; }
    LiveTimeSplit &timeSplit() { return _time; }
    /** Fold the StealCore decision counters into @p into
     * (Runtime::stats). */
    void
    foldCoreCounters(WorkerCounters &into) const
    {
        const StealCoreCounters &c = _core.counters();
        into.stealAttempts += c.stealAttempts;
        into.dryPolls += c.dryPolls;
        into.levelSkips += c.levelSkips;
        into.escalations += c.escalations;
        into.yields += c.yields;
    }
    /** Fold the task-frame pool counters into @p into (Runtime::stats). */
    void
    foldPoolCounters(WorkerCounters &into) const
    {
        into.framesRecycled += _framePool.framesRecycled();
        into.remoteFrees += _framePool.remoteFrees();
        into.slabBytes += _framePool.slabBytes();
        into.slabFallbacks += _framePool.slabFallbacks();
    }
    /** Fold the user-data heap counters into @p into (Runtime::stats). */
    void
    foldDataCounters(WorkerCounters &into) const
    {
        into.dataBytesPooled += _dataHeap.bytesPooled();
        into.dataRemoteFrees += _dataHeap.remoteFrees();
        into.dataSlabBytes += _dataHeap.slabBytes();
        into.dataSlabFallbacks += _dataHeap.slabFallbacks();
    }
    /** Record a completed job's serving latency (Runtime::finishJob;
     * job roots always finish on a worker, so this is thread-private). */
    void
    recordJobLatency(JobClass cls, int64_t ns)
    {
        ++_counters.jobsCompleted;
        _jobHist[static_cast<int>(cls)].record(
            ns > 0 ? static_cast<uint64_t>(ns) : 0);
    }
    /** Merge this worker's per-class job histograms (Runtime::stats). */
    void
    foldJobHists(RuntimeStats &into) const
    {
        for (int c = 0; c < kNumJobClasses; ++c) {
            into.jobLatency.merge(_jobHist[c]);
            into.jobLatencyByClass[c].merge(_jobHist[c]);
        }
    }
    void
    resetJobHists()
    {
        for (LatencyHist &h : _jobHist)
            h = LatencyHist{};
    }
    /** @name Liveness introspection (watchdog / tests)
     * Racy relaxed reads by design — diagnosis, never decisions. */
    /// @{
    /** Monotonic count of completed task bodies and serviced parks:
     * the watchdog's per-worker liveness signal. */
    uint64_t
    progressStamp() const
    {
        return _progressStamp;
    }
    /** Is the worker inside idleWait (or retired-parked) right now? */
    bool
    parkedNow() const
    {
        return _parkedNow.load(std::memory_order_relaxed);
    }
    /** Is the worker currently retired by the InterferenceCore? */
    bool
    retiredNow() const
    {
        return _retiredNow.load(std::memory_order_relaxed);
    }
    /// @}
    Mailbox<TaskBase> &mailbox() { return _mailbox; }
    WsDeque<TaskBase> &deque() { return _deque; }
    /** The worker's scheduling brain (decisions, RNG, tuners). */
    StealCore &core() { return _core; }
    /** The worker's NUMA-local task-frame pool (spawn fast path). */
    TaskFramePool &framePool() { return _framePool; }
    /** The worker's NUMA-local user-data heap (numa::allocate). */
    NumaHeap &dataHeap() { return _dataHeap; }

    /**
     * Sockets homing the first and last page of a data-annotated
     * spawn's range, resolved through the runtime's affinity PageMap
     * (bit s == socket s). Only *registered* pages count: 0 for
     * plain-heap data.
     */
    uint32_t dataHomeMask(const void *data, std::size_t bytes) const;

    /**
     * Spawn-time placement hint from a dataHomeMask: a place picked
     * from the mask (StealCore::placeFromAffinity). kAnyPlace for an
     * empty mask — unregistered data must not herd spawns onto
     * socket 0.
     */
    Place placeForDataHomes(uint32_t mask) const;

    /** @name Runtime-internal scheduling entry points */
    /// @{
    void mainLoop();
    /** Help execute work until @p group has no pending children. */
    void helpSync(TaskGroup &group);
    /** helpJobUntil's "no deadline": help until the job completes,
     * with no clock read per iteration. */
    static constexpr int64_t kNoDeadline = INT64_MAX;
    /** Help execute work — queued jobs included, so nested
     * submit-and-wait cannot deadlock — until @p job completes or
     * nowNs() passes @p deadline_ns (the worker-side JobHandle::wait
     * passes kNoDeadline, waitUntil its instant). Returns whether
     * @p job is done. */
    bool helpJobUntil(const JobState &job, int64_t deadline_ns);
    /** Execute @p task, maintaining hint inheritance and accounting. */
    void executeTask(TaskBase *task);
    /** Close the open time-split segment at @p now_ns without changing
     * the bucket. Runtime::finishJob calls it with the finish stamp it
     * already read, so a job's time is in stats() by the time its
     * waiter wakes, at no extra clock read. */
    void
    flushTimeSplit(int64_t now_ns)
    {
        _time.add(_bucket, now_ns - _mark);
        _mark = now_ns;
    }
    /** Destroy @p task and route its frame home: local LIFO when this
     * worker owns it, the owner's remote-free stack when a thief
     * finished a stolen task, plain delete for heap frames. */
    void releaseTask(TaskBase *task);
    /**
     * One steal attempt per the NUMA-WS protocol (biased victim, coin
     * flip, mailbox outcomes, pushback). Returns a task to run or null.
     */
    TaskBase *trySteal();
    /**
     * Lazy work pushing: try to park @p task in a mailbox on its hinted
     * place. Returns true if the frame was handed off; false once the
     * pushing threshold is reached (caller must run it).
     */
    bool pushBack(TaskBase *task);
    /**
     * Spawn-time delivery (SchedPolicy::deliverHintedSpawns): deposit
     * the fresh child @p task, hinted for another place, in a mailbox
     * there when the core picks a receiver. Returns true if handed off;
     * false keeps the spawn work-first (caller pushes it on the own
     * deque).
     */
    bool deliverSpawn(TaskBase *task);
    /// @}

  private:
    TaskBase *acquireLocal();

    /** Epoch-cadence pressure sampling on the scheduling path: close
     * the epoch when due, publish to the PressureBoard, and (place
     * leader only) advance the InterferenceCore hysteresis. */
    void maybeSamplePressure();
    /** Retired verdict observed on the idle path: park until the
     * verdict clears or shutdown, maintaining the retire counters and
     * (leader) the epoch ticks that drive re-expansion probing. */
    void retirePark();

    /**
     * Linear-timeline time accounting: a worker's lifetime is a single
     * sequence of segments, each attributed to exactly one bucket; nested
     * helping merely switches buckets, so nothing is double counted.
     */
    void
    switchBucket(TimeSplit::Bucket b)
    {
        flushTimeSplit(nowNs());
        _bucket = b;
        ++_counters.timeSplitSwitches;
    }

    /** Work-first accounting: read the clock only when the bucket
     * really changes, so a spawn, a local pop, a task execution, or a
     * sync whose children all ran at home costs no clock read — their
     * overhead is Work, as Cilk's T1 counts it. */
    void
    ensureBucket(TimeSplit::Bucket b)
    {
        if (_bucket != b)
            switchBucket(b);
    }

    /** Refresh the data-home affinity mask from @p task (executeTask). */
    void noteAffinity(const TaskBase *task);

    /** The own deque just gained work: publish the bit and wake per
     * the core's WakeDirective (targeted edge wake under board
     * parking, global notify under the timer). pushTask's wake
     * protocol, kept out of line off the spawn path. */
    void publishOwnDequeAndNotify();

    Runtime &_runtime;
    int _id;
    Place _place;
    Place _currentHint = kAnyPlace;
    /** Job of the task being executed (see currentJob()); saved and
     * restored across nested executeTask like _currentHint. */
    JobState *_currentJob = nullptr;
    /** Cached _options.sched.serving.preempt: the boundary peek must
     * not chase the options pointer on every spawn. */
    bool _preemptEnabled = false;
    /** Cached _options.sched.boardParking() (pushTask's skip test). */
    bool _boardParking = false;
    /** Cached _options.sched.hierarchicalSteals: executeTask refreshes
     * the affinity mask only for informed steals. */
    bool _hierarchicalSteals = false;
    /** Published running-job class for preemption victim selection
     * (see runningCls()); written by executeTask, read by admitting
     * threads. Only maintained when _preemptEnabled. */
    std::atomic<int8_t> _runningCls{-1};
    WsDeque<TaskBase> _deque;
    Mailbox<TaskBase> _mailbox;
    /** NUMA-local frame recycler behind the allocation-free spawn
     * path; drained of thief-freed frames on the steal path. */
    TaskFramePool _framePool;
    /** NUMA-local user-data heap (the data-plane sibling of the frame
     * pool: numa::allocate's fast path); also drained of cross-thread
     * frees on the steal path. Slabs come from the Runtime's arena,
     * which outlives the workers by declaration order. */
    NumaHeap _dataHeap;
    /** Cache of the last deque-occupancy value *we* published. Only
     * this worker sets its own deque bit, so a false cache always
     * means the bit is clear and the publish is needed; a true cache
     * can be stale (a thief's dry-probe repair cleared the bit), in
     * which case skipping the re-publish leaves a bounded false-empty
     * — explicitly allowed by the board contract and repaired by the
     * unconditional publish in acquireLocal's next pop. Saves the
     * board read on every spawn of a busy worker. */
    bool _dequeBitPublished = false;
    /** Every scheduling decision (victim, coin flip, receivers,
     * escalation, park streaks/tuning) routes through here — the same
     * core the simulator drives, so the engines cannot diverge. */
    StealCore _core;
    /** @name Interference-adaptation state (ServingPolicy::interference)
     * The sensor and epoch cadence are owner-only; the flag is atomic
     * because the watchdog reads it from another thread (relaxed —
     * diagnosis, not synchronization). */
    /// @{
    PressureSensor _pressureSensor;
    /** Cached serving.interference == Adapt (work-first: the idle-path
     * checks must not chase the options pointer). */
    bool _interferenceEnabled = false;
    int64_t _pressureEpochNs = 0;
    /** Rank from the top of this worker's place range: 0 retires
     * first; the place leader (largest rank, lowest id) retires last
     * and is the one that ticks the InterferenceCore epoch. */
    int _retireRank = 0;
    int _placeWorkers = 1; ///< workers sharing this worker's place
    bool _placeLeader = false;
    std::atomic<bool> _retiredNow{false};
    /// @}
    /** @name Watchdog liveness state (RuntimeOptions::watchdogMs) */
    /// @{
    std::atomic<bool> _parkedNow{false};
    SingleWriterCounter<uint64_t> _progressStamp;
    /// @}
    /** Per-class serving latency of jobs that completed here; folded
     * into RuntimeStats::jobLatency* by stats(). */
    LatencyHist _jobHist[kNumJobClasses];
    LiveWorkerCounters _counters;
    LiveTimeSplit _time;
    TimeSplit::Bucket _bucket = TimeSplit::Idle;
    int64_t _mark = 0;
};

/**
 * The platform: owns workers and exposes the submission front door.
 */
class Runtime
{
  public:
    explicit Runtime(RuntimeOptions options = {});

    /** Drains every submitted job, then stops and joins the workers. */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Submit @p fn as an independent job: an admission-queue entry that
     * becomes the root of its own parallel computation when an idle
     * worker claims it. Returns immediately with a joinable handle
     * carrying the job's latency decomposition. Callable from any
     * thread, workers included (nested submission); jobs from many
     * threads serve concurrently.
     */
    template <typename F>
    JobHandle submit(F &&fn, JobOptions opts = {});

    /**
     * Batch mode: execute @p fn as the root of a parallel computation
     * and wait for it (and everything it spawned) to finish. Exactly
     * submit(fn).wait() — the serving path with a synchronous join.
     * Callable from a non-worker thread only; runs may be issued
     * repeatedly.
     */
    template <typename F>
    void run(F &&fn);

    int numWorkers() const { return static_cast<int>(_workers.size()); }
    int numPlaces() const { return _options.numPlaces; }
    const RuntimeOptions &options() const { return _options; }
    const StealDistribution &stealDistribution() const { return _dist; }
    const Machine &machine() const { return _machine; }
    OccupancyBoard &board() { return _board; }
    const OccupancyBoard &board() const { return _board; }
    ParkingLot &parkingLot() { return _parking; }
    /** The runtime-owned data-plane arena (slabs, big objects,
     * partitioned buffers); registers every block in dataPageMap(). */
    NumaArena &arena() { return _arena; }
    /** Page-home registry fed by the data plane's own allocations. */
    PageMap &dataPageMap() { return _pageMap; }
    const PageMap &dataPageMap() const { return _pageMap; }
    /**
     * The registry affinity resolution consults: the user-supplied
     * RuntimeOptions::pageMap when present (layout experiments register
     * their own ranges), else the runtime's own data-plane map — so
     * PartedVec homes feed the steal-path affinity mask and spawn-time
     * hints with zero configuration.
     */
    const PageMap *
    affinityPageMap() const
    {
        return _options.pageMap != nullptr ? _options.pageMap : &_pageMap;
    }

    /** Workers on place @p p: [first, last). */
    std::pair<int, int> workersOfPlace(int p) const;

    /** Aggregate statistics since construction or the last resetStats(). */
    RuntimeStats stats() const;
    void resetStats();

    /** Jobs ever submitted (ids are 1-based submission order). */
    uint64_t
    jobsSubmitted() const
    {
        return _jobsSubmitted.load(std::memory_order_relaxed);
    }

    /** @name Runtime-internal */
    /// @{
    Worker &worker(int id) { return *_workers[id]; }
    bool shuttingDown() const
    {
        return _shutdown.load(std::memory_order_acquire);
    }
    /** Any job admitted, queued, or running: thieves keep probing while
     * true. Covers queued-but-unclaimed jobs (counted from submit). */
    bool workActive() const
    {
        return _activeJobs.load(std::memory_order_acquire) > 0;
    }
    /** A job root sits in the admission queue unclaimed. The queue is
     * not on the occupancy board, so park predicates must check it
     * separately or a whole pool can sleep through an admission for a
     * full fallback period. */
    bool jobPending() const { return !_jobQueue.empty(); }
    /** Claim the oldest queued job root (any worker; the idle path
     * between a failed local acquire and a steal probe). The overload
     * gate: feeds each claim's queue delay to the ShedCore estimator
     * and resolves cancelled / past-deadline entries without running
     * them, returning the first live root (or null). */
    TaskBase *takeJob();
    /**
     * takeJob restricted to jobs whose *effective* class (nominal
     * class promoted by priority aging, ShedCore::effectiveClass)
     * is strictly better than @p below_cls: the preemption claim —
     * a yielding worker must only suspend its job for strictly
     * higher-priority work. takeJob() is takeJobAbove(kNumJobClasses),
     * so idle claims rank lanes by effective class too (that ordering
     * *is* priority aging; with agingWaitUs off it degenerates to the
     * strict nominal order).
     */
    TaskBase *takeJobAbove(int below_cls);
    /** Admission edge of class @p cls: if preemption is on and every
     * worker is busy with lower-class work, raise the yield directive
     * on the chosen victim (StealCore::pickPreemptVictim). */
    void maybePreempt(int cls);
    /** The overload-decision brain shared with the simulator
     * (tests/diagnostics). */
    const ShedCore &shedCore() const { return _shed; }
    /** Per-socket co-runner pressure EWMAs, published by worker epoch
     * samples (support/pressure.h). */
    PressureBoard &pressureBoard() { return _pressure; }
    const PressureBoard &pressureBoard() const { return _pressure; }
    /** The interference-adaptation brain shared with the simulator. */
    InterferenceCore &interferenceCore() { return _interference; }
    const InterferenceCore &interferenceCore() const
    {
        return _interference;
    }
    /** Workers currently retired by the InterferenceCore across all
     * sockets (gauge; 0 whenever adaptation is off or pressure calm). */
    int
    retiredWorkers() const
    {
        int n = 0;
        for (int s = 0; s < _interference.sockets(); ++s)
            n += _interference.retiredTarget(s);
        return n;
    }
    /** Watchdog stall dumps emitted so far (tests read this instead of
     * parsing stderr). */
    uint64_t
    watchdogDumps() const
    {
        return _watchdogDumps.load(std::memory_order_relaxed);
    }
    /**
     * Park the calling worker (of @p socket) until work might exist,
     * for at most @p timeout_us microseconds (the caller's StealCore
     * supplies the tuned bound). Timer policy: bounded global wait.
     * Board policy: per-socket ParkingLot slot with the bounded
     * fallback timeout.
     * @return true when the wait ended by a notification or a
     *         work/shutdown predicate, false on a plain timeout.
     */
    bool idleWait(int socket, int timeout_us);
    /** Wake every parked worker (shutdown — an event every socket must
     * see). */
    void notifyWork();
    /** Targeted wake: @p socket's board words went 0 -> nonzero. Under
     * timer parking this degrades to notifyWork() (one global cv). */
    void notifyWorkOn(int socket);
    /** A job landed in the queue: the admission edge of the elastic
     * pool. Wakes the hinted place's parked workers, or round-robins
     * across sockets for unhinted jobs. */
    void notifyAdmission(Place place);
    /** Timestamp + histogram + completion signalling for a job whose
     * root ran to completion on the calling worker. @p outcome is
     * Done, Failed, Cancelled, or Expired (the latter two when the
     * body unwound cooperatively); only Done/Failed land in the
     * latency histograms. */
    void finishJob(JobState &state, JobOutcome outcome);
    /// @}

  private:
    static Machine machineForPlaces(int places, int workers);

    /** Deposit an admitted job on the queue, apply QueueDelay shedding
     * (one victim per admission while overloaded), and fire the
     * admission wake. */
    void enqueueJob(TaskBase *root, std::shared_ptr<JobState> state);
    /** Resolve a job that will never run (claim-time skip, shed
     * victim, submit rejection, teardown cancel): publish @p outcome
     * and done, bump the per-class tally, and — when @p was_active —
     * retire its _activeJobs slot. Never touches the latency
     * histograms. */
    void resolveUnrun(JobState &state, JobOutcome outcome,
                      bool was_active);
    /** ShutdownPolicy::CancelQueued teardown sweep: drain the queue,
     * resolving every entry Cancelled and deleting its root. */
    void cancelQueuedJobs();
    /** Watchdog monitor body (its own thread; see watchdogMs). */
    void watchdogLoop();
    /** One stalled-window report: a line per worker to stderr. */
    void dumpWorkerStates();

    RuntimeOptions _options;
    Machine _machine;
    StealDistribution _dist;
    OccupancyBoard _board;
    ParkingLot _parking;
    /** Data-plane page registry and arena. Declared before _workers on
     * purpose: worker NumaHeaps return their slabs to _arena from their
     * destructors, so the arena (and its map) must destruct after the
     * worker array. */
    PageMap _pageMap;
    NumaArena _arena;
    std::vector<std::unique_ptr<Worker>> _workers;
    std::vector<std::thread> _threads;

    std::atomic<bool> _shutdown{false};
    /** Jobs submitted but not yet finished (queued + running). */
    std::atomic<int64_t> _activeJobs{0};
    std::atomic<uint64_t> _jobsSubmitted{0};
    /** Round-robin cursor for unhinted admission wakes. */
    std::atomic<uint32_t> _admitCursor{0};
    /** Jobs claimed at an aged effective class (priority aging
     * telemetry); folded into WorkerCounters::agedClaims by stats(). */
    std::atomic<uint64_t> _agedClaims{0};
    JobQueue _jobQueue;
    /** Admission-control / shedding decisions (sched/shed_core.h);
     * construction-initialized from _options.sched.serving. */
    ShedCore _shed;
    /** Per-socket co-runner pressure EWMAs (support/pressure.h). */
    PressureBoard _pressure;
    /** Interference-adaptation decisions (sched/interference_core.h);
     * construction-initialized like _shed. */
    InterferenceCore _interference;
    /** Per-class job-resolution tallies; atomic because rejections
     * resolve on submitter threads and sheds on claiming workers
     * concurrently. Folded into RuntimeStats::jobOutcomes. */
    struct AtomicOutcomeCounts
    {
        std::atomic<uint64_t> done{0};
        std::atomic<uint64_t> failed{0};
        std::atomic<uint64_t> cancelled{0};
        std::atomic<uint64_t> expired{0};
        std::atomic<uint64_t> rejected{0};
        std::atomic<uint64_t> shed{0};
    };
    AtomicOutcomeCounts _outcomes[kNumJobClasses];

    std::mutex _parkMutex;
    std::condition_variable _parkCv;
    /** Signalled when _activeJobs drains to zero (destructor barrier). */
    std::mutex _quiesceMutex;
    std::condition_variable _quiesceCv;

    /** @name Stall watchdog (RuntimeOptions::watchdogMs) */
    /// @{
    /** Jobs resolved (run or not) — the watchdog's job-level liveness
     * signal, paired with the workers' progressStamp task signal. */
    std::atomic<uint64_t> _jobsFinished{0};
    std::atomic<uint64_t> _watchdogDumps{0};
    std::atomic<bool> _watchdogStop{false};
    std::mutex _watchdogMutex;
    std::condition_variable _watchdogCv;
    std::thread _watchdog;
    /// @}
};

// ---------------------------------------------------------------------
// Inline template implementations
// ---------------------------------------------------------------------

template <typename F>
void
TaskGroup::spawn(F &&fn, Place place)
{
    spawn(std::forward<F>(fn), place, /*data=*/nullptr, /*data_bytes=*/0);
}

template <typename F>
void
TaskGroup::spawn(F &&fn, Place place, const void *data,
                 std::size_t data_bytes)
{
    Worker *w = Worker::current();
    NUMAWS_ASSERT(w != nullptr); // spawn only from inside run()
    // Cooperative cancellation boundary: a cancelled or past-deadline
    // job stops growing its tree here, and the JobCancelled unwind
    // rides the normal exception plumbing (recordException + sync
    // rethrow) up to the job root without preempting anything.
    if (JobState *job = w->currentJob();
        job != nullptr && jobInterrupted(*job))
        throw JobCancelled{};
    if (place == kInheritPlace)
        place = w->currentHint();
    // A data annotation resolves to its home sockets once, here: the
    // mask rides on the task for the steal path's affinity weighting,
    // and an unplaced task lands on the range's home-socket deque, so
    // PartedVec::forEachShard spawns get their affinity without callers
    // naming places. Only *registered* ranges produce a hint;
    // plain-heap data keeps kAnyPlace. A spawn without an annotation
    // pays two compares for all of this (work-first).
    uint32_t data_homes = 0;
    if (data != nullptr && data_bytes > 0) {
        data_homes = w->dataHomeMask(data, data_bytes);
        if (!isConcretePlace(place))
            place = w->placeForDataHomes(data_homes);
    }
    using Fn = std::decay_t<F>;
    using Impl = TaskImpl<Fn>;
    // Allocation-free fast path: placement-new into a recycled frame
    // from this worker's NUMA-local pool (work-first: the frame's
    // eventual cross-socket journey home, if a thief runs it, is paid
    // on the steal path). Oversized or over-aligned closures, and the
    // TaskPoolPolicy::Heap ablation, fall back to the global heap.
    Impl *task = nullptr;
    if constexpr (alignof(Impl) <= TaskFramePool::kFrameAlign) {
        if (void *frame = w->framePool().allocate(sizeof(Impl))) {
            if constexpr (std::is_nothrow_constructible_v<
                              Impl, TaskGroup *, Place, Fn &&>) {
                task = new (frame) Impl(this, place,
                                        std::forward<F>(fn));
            } else {
                // Mirror the new-expression guarantee: a throwing
                // closure move must hand the frame back, not strand
                // it live in the slab.
                try {
                    task = new (frame) Impl(this, place,
                                            std::forward<F>(fn));
                } catch (...) {
                    w->framePool().freeLocal(
                        TaskFramePool::headerOf(frame));
                    throw;
                }
            }
            task->setPoolOwner(w->id());
        }
    }
    if (task == nullptr)
        task = new Impl(this, place, std::forward<F>(fn));
    if (data_homes != 0)
        task->setDataHomes(data_homes);
    // Children compute for the same job as their spawner (null outside
    // any job), so stolen subtasks observe cancellation too.
    task->setJob(w->currentJob());
    // Steal-only join counter: the first spawn claims the group for this
    // worker, before the push publishes the child to thieves; any later
    // spawn from another worker breaks the ownership rule (see the class
    // comment) and stops here.
    if (_owner != w) {
        NUMAWS_ASSERT(_owner == nullptr);
        _owner = w;
    }
    ++_outstanding;
    ++w->counters().spawns;
    // A child hinted for another place may go straight to a mailbox
    // there (its finisher is then remote: the _remoteDone path); every
    // other spawn is work-first. An unhinted spawn pays the
    // isConcretePlace compare alone.
    if (!(w->core().deliversSpawnTo(place) && w->deliverSpawn(task)))
        w->pushTask(task);
    // Preemption boundary: the child just pushed is this job's
    // checkpointed continuation — it sits on the deque (or in a
    // mailbox) where thieves can claim it — so if a higher-class job is
    // waiting, run it inline now and resume the spawner afterwards. One
    // cached bool when preemption is off (work-first).
    if (w->yieldPending())
        w->serviceYield();
}

template <typename F>
JobHandle
Runtime::submit(F &&fn, JobOptions opts)
{
    auto state = std::make_shared<JobState>();
    state->opts = opts;
    state->id = _jobsSubmitted.fetch_add(1, std::memory_order_relaxed) + 1;
    state->submitNs = nowNs();
    if (opts.deadlineNs > 0)
        state->deadlineAtNs = state->submitNs + opts.deadlineNs;
    // Admission control (ShedPolicy::Reject / the QueueDelay capacity
    // backstop): an over-capacity lane turns this submit into an
    // immediately-Rejected handle — never counted active, never queued.
    const int cls = static_cast<int>(opts.cls);
    if (!_shed.admit(cls, _jobQueue.laneDepth(cls))) {
        resolveUnrun(*state, JobOutcome::Rejected, /*was_active=*/false);
        return JobHandle(std::move(state));
    }
    // Active from admission: workActive() must cover queued jobs so
    // thieves keep probing and park predicates stay honest.
    _activeJobs.fetch_add(1, std::memory_order_release);
    // The root runs with no group of its own; completion is signalled
    // via finishJob after fn returns (all nested groups are synced by
    // then). A JobCancelled unwind is the *cooperative cancellation*
    // exit — classified by cause, not recorded as a failure; real
    // exceptions park in the shared state for wait() to rethrow.
    auto body = [this, state, f = std::forward<F>(fn)]() mutable {
        state->started.store(true, std::memory_order_relaxed);
        state->startNs.store(nowNs(), std::memory_order_relaxed);
        JobOutcome outcome = JobOutcome::Done;
        try {
            f();
        } catch (const JobCancelled &) {
            outcome = state->cancelRequested.load(
                          std::memory_order_relaxed)
                          ? JobOutcome::Cancelled
                          : JobOutcome::Expired;
        } catch (...) {
            state->exception = std::current_exception();
            outcome = JobOutcome::Failed;
        }
        finishJob(*state, outcome);
    };
    // Job root frames stay on the heap (poolOwner -1): they may be
    // built on a non-worker thread and claimed by any worker.
    auto *root = new TaskImpl<decltype(body)>(nullptr, opts.place,
                                              std::move(body));
    root->setJob(state.get());
    enqueueJob(root, state);
    return JobHandle(std::move(state));
}

template <typename F>
void
Runtime::run(F &&fn)
{
    NUMAWS_ASSERT(Worker::current() == nullptr);
    submit(std::forward<F>(fn)).wait();
}

} // namespace numaws

#endif // NUMAWS_RUNTIME_RUNTIME_H

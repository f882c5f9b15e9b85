#include "runtime/runtime.h"

#include "mem/page_map.h"
#include "support/panic.h"
#include "topology/affinity.h"

#include <chrono>
#include <thread>

namespace numaws {

template <typename Count>
template <typename O>
void
BasicWorkerCounters<Count>::merge(const BasicWorkerCounters<O> &o)
{
    spawns += o.spawns;
    stealAttempts += o.stealAttempts;
    steals += o.steals;
    mailboxTakes += o.mailboxTakes;
    pushbackAttempts += o.pushbackAttempts;
    pushbackSuccesses += o.pushbackSuccesses;
    pushbackGiveUps += o.pushbackGiveUps;
    spawnDeliveries += o.spawnDeliveries;
    tasksExecuted += o.tasksExecuted;
    tasksOnHintedPlace += o.tasksOnHintedPlace;
    stealHalfTasks += o.stealHalfTasks;
    escalations += o.escalations;
    levelSkips += o.levelSkips;
    dryPolls += o.dryPolls;
    yields += o.yields;
    agedClaims += o.agedClaims;
    framesRecycled += o.framesRecycled;
    remoteFrees += o.remoteFrees;
    slabBytes += o.slabBytes;
    slabFallbacks += o.slabFallbacks;
    dataBytesPooled += o.dataBytesPooled;
    dataRemoteFrees += o.dataRemoteFrees;
    dataSlabBytes += o.dataSlabBytes;
    dataSlabFallbacks += o.dataSlabFallbacks;
    parks += o.parks;
    parkWakes += o.parkWakes;
    parkTimeouts += o.parkTimeouts;
    spuriousWakes += o.spuriousWakes;
    parkedNs += o.parkedNs;
    interferenceRetires += o.interferenceRetires;
    interferenceReinstates += o.interferenceReinstates;
    jobsCompleted += o.jobsCompleted;
    timeSplitSwitches += o.timeSplitSwitches;
}

template void WorkerCounters::merge(const WorkerCounters &);
template void WorkerCounters::merge(const LiveWorkerCounters &);

Worker::Worker(Runtime &runtime, int id, int place, uint64_t seed,
               std::size_t deque_capacity)
    : _runtime(runtime),
      _id(id),
      _place(place),
      _deque(deque_capacity),
      _framePool(id,
                 runtime.options().taskPool == TaskPoolPolicy::Pooled),
      _dataHeap(id, place,
                runtime.options().dataHeap == DataHeapPolicy::Pooled
                    ? &runtime.arena()
                    : nullptr),
      _core(runtime.options().sched,
            EngineView{&runtime.stealDistribution(), &runtime.board()},
            id, place, seed),
      _mark(nowNs())
{
    // Mailbox occupancy reaches the board from inside tryPut/tryTake, so
    // pushers and thieves publish transitions without extra call sites;
    // under board parking the deposit edge also wakes this worker's
    // parked socket from the same spot.
    const SchedPolicy &pol = runtime.options().sched;
    _mailbox.attachBoard(&runtime.board(), id);
    if (pol.boardParking())
        _mailbox.attachParking(&runtime.parkingLot(), place);
    // Cached so the spawn-boundary yield peek costs one bool when
    // preemption is off (the work-first price of the whole feature).
    _preemptEnabled = pol.serving.preempt;
    _boardParking = pol.boardParking();
    _hierarchicalSteals = pol.hierarchicalSteals;
    // Interference adaptation: retire order is from the top of the
    // place's worker range downward, so the place leader (lowest id,
    // largest rank-from-top) retires last and keeps ticking the
    // socket's pressure epoch for re-expansion probing.
    _interferenceEnabled =
        pol.serving.interference == InterferencePolicy::Adapt;
    _pressureEpochNs =
        static_cast<int64_t>(pol.serving.pressureEpochUs) * 1000;
    const auto [first, last] = runtime.workersOfPlace(place);
    _placeWorkers = last - first;
    _retireRank = (last - 1) - id;
    _placeLeader = id == first;
}

void
Worker::publishOwnDequeAndNotify()
{
    // Edge-triggered publish, with the board read itself hoisted off
    // the spawn fast path: when our cached published-bit already says
    // nonempty, the publish could neither flip the bit nor produce a
    // socket edge, so skip the call outright — a spawn burst pays for
    // the board exactly once. The cache can only be stale in the
    // harmless direction (a thief's dry-probe repair cleared the bit
    // behind us), which leaves a bounded false-empty the board
    // contract allows and acquireLocal's unconditional publish on the
    // next pop repairs. The core turns the edge verdict into a wake
    // directive: under board parking only a 0 -> nonzero socket edge
    // can find sleepers worth waking.
    bool socket_edge = false;
    if (!_dequeBitPublished) {
        socket_edge = _runtime.board().publishDeque(_id, true);
        _dequeBitPublished = true;
    }
    switch (_core.onPublishEdge(socket_edge)) {
      case WakeDirective::TargetedSocket:
        _runtime.notifyWorkOn(_place);
        break;
      case WakeDirective::Global:
        _runtime.notifyWork();
        break;
      case WakeDirective::None:
        break;
    }
}

TaskBase *
Worker::acquireLocal()
{
    // Work path first: the tail of the own deque...
    if (TaskBase *t = _deque.popTail()) {
        // Publish the *actual* state, not just the pop-to-empty edge: a
        // thief's dry-probe repair can race a push and wrongly clear the
        // bit, and a worker draining a deep deque would otherwise never
        // re-assert it. Edge-triggered publish makes the common
        // (unchanged) case one relaxed load. This is also the repair
        // point for the spawn path's published-bit cache, so it stays
        // an unconditional call.
        const bool nonempty = !_deque.empty();
        _runtime.board().publishDeque(_id, nonempty);
        _dequeBitPublished = nonempty;
        return t;
    }
    _runtime.board().publishDeque(_id, false);
    _dequeBitPublished = false;
    // ...then POPMAILBOX: a frame some worker parked here for this place.
    if (TaskBase *t = _mailbox.tryTake()) {
        ++_counters.mailboxTakes;
        return t;
    }
    return nullptr;
}

TaskBase *
Worker::trySteal()
{
    // Reclaim frames (and data blocks) other threads freed into our
    // pools — on the steal path, where the work-first principle wants
    // the cost, never the spawn/allocation path. The nothing-pending
    // case is one relaxed load each.
    _framePool.drainRemote();
    _dataHeap.drainRemote();
    if (_runtime.numWorkers() <= 1)
        return nullptr;
    // All decisions — dry-poll cadence, victim, mailbox-vs-deque
    // inspection order — come from the core; the runtime only
    // executes them against the real deques and mailboxes.
    const StealAction action = _core.nextAction();
    if (action.kind == StealAction::Kind::DryPoll)
        return nullptr;
    Worker &victim = _runtime.worker(action.victim);

    TaskBase *task = nullptr;
    bool from_mailbox = false;
    if (action.checkMailboxFirst) {
        task = victim.mailbox().tryTake();
        from_mailbox = task != nullptr;
        // Outcome 1 (mailbox empty): fall through to the deque.
    }
    if (task == nullptr) {
        task = victim.deque().stealHead();
        // The probe already paid for the cache traffic: repair the
        // victim's staleness (a 1-bit over an empty deque) for free.
        if (victim.deque().empty())
            _runtime.board().publishDeque(action.victim, false);
    }
    _core.onStealResult(action, task != nullptr);
    if (task == nullptr)
        return nullptr;

    // Successful steal: everything past this point is scheduler
    // bookkeeping, charged to scheduling time (the span term). The
    // probe itself goes to the open bucket: Idle after a dry spell,
    // Work when the local miss that led here read no clock.
    switchBucket(TimeSplit::Scheduling);
    if (from_mailbox)
        ++_counters.mailboxTakes;
    else
        ++_counters.steals;
    // Promotion analogue: the task has now migrated off its spawner.
    task->markStolen();

    // Lazy work pushing happens only here, on the steal path — a frame
    // acquired from the own deque never pays this check beyond a compare.
    if (isConcretePlace(task->place()) && task->place() != _place) {
        if (pushBack(task)) {
            switchBucket(TimeSplit::Idle);
            return nullptr; // handed off; keep looking for other work
        }
        // Pushing threshold reached: honor load balance over locality.
    }
    return task;
}

bool
Worker::pushBack(TaskBase *task)
{
    if (!_runtime.options().sched.useMailboxes)
        return false;
    const Place target = task->place();
    NUMAWS_ASSERT(isConcretePlace(target));
    const auto [first, last] = _runtime.workersOfPlace(target);
    if (first >= last)
        return false;
    // The frame's count of rejected deposits only grows, so the
    // constant cap bounds the loop; at the cap the frame takes the
    // give-up path, where load balance wins over locality. A deposit
    // that lands is not counted, so a frame may be relayed again.
    const auto threshold =
        static_cast<uint32_t>(_core.policy().pushThreshold);
    while (task->pushCount() < threshold) {
        ++_counters.pushbackAttempts;
        const int receiver =
            _core.pickPushReceiver(first, last, /*self=*/-1, target);
        if (_runtime.worker(receiver).mailbox().tryPut(task)) {
            ++_counters.pushbackSuccesses;
            // Under board parking, tryPut already woke the receiver's
            // socket on the deposit's occupancy edge
            // (Mailbox::attachParking); the timer protocol notifies
            // globally.
            if (_core.onPublishEdge(false) == WakeDirective::Global)
                _runtime.notifyWork();
            return true;
        }
        task->incPushCount();
    }
    ++_counters.pushbackGiveUps;
    return false;
}

bool
Worker::deliverSpawn(TaskBase *task)
{
    const Place target = task->place();
    if (target >= _runtime.numPlaces())
        return false; // hint beyond this runtime: ignore
    const auto [first, last] = _runtime.workersOfPlace(target);
    const int receiver =
        _core.pickSpawnReceiver(first, last, target, [this](int w) {
            return _runtime.worker(w).parkedNow();
        });
    // A lagging board makes tryPut reject: the spawn stays local, and
    // the child's PUSHBACK budget is untouched either way.
    if (receiver < 0 || !_runtime.worker(receiver).mailbox().tryPut(task))
        return false;
    ++_counters.spawnDeliveries;
    // Wake protocol as in pushBack: tryPut woke the receiver's socket
    // on its occupancy edge under board parking.
    if (_core.onPublishEdge(false) == WakeDirective::Global)
        _runtime.notifyWork();
    return true;
}

void
Worker::noteAffinity(const TaskBase *task)
{
    // Data-home affinity for informed steals: the mask the spawn
    // resolved from the task's annotated range (PartedVec shards count
    // through the runtime's own data-plane map). Tasks without an
    // annotation, or annotated with *unregistered* data (plain-heap
    // buffers), fall back to their place hint.
    uint32_t mask = task->dataHomes();
    if (mask == 0 && isConcretePlace(task->place())
        && task->place() < 32)
        mask = 1u << task->place();
    _core.setAffinity(mask);
}

uint32_t
Worker::dataHomeMask(const void *data, std::size_t bytes) const
{
    // First and last page are enough: registrations are contiguous per
    // policy.
    const PageMap *pm = _runtime.affinityPageMap();
    const auto addr = reinterpret_cast<uint64_t>(data);
    uint32_t mask = 0;
    const int first = pm->registeredHomeOf(addr);
    const int last = pm->registeredHomeOf(addr + bytes - 1);
    if (first >= 0 && first < 32)
        mask |= 1u << first;
    if (last >= 0 && last < 32)
        mask |= 1u << last;
    return mask;
}

Place
Worker::placeForDataHomes(uint32_t mask) const
{
    const Place p = StealCore::placeFromAffinity(mask);
    if (!isConcretePlace(p) || p >= _runtime.numPlaces())
        return kAnyPlace;
    // Placement-hint steering: while the data's home socket is under
    // co-runner pressure, hint a calm socket instead — losing locality
    // for the spawn beats queueing it behind a squeezed worker set.
    // Identity when adaptation is off or the socket is calm.
    if (_interferenceEnabled)
        return _runtime.interferenceCore().steerSocket(p);
    return p;
}

void
Worker::executeTask(TaskBase *task)
{
    // Work-first accounting: a task acquired on the work path (local
    // pop, or nested inside a sync) finds the bucket already Work and
    // reads no clock; only a task found after a miss (steal, mailbox,
    // job claim) closes the Idle/Scheduling segment. Nothing on exit —
    // the bucket stays Work until the worker really runs dry.
    ensureBucket(TimeSplit::Work);
    const Place prev_hint = _currentHint;
    _currentHint = task->place();
    // Job context switches with the task (saved/restored like the hint):
    // stolen subtasks carry their job on the frame, so every worker's
    // spawn/sync boundaries see the right cancellation state, and
    // nested helping restores the helper's own job afterwards.
    JobState *const prev_job = _currentJob;
    _currentJob = task->job();
    // Publish the running class for preemption victim selection (the
    // nested restore below re-publishes the preempted job's class when
    // an inline higher-class job finishes).
    if (_preemptEnabled)
        _runningCls.store(
            _currentJob != nullptr
                ? static_cast<int8_t>(_currentJob->opts.cls)
                : static_cast<int8_t>(-1),
            std::memory_order_relaxed);
    ++_counters.tasksExecuted;
    if (_hierarchicalSteals)
        noteAffinity(task);
    if (isConcretePlace(task->place()) && task->place() == _place)
        ++_counters.tasksOnHintedPlace;

    try {
        task->run(*this);
    } catch (...) {
        if (task->group() != nullptr)
            task->group()->recordException(std::current_exception());
        else
            throw; // job-root exceptions are captured by Runtime::submit
    }

    _currentHint = prev_hint;
    _currentJob = prev_job;
    if (_preemptEnabled)
        _runningCls.store(
            prev_job != nullptr
                ? static_cast<int8_t>(prev_job->opts.cls)
                : static_cast<int8_t>(-1),
            std::memory_order_relaxed);
    // Release the frame before signalling the parent: once onChildDone
    // lets the sync (or the whole run) complete, nothing may still hold
    // a pool frame. The release sits on both the normal and the
    // exception path above, so a thrown task body recycles its frame.
    TaskGroup *const group = task->group();
    releaseTask(task);
    if (group != nullptr)
        group->onChildDone(this);
    // Liveness signal for the stall watchdog, one per completed task
    // body (single writer: a load plus a store, no locked RMW).
    ++_progressStamp;
}

void
Worker::serviceYield()
{
    // Consume the directive exactly once (another boundary — or another
    // admission's re-raise — may race us; the exchange arbitrates).
    if (!_core.takeYieldRequest())
        return;
    // Only a job of *strictly higher* effective class may interrupt:
    // claiming our own class would add latency for nothing, and a
    // stray directive on an idle-ish worker (no current job) just
    // claims like the idle path does.
    const int below = _runningCls.load(std::memory_order_relaxed);
    TaskBase *t =
        _runtime.takeJobAbove(below >= 0 ? below : kNumJobClasses);
    if (t == nullptr)
        return; // the job was claimed, cancelled, or shed meanwhile
    _core.noteYieldServiced();
    // Run the higher-class job nested, right here: executeTask saves
    // and restores this worker's job context, and the preempted job's
    // just-pushed child stays on our deque — stealable by anyone —
    // which is exactly its checkpointed continuation. When the nested
    // job returns, control falls back into the preempted task body.
    executeTask(t);
}

void
Worker::releaseTask(TaskBase *task)
{
    const int owner = task->poolOwner();
    if (owner < 0) {
        delete task; // heap frame: oversized, Heap policy, or the root
        return;
    }
    TaskFrameHeader *frame = TaskFramePool::headerOf(task);
    task->~TaskBase();
    if (owner == _id) {
        _framePool.freeLocal(frame);
        return;
    }
    // Thief-side free of a stolen task: push the frame back to its
    // owning worker's pool instead of a cross-socket trip through the
    // global allocator; the owner relinks it on its own steal path.
    _runtime.worker(owner).framePool().freeRemote(frame);
}

void
Worker::helpSync(TaskGroup &group)
{
    // We are inside a task body (bucket == Work). Children popped from
    // our own deque are still the work path — no clock read. A stolen
    // child makes the wait idle time, but only once the steal path has
    // come up empty too: a successful steal switches straight from the
    // open bucket to Scheduling, so the miss itself reads no clock.
    while (group.pending() > 0) {
        TaskBase *t = acquireLocal();
        if (t == nullptr && _runtime.workActive())
            t = trySteal();
        if (t != nullptr) {
            executeTask(t);
        } else {
            ensureBucket(TimeSplit::Idle);
            for (int i = 0; i < 32 && group.pending() > 0; ++i)
                cpuRelax();
        }
    }
    // Control returns to the syncing task's body.
    ensureBucket(TimeSplit::Work);
}

bool
Worker::helpJobUntil(const JobState &job, int64_t deadline_ns)
{
    // Like helpSync, but for a job join — and unlike a sync, the wait
    // *claims queued jobs too*: the joined job may still be sitting in
    // the admission queue behind us, and on a single-worker runtime no
    // one else could ever claim it (nested submit-and-wait). A real
    // deadline (the worker-side waitUntil) stops the help once the
    // instant passes even if the job is unresolved; it is checked
    // between task executions only — a long task body overshoots, same
    // as any cooperative scheme here. kNoDeadline (the worker-side
    // wait) skips the clock read entirely: work-first.
    while (!job.done.load(std::memory_order_acquire)
           && (deadline_ns == kNoDeadline || nowNs() < deadline_ns)) {
        TaskBase *t = acquireLocal();
        if (t == nullptr)
            t = _runtime.takeJob();
        if (t == nullptr && _runtime.workActive())
            t = trySteal();
        if (t != nullptr) {
            executeTask(t);
        } else {
            ensureBucket(TimeSplit::Idle);
            for (int i = 0;
                 i < 32 && !job.done.load(std::memory_order_acquire);
                 ++i)
                cpuRelax();
        }
    }
    ensureBucket(TimeSplit::Work);
    return job.done.load(std::memory_order_acquire);
}

void
Worker::maybeSamplePressure()
{
    // Epoch-gated: the loop-top call costs one clock read until the
    // epoch elapses. Every worker publishes its own sample into the
    // socket EWMA; only the place leader advances the hysteresis
    // ladder, so the core sees exactly one verdict per socket epoch.
    if (_pressureSensor.epochElapsedNs() < _pressureEpochNs)
        return;
    const int pm = _pressureSensor.sample();
    _runtime.pressureBoard().publish(_place, pm);
    if (_placeLeader)
        _runtime.interferenceCore().epochTick(
            _place, _runtime.pressureBoard().pressure(_place),
            _placeWorkers);
}

void
Worker::retirePark()
{
    // Count the retire on the not-retired -> retired edge only (the
    // loop re-enters here every epoch while the verdict holds).
    if (!_retiredNow.load(std::memory_order_relaxed)) {
        _retiredNow.store(true, std::memory_order_relaxed);
        ++_counters.interferenceRetires;
    }
    // Park for one pressure epoch directly on the lot with a
    // shutdown-only predicate: Runtime::idleWait's work predicates
    // would return immediately while jobs are pending — exactly the
    // state a retirement is shedding — and busy-spin this thread.
    const auto epoch = std::chrono::microseconds(
        _runtime.options().sched.serving.pressureEpochUs);
    const int64_t park_start = nowNs();
    _parkedNow.store(true, std::memory_order_relaxed);
    if (_runtime.parkingLot().enabled())
        _runtime.parkingLot().park(_place, epoch, [this] {
            return _runtime.shuttingDown();
        });
    else
        std::this_thread::sleep_for(epoch);
    _parkedNow.store(false, std::memory_order_relaxed);
    const int64_t parked = nowNs() - park_start;
    _counters.parkedNs += static_cast<uint64_t>(parked);
    _pressureSensor.notePark(parked);
    // A fully retired socket still needs its epochs ticked or it could
    // never re-expand: the retired leader samples from here. Parked
    // time is excluded from the epoch's wall base, so these samples
    // read (near) zero pressure and decay the EWMA toward the expand
    // threshold — the expand streak becomes the probe duty cycle.
    if (_placeLeader)
        maybeSamplePressure();
}

void
Worker::mainLoop()
{
    detail::tlsWorker = this;
    // Data-plane thread binding: numa::allocate on this thread routes
    // through our NUMA-local heap (fast path) and the runtime's arena.
    numa::bindThread(numa::ThreadBinding{
        &_dataHeap, &_runtime.arena(), _place,
        _runtime.options().dataHeap == DataHeapPolicy::Pooled});
    if (_runtime.options().pinThreads)
        pinCurrentThread(_id);
    _mark = nowNs();
    _bucket = TimeSplit::Idle;
    if (_interferenceEnabled)
        _pressureSensor.begin();

    while (!_runtime.shuttingDown()) {
        if (_interferenceEnabled) {
            // Retirement check sits at the loop top, before job claims
            // and steals: a retired worker must stop contending for
            // *new* work, but drains its own deque first so no spawned
            // task is stranded behind the park.
            if (_runtime.interferenceCore().workerRetired(_place,
                                                          _retireRank)) {
                if (TaskBase *t = acquireLocal()) {
                    _core.noteProgress();
                    executeTask(t);
                    continue;
                }
                ensureBucket(TimeSplit::Idle);
                retirePark();
                continue;
            }
            if (_retiredNow.load(std::memory_order_relaxed)) {
                // Reinstated this iteration: restart the epoch so park
                // time spent retired never reads as interference.
                _retiredNow.store(false, std::memory_order_relaxed);
                ++_counters.interferenceReinstates;
                _pressureSensor.begin();
            } else {
                maybeSamplePressure();
            }
        }
        TaskBase *t = acquireLocal();
        // Admission before stealing: a queued job is guaranteed work,
        // and the worker woken by an admission edge should claim the
        // job it was woken for rather than contend on steals.
        if (t == nullptr)
            t = _runtime.takeJob();
        if (t == nullptr && _runtime.workActive())
            t = trySteal();
        if (t != nullptr) {
            _core.noteProgress();
            executeTask(t);
            continue;
        }
        // Ran dry on every path: from here on the worker is idle.
        ensureBucket(TimeSplit::Idle);
        // The core tracks the fruitless streak against its (tuned) spin
        // budget and decides when spinning should give way to parking.
        _core.noteFruitless();
        if (_core.takeParkRequest()) {
            ++_counters.parks;
            const int64_t park_start = nowNs();
            _parkedNow.store(true, std::memory_order_relaxed);
            if (_runtime.idleWait(
                    _place, static_cast<int>(_core.parkTimeoutUs())))
                ++_counters.parkWakes;
            else
                ++_counters.parkTimeouts;
            _parkedNow.store(false, std::memory_order_relaxed);
            // Parked wall time: the elastic-pool yield metric (the
            // fraction of idleness actually handed back to the OS).
            const int64_t parked = nowNs() - park_start;
            _counters.parkedNs += static_cast<uint64_t>(parked);
            // Voluntary sleep is not interference: exclude it from the
            // pressure epoch's wall base.
            if (_interferenceEnabled)
                _pressureSensor.notePark(parked);
            // A wake that lands on a still-dry board bought nothing:
            // the wakeup-storm metric the board policy is gated on. The
            // same verdict feeds the core's park tuner — quiescent-
            // runtime parks are skipped, they say nothing about in-run
            // wake latency.
            if (_runtime.workActive()) {
                const bool found = _runtime.board().anyWorkFor(_place)
                                   || _runtime.jobPending();
                if (!found)
                    ++_counters.spuriousWakes;
                _core.onParkOutcome(found);
            }
        } else {
            cpuRelax();
        }
    }
    switchBucket(TimeSplit::Idle); // flush the final segment
    numa::unbindThread();
    detail::tlsWorker = nullptr;
}

} // namespace numaws

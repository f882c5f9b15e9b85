#include "sim/scheduler.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "sched/interference_core.h"
#include "sched/shed_core.h"
#include "sim/serving.h"
#include "support/panic.h"

namespace numaws::sim {

namespace {

/** Execution state of one frame (the full-frame bookkeeping). */
struct FrameState
{
    bool stolen = false;    ///< stolen since its last successful sync
    bool suspended = false; ///< parked at a nontrivial sync
    int32_t joinCount = 0;  ///< outstanding stolen-away children
    uint32_t resumeItem = 0;
    uint32_t pushCount = 0; ///< rejected PUSHBACK deposits (lifetime)
};

/** A stealable execution state: frame + next item. */
struct Continuation
{
    FrameId frame = kNoFrame;
    uint32_t item = 0;

    bool valid() const { return frame != kNoFrame; }
};

enum class NextAction : uint8_t { Steal, CheckParent };

/** Time bucket a step's cost is charged to. */
enum class Charge : uint8_t { Work, Sched, Idle };

struct CoreState
{
    double clock = 0.0;
    Continuation cur;
    std::deque<Continuation> deq; ///< back == tail (owner), front == head
    /** The parked frame, if valid: the paper's single-entry mailbox. */
    Continuation mailbox;
    /**
     * Checkpointed continuations of preempted jobs, innermost last.
     * When a Spawn-boundary yield stashes the current continuation
     * here, its already-pushed deque entries stay stealable (they are
     * the chain's ancestors — thieves drain them front-first exactly
     * as usual), while this private stack marks where *this* core must
     * resume once no strictly-higher-class job remains claimable. The
     * threaded dual: the worker's C++ stack below a nested
     * executeTask.
     */
    std::deque<Continuation> preempted;
    NextAction next = NextAction::Steal;
    FrameId checkParent = kNoFrame;
    /** The scheduling brain: RNG, escalation, push policy, affinity,
     * dry-poll cadence, park streaks — shared code with the threaded
     * runtime (sched/steal_core.h). */
    StealCore brain;

    /** @name Parking model (SimConfig::modelParking only) */
    /// @{
    bool parked = false;
    /** Sleeping out an interference-retirement epoch (the threaded
     * Worker::retirePark); only ever set with a trace. */
    bool retiredAsleep = false;
    /** The pending wake is a targeted socket-edge wake, not a timeout. */
    bool boardWakePending = false;
    double parkStart = 0.0;
    /** Time of this core's currently scheduled event — a targeted wake
     * reschedules only if it lands earlier. */
    double nextWakeAt = 0.0;
    /** Matches Event::token; stale heap entries are skipped on pop. */
    uint64_t eventToken = 0;
    /// @}

    double workCycles = 0.0;
    double schedCycles = 0.0;
    double idleCycles = 0.0;
};

struct Event
{
    double time;
    uint64_t seq;
    int core;
    /** Lazy invalidation: a targeted wake supersedes the fallback event
     * already in the heap by bumping the core's token. */
    uint64_t token;

    bool
    operator>(const Event &o) const
    {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

/** The whole-run state: one simulated execution. */
class Simulation
{
  public:
    Simulation(const ComputationDag &dag, const Machine &machine, int cores,
               const SimConfig &config, LatencyModel latency,
               const std::vector<SimJob> *jobs = nullptr)
        : _dag(dag),
          _machine(machine),
          _cfg(config),
          _numCores(cores),
          _usToCycles(machine.ghz() * 1000.0),
          _dist(machine, cores,
                config.sched.biasedSteals ? config.sched.biasWeights
                                          : BiasWeights::uniform()),
          _board(cores, _dist.workerSockets()),
          _memory(machine, dag, latency),
          _frames(dag.numFrames()),
          _cores(static_cast<std::size_t>(cores)),
          _shed(config.sched.serving),
          _interference(config.sched.serving, machine.numSockets()),
          _trace(config.interference)
    {
        // Interference epochs tick on the virtual clock at the same
        // cadence the threaded sensor samples on the wall clock. A
        // null trace never ticks (and never charges), keeping every
        // pre-existing configuration's event sequence byte-identical.
        _epochCycles = _cfg.sched.serving.pressureEpochUs * _usToCycles;
        _nextEpochAt = _epochCycles;
        NUMAWS_ASSERT(cores >= 1);
        // One StealCore per simulated core — the same brain the threaded
        // runtime drives, fed the sim's seeded RNG chain so runs stay
        // byte-reproducible per seed.
        const EngineView view{&_dist, &_board};
        uint64_t seed_state = _cfg.seed;
        for (int c = 0; c < cores; ++c) {
            _cores[c].brain = StealCore(_cfg.sched, view, c, socketOf(c),
                                        splitmix64(seed_state));
        }
        if (jobs != nullptr) {
            // Serving mode: nothing is pre-seeded — every root frame
            // flows through admission at its arrival instant, claimed
            // from per-class lanes by the scheduling loop (the sim's
            // JobQueue).
            _jobs = jobs;
            NUMAWS_ASSERT(!_jobs->empty());
            _jobStats.resize(_jobs->size());
            _jobOfRoot.assign(dag.numFrames(), -1);
            _frameJobCls.assign(dag.numFrames(), -1);
            for (std::size_t j = 0; j < _jobs->size(); ++j) {
                const SimJob &job = (*_jobs)[j];
                NUMAWS_ASSERT(job.root != kNoFrame);
                NUMAWS_ASSERT(dag.frame(job.root).parent == kNoFrame);
                NUMAWS_ASSERT(job.cls >= 0 && job.cls < kNumServingClasses);
                NUMAWS_ASSERT(j == 0
                              || (*_jobs)[j - 1].arrivalCycles
                                     <= job.arrivalCycles);
                _jobOfRoot[job.root] = static_cast<int32_t>(j);
                _frameJobCls[job.root] = static_cast<int8_t>(job.cls);
            }
        } else {
            // The root computation starts on core 0 (first core of the
            // first socket, as the runtime pins it).
            _cores[0].cur = Continuation{dag.root(), dag.frame(dag.root())
                                                         .itemBegin};
        }
    }

    SimResult run();

    /** Serving mode only: the measured per-job timelines. */
    const std::vector<SimJobStats> &jobStats() const { return _jobStats; }

  private:
    int socketOf(int core) const { return _dist.socketOfWorker(core); }

    /** Active cores [first, last) on @p socket (even-spread packing). */
    std::pair<int, int>
    coresOfSocket(int socket) const
    {
        const int sockets = _machine.numSockets();
        const int per = (_numCores + sockets - 1) / sockets;
        const int first = socket * per;
        const int last = std::min(_numCores, first + per);
        return {first, last};
    }

    bool
    placeMismatch(int core, Place place) const
    {
        if (!_cfg.sched.useMailboxes || !isConcretePlace(place))
            return false;
        if (place >= _machine.numSockets())
            return false; // hint beyond this machine: ignore
        const auto [first, last] = coresOfSocket(place);
        if (first >= last)
            return false; // no active cores there: unsatisfiable hint
        return socketOf(core) != place;
    }

    /**
     * PUSHBACK (Figure 5): deposit @p cont into a random mailbox on its
     * designated socket, retrying up to the pushing threshold. Returns
     * true if handed off. @p cost accumulates attempt costs.
     */
    bool
    pushBack(int core, Continuation cont, double &cost)
    {
        FrameState &fs = _frames[cont.frame];
        const Place target = _dag.frame(cont.frame).place;
        const auto [first, last] = coresOfSocket(target);
        NUMAWS_ASSERT(first < last);
        // The core picks receivers (board-guided or blind per policy);
        // this driver executes the deposits and charges their costs. A
        // receiver that is the pusher itself or has no room burns the
        // attempt, exactly like the threaded engine's rejected tryPut.
        StealCore &brain = _cores[core].brain;
        const auto threshold =
            static_cast<uint32_t>(brain.policy().pushThreshold);
        while (fs.pushCount < threshold) {
            ++_counters.pushAttempts;
            cost += _cfg.pushAttemptCost;
            const int receiver =
                brain.pickPushReceiver(first, last, /*self=*/core,
                                       target);
            if (receiver != core && !_cores[receiver].mailbox.valid()) {
                mailboxDeposit(receiver, cont, core);
                ++_counters.pushSuccesses;
                return true;
            }
            ++fs.pushCount;
        }
        return false;
    }

    /**
     * Spawn-time delivery (SchedPolicy::deliverHintedSpawns): deposit
     * the fresh child @p cont in a mailbox on its hinted place when the
     * core picks a receiver there. Returns true if handed off.
     */
    bool
    deliverSpawn(int core, Continuation cont)
    {
        const Place place = _dag.frame(cont.frame).place;
        StealCore &brain = _cores[core].brain;
        if (!brain.deliversSpawnTo(place) || !placeMismatch(core, place))
            return false;
        const auto [first, last] = coresOfSocket(place);
        const int receiver =
            brain.pickSpawnReceiver(first, last, place, [this](int w) {
                return _cores[w].parked || _cores[w].retiredAsleep;
            });
        if (receiver < 0)
            return false;
        // The board is exact here: a dry place has empty mailboxes.
        NUMAWS_ASSERT(!_cores[receiver].mailbox.valid());
        mailboxDeposit(receiver, cont, core);
        ++_counters.spawnDeliveries;
        return true;
    }

    /** One scheduling step for @p core; returns (cost, charge). */
    std::pair<double, Charge> step(int core);

    std::pair<double, Charge> stepExecute(int core);
    std::pair<double, Charge> stepReturn(int core);
    std::pair<double, Charge> stepSchedulingLoop(int core);
    std::pair<double, Charge> stepStealAttempt(int core);

    /** @name Parking model (active when SimConfig::modelParking)
     * Mirrors Runtime::idleWait/ParkingLot: a core parks after a run of
     * fruitless probes (the StealCore's spin budget) and wakes on a
     * timer or on a targeted socket-occupancy edge plus a fallback
     * timeout per the policy, paying boardCheckCost per wakeup check.
     * Streak tracking, budgets, and timeouts come from the per-core
     * StealCore (possibly EWMA-tuned); this block owns only the event
     * mechanics. */
    /// @{
    bool parkingModeled() const { return _cfg.modelParking; }

    /** The (tuned) park timeout for @p core, in machine cycles. */
    double
    parkTimeoutCycles(int core) const
    {
        return _cores[core].brain.parkTimeoutUs() * _usToCycles;
    }

    /** (Re)schedule @p core's next event at @p t, superseding whatever
     * event the heap still holds for it. */
    void
    schedule(int core, double t)
    {
        CoreState &c = _cores[core];
        c.eventToken = ++_tokenGen;
        c.nextWakeAt = t;
        _heap.push(Event{t, _seq++, core, c.eventToken});
    }

    /** A fruitless probe (failed steal or dry poll): the core's park
     * streak may cross its spin budget and request a park. */
    void
    noteProbeFailure(int core)
    {
        if (!parkingModeled() || _numCores <= 1)
            return;
        _cores[core].brain.noteFruitless();
    }

    /** A socket occupancy word went 0 -> nonzero: under board parking,
     * wake the cores parked on that socket wakeLatencyCycles after the
     * publish (sooner than their scheduled fallback only). */
    void
    maybeWakeSocket(int socket, int actor)
    {
        if (!parkingModeled() || !_cfg.sched.boardParking())
            return;
        const double at =
            _cores[actor].clock + _cfg.wakeLatencyCycles;
        const auto [first, last] = coresOfSocket(socket);
        for (int w = first; w < last; ++w) {
            CoreState &c = _cores[w];
            if (c.parked && at < c.nextWakeAt) {
                c.boardWakePending = true;
                schedule(w, at);
            }
        }
    }

    /** @p thief's deque steal from @p victim left work behind: wake the
     * place the core names (the threaded Worker::trySteal's surplus
     * wake), every parked core of it, as an edge wake would. */
    void
    maybeWakeForSurplus(int thief, int victim)
    {
        if (!parkingModeled())
            return;
        const int socket = _cores[thief].brain.surplusWakePlace(
            !_cores[victim].deq.empty(), [this](int s) {
                const auto [first, last] = coresOfSocket(s);
                for (int w = first; w < last; ++w)
                    if (_cores[w].parked)
                        return true;
                return false;
            });
        if (socket >= 0)
            maybeWakeSocket(socket, thief);
    }

    /** A parked core's wake event fired: pay the board check, unpark if
     * anything is stealable, else count the wake spurious and re-arm. */
    void
    wakeParked(int core, double now)
    {
        CoreState &c = _cores[core];
        ++_counters.wakeups;
        if (c.boardWakePending)
            ++_counters.boardWakes;
        c.boardWakePending = false;
        // The sleep itself and the wake-time board check are idle time.
        c.idleCycles += (now - c.parkStart) + _cfg.boardCheckCost;
        _counters.parkedCycles +=
            static_cast<uint64_t>(now - c.parkStart);
        c.clock = now + _cfg.boardCheckCost;
        // The admission lanes are off-board, so the wake check consults
        // them too (Runtime::idleWait's jobPending() in the predicate).
        const bool found =
            _board.anyWorkFor(socketOf(core)) || jobsPending();
        c.brain.onParkOutcome(found);
        if (found) {
            c.parked = false;
            c.brain.noteProgress();
            schedule(core, c.clock);
        } else {
            ++_counters.spuriousWakeups;
            c.parkStart = c.clock;
            schedule(core, c.clock + parkTimeoutCycles(core));
        }
    }
    /// @}

    /** @name Deque/mailbox mutations, each publishing to the board
     * The sim is sequential, so the board is exact: every transition is
     * published at the mutation site, the same contract the threaded
     * runtime approximates. A publish that flips a socket's occupancy
     * 0 -> nonzero is the edge targeted wakes ride on. */
    /// @{
    void
    dequePushBack(int core, Continuation cont)
    {
        _cores[core].deq.push_back(cont);
        if (_board.publishDeque(core, true))
            maybeWakeSocket(socketOf(core), core);
    }

    Continuation
    dequePopBack(int core)
    {
        Continuation cont = _cores[core].deq.back();
        _cores[core].deq.pop_back();
        if (_cores[core].deq.empty())
            _board.publishDeque(core, false);
        return cont;
    }

    Continuation
    dequePopFront(int core)
    {
        Continuation cont = _cores[core].deq.front();
        _cores[core].deq.pop_front();
        if (_cores[core].deq.empty())
            _board.publishDeque(core, false);
        return cont;
    }

    void
    mailboxDeposit(int receiver, Continuation cont, int actor)
    {
        _cores[receiver].mailbox = cont;
        if (_board.publishMailbox(receiver, true))
            maybeWakeSocket(socketOf(receiver), actor);
    }

    Continuation
    mailboxTake(int core)
    {
        const Continuation cont = _cores[core].mailbox;
        _cores[core].mailbox = Continuation{};
        _board.publishMailbox(core, false);
        return cont;
    }
    /// @}

    /** @name Serving mode (open-loop job admission, sim/serving.h) */
    /// @{
    bool serving() const { return _jobs != nullptr; }

    /** Any admitted-but-unclaimed job? The sim's Runtime::jobPending():
     * lanes are not on the board, so park predicates and wake checks
     * must consult this explicitly. */
    bool
    jobsPending() const
    {
        for (const auto &lane : _jobLanes)
            if (!lane.empty())
                return true;
        return false;
    }

    /** Class of the job whose computation frame @p f belongs to:
     * walk the spawn tree up to a frame with a memoized class (roots
     * are seeded at construction), then write the answer back down
     * the path so repeated queries are amortized O(1). Frames are
     * reached only after their job was claimed, so the walk always
     * terminates at a seeded root. */
    int
    jobClsOfFrame(FrameId f)
    {
        FrameId g = f;
        while (_frameJobCls[g] < 0) {
            NUMAWS_ASSERT(_dag.frame(g).parent != kNoFrame);
            g = _dag.frame(g).parent;
        }
        const int8_t cls = _frameJobCls[g];
        for (g = f; _frameJobCls[g] < 0; g = _dag.frame(g).parent)
            _frameJobCls[g] = cls;
        return cls;
    }

    /** The lane Runtime::takeJobAbove would pop at @p now: each lane's
     * head wait (-1 == empty) ranked by ShedCore::pickLane. */
    int
    claimableLane(double now, int below, bool &promoted) const
    {
        int64_t wait_ns[kNumServingClasses];
        for (int lane = 0; lane < kNumServingClasses; ++lane) {
            const std::deque<int> &q = _jobLanes[lane];
            wait_ns[lane] = -1;
            if (!q.empty()) {
                const double head = (*_jobs)[q.front()].arrivalCycles;
                wait_ns[lane] = std::max<int64_t>(
                    0, static_cast<int64_t>((now - head) / _machine.ghz()));
            }
        }
        return _shed.pickLane(wait_ns, below, promoted);
    }

    /** Service a raised yield directive at a Spawn boundary (the sim's
     * Worker::serviceYield): consume the directive — the exchange
     * arbitrates against re-raises — and, if a job of strictly higher
     * effective class than the running one is claimable, checkpoint
     * the current continuation on the preempted stash and return to
     * the scheduling loop to claim it. A directive whose job was
     * claimed elsewhere meanwhile expires without effect. */
    void
    maybeYield(int core)
    {
        CoreState &c = _cores[core];
        if (!c.brain.takeYieldRequest())
            return;
        const int my_cls = jobClsOfFrame(c.cur.frame);
        bool promoted = false;
        if (claimableLane(c.clock, my_cls, promoted) < 0)
            return;
        ++_counters.yields;
        c.preempted.push_back(c.cur);
        c.cur = Continuation{};
        c.next = NextAction::Steal;
    }

    /** Claim one admitted job with effective class strictly below
     * @p below (the sim's Runtime::takeJobAbove), or nullopt when no
     * lane qualifies. On a claim the step's cost/charge is returned:
     * cancelled or past-deadline entries resolve here without running,
     * one per scheduling step, exactly as before. */
    std::optional<std::pair<double, Charge>>
    tryClaimJob(int core, int below)
    {
        CoreState &c = _cores[core];
        bool promoted = false;
        const int lane_pick = claimableLane(c.clock, below, promoted);
        if (lane_pick < 0)
            return std::nullopt;
        auto &lane = _jobLanes[lane_pick];
        const int j = lane.front();
        lane.pop_front();
        const SimJob &job = (*_jobs)[j];
        // Claim-time gate, same order as Runtime::takeJob: every pop
        // feeds the class's claim-delay EWMA (skipped entries are
        // evidence of the same queue), then cancelled or past-deadline
        // entries resolve here without running.
        _shed.observeDelay(job.cls,
                           static_cast<int64_t>(
                               (c.clock - job.arrivalCycles)
                               / _machine.ghz()));
        const double at = c.clock + _cfg.mailboxCheckCost;
        if (job.cancelAtCycles != 0.0 && job.cancelAtCycles <= c.clock) {
            resolveJobUnrun(j, JobOutcome::Cancelled, /*shed=*/false,
                            at);
            return {{_cfg.mailboxCheckCost, Charge::Sched}};
        }
        if (job.deadlineCycles != 0.0 && c.clock > job.deadlineCycles) {
            resolveJobUnrun(j, JobOutcome::Expired, /*shed=*/false, at);
            return {{_cfg.mailboxCheckCost, Charge::Sched}};
        }
        if (promoted)
            ++_counters.agedClaims;
        _jobStats[j].startCycles = at;
        const FrameId root = job.root;
        c.cur = Continuation{root, _dag.frame(root).itemBegin};
        return {{_cfg.mailboxCheckCost, Charge::Sched}};
    }

    /** Resolve job @p j without running it — admission reject, shed
     * victim, or claim-time skip — at virtual instant @p at. The sim's
     * Runtime::resolveUnrun: every job resolves exactly once, so the
     * finished tally (and the run-termination check) advances here
     * exactly as it does at a root return. */
    void
    resolveJobUnrun(int j, JobOutcome outcome, bool shed, double at)
    {
        SimJobStats &st = _jobStats[j];
        st.outcome = outcome;
        st.shed = shed;
        st.finishCycles = at;
        ++_jobsFinished;
        if (_jobsFinished == _jobs->size()) {
            _done = true;
            _doneTime = std::max(_doneTime, at);
        }
    }

    /** Admit job @p j at its arrival instant: lane it by class and,
     * under board parking, issue the targeted socket wake
     * Runtime::notifyAdmission issues — the hinted socket when the
     * root carries a concrete place, else round-robin. Since PR 7 the
     * admission edge is also where the overload layer acts, in the
     * same order as Runtime::submit/enqueueJob: capacity check first
     * (reject at the arrival instant, never laned), then one
     * QueueDelay shed from the lowest nonempty lane while the
     * claim-delay EWMA sits above target and a standing queue
     * exists. */
    void
    admitJob(int j)
    {
        const SimJob &job = (*_jobs)[j];
        _jobStats[j].arrivalCycles = job.arrivalCycles;
        if (!_shed.admit(job.cls, static_cast<int64_t>(
                                      _jobLanes[job.cls].size()))) {
            resolveJobUnrun(j, JobOutcome::Rejected, /*shed=*/false,
                            job.arrivalCycles);
            return;
        }
        // Only a standing queue is shed (CoDel's rule, matching
        // Runtime::enqueueJob): an arrival into empty lanes is the
        // server's next unit of work, never a victim.
        bool standing = false;
        for (int lane = 0; lane < kNumServingClasses; ++lane)
            standing |= !_jobLanes[lane].empty();
        _jobLanes[job.cls].push_back(j);
        if (standing && _shed.overloaded()) {
            for (int lane = kNumServingClasses - 1; lane >= 0; --lane) {
                if (_jobLanes[lane].empty())
                    continue;
                const int victim = _jobLanes[lane].front();
                _jobLanes[lane].pop_front();
                resolveJobUnrun(victim, JobOutcome::Rejected,
                                /*shed=*/true, job.arrivalCycles);
                break;
            }
        }
        // First-crossing instrumentation for the unpark-lead gate: when
        // did the early-warning pressure signal first fire, and when did
        // a delay EWMA first actually cross its shed target?
        if (_firstShedCross == 0.0 && _shed.overloaded())
            _firstShedCross = job.arrivalCycles;
        if (_firstUnparkPressure == 0.0 && _shed.unparkPressure())
            _firstUnparkPressure = job.arrivalCycles;
        // Latency-class preemption (Runtime::enqueueJob's maybePreempt):
        // when no core is idle and some core runs a strictly lower
        // class, raise the yield directive on the worst such core; its
        // next Spawn boundary checkpoints and claims this job.
        if (_cfg.sched.serving.preempt) {
            std::vector<int8_t> running(
                static_cast<std::size_t>(_numCores));
            for (int w = 0; w < _numCores; ++w) {
                const CoreState &c = _cores[w];
                running[static_cast<std::size_t>(w)] =
                    c.cur.valid()
                        ? static_cast<int8_t>(
                              jobClsOfFrame(c.cur.frame))
                        : static_cast<int8_t>(-1);
            }
            const int victim = StealCore::pickPreemptVictim(
                job.cls, running.data(), _numCores);
            if (victim >= 0)
                _cores[victim].brain.requestYield();
        }
        if (!parkingModeled() || !_cfg.sched.boardParking())
            return; // timer parking relies on its fallback, as the runtime
        const double at = job.arrivalCycles + _cfg.wakeLatencyCycles;
        // Shed-aware elastic unpark: standing pressure means the pool is
        // underprovisioned *now*, so escalate the targeted admission
        // wake to every parked core (Runtime::enqueueJob's notifyWork
        // escalation), paying wake latency before the shed threshold
        // crosses instead of after.
        if (_shed.unparkPressure()) {
            for (int w = 0; w < _numCores; ++w) {
                CoreState &c = _cores[w];
                if (c.parked && at < c.nextWakeAt) {
                    c.boardWakePending = true;
                    schedule(w, at);
                }
            }
            return;
        }
        const int sockets = _machine.numSockets();
        const Place p = _dag.frame(job.root).place;
        int socket;
        if (isConcretePlace(p) && p < sockets) {
            socket = p;
        } else {
            socket = static_cast<int>(_admitCursor++
                                      % static_cast<uint32_t>(sockets));
        }
        // Steer the admission wake off a pressured socket (identity
        // when adaptation is off or the socket is calm), mirroring
        // Runtime::notifyAdmission.
        socket = _interference.steerSocket(socket);
        const auto [first, last] = coresOfSocket(socket);
        for (int w = first; w < last; ++w) {
            CoreState &c = _cores[w];
            if (c.parked && at < c.nextWakeAt) {
                c.boardWakePending = true;
                schedule(w, at);
            }
        }
    }
    /// @}

    const ComputationDag &_dag;
    const Machine &_machine;
    SimConfig _cfg;
    int _numCores;
    /** Cycles per microsecond: converts the policy's µs park knobs to
     * this machine's clock (200us @ 2.2 GHz == the old 440k cycles). */
    double _usToCycles;
    StealDistribution _dist;
    OccupancyBoard _board;
    SimMemory _memory;
    std::vector<FrameState> _frames;
    std::vector<CoreState> _cores;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        _heap;
    uint64_t _seq = 0;
    uint64_t _tokenGen = 0;
    SimCounters _counters;
    MemCounters _mem_counters;
    bool _done = false;
    double _doneTime = 0.0;

    /** @name Serving-mode state */
    /// @{
    const std::vector<SimJob> *_jobs = nullptr;
    std::vector<SimJobStats> _jobStats;
    /** Root frame id -> job index (-1 for non-root frames). */
    std::vector<int32_t> _jobOfRoot;
    /** Frame id -> owning job's class, memoized lazily by
     * jobClsOfFrame (-1 = not yet resolved; roots seeded eagerly). */
    std::vector<int8_t> _frameJobCls;
    /** First admission instants (cycles, 0 = never) at which
     * unparkPressure() fired and at which the shed threshold itself
     * crossed — the unpark-lead gate's two timestamps. */
    double _firstUnparkPressure = 0.0;
    double _firstShedCross = 0.0;
    std::size_t _nextArrival = 0;
    /** Admitted, unclaimed job indices per class (JobQueue's lanes). */
    std::deque<int> _jobLanes[kNumServingClasses];
    std::size_t _jobsFinished = 0;
    uint32_t _admitCursor = 0;
    /** Overload-protection brain, the same ShedCore the threaded
     * Runtime drives (sched/shed_core.h); single-threaded here, so
     * its EWMAs are exact and runs stay byte-deterministic. */
    ShedCore _shed;
    /// @}

    /** @name Interference model (SimConfig::interference, PR 10) */
    /// @{
    /** Retirement rank, matching the threaded Worker's: 0 = the
     * socket's last core, retired (and trace-stolen) first. */
    int
    rankFromTop(int core) const
    {
        const auto [first, last] = coresOfSocket(socketOf(core));
        (void)first;
        return (last - 1) - core;
    }

    /** Tick every socket's hysteresis ladder for each epoch boundary
     * at or before @p upTo, feeding the trace's synthesized pressure
     * — the sim's analogue of the per-socket leader's sample. */
    void
    tickInterferenceEpochs(double upTo)
    {
        while (_nextEpochAt <= upTo) {
            if (_interference.enabled()) {
                for (int s = 0; s < _machine.numSockets(); ++s) {
                    const auto [first, last] = coresOfSocket(s);
                    if (first >= last)
                        continue;
                    _interference.epochTick(
                        s,
                        _trace->pressureAt(
                            s, _nextEpochAt, last - first,
                            _interference.retiredTarget(s)),
                        last - first);
                }
            }
            _nextEpochAt += _epochCycles;
        }
    }

    /** The same shared adaptation brain the threaded Runtime drives;
     * single-ticker here, so verdicts are exact per epoch. */
    InterferenceCore _interference;
    const InterferenceTrace *_trace = nullptr;
    double _epochCycles = 0.0;
    double _nextEpochAt = 0.0;
    /// @}
};

std::pair<double, Charge>
Simulation::stepReturn(int core)
{
    CoreState &c = _cores[core];
    const Frame &f = _dag.frame(c.cur.frame);

    // Root return is checked *before* the deque: with preemption a
    // claimed job's root can finish while the preempted chain's
    // ancestors still sit below it on this deque (they are not this
    // root's parents — the scheduling loop resumes that chain from the
    // preempted stash). Without preemption a returning root always has
    // an empty deque, so the reorder is behavior-neutral.
    if (f.parent == kNoFrame) {
        const FrameId finished = c.cur.frame;
        c.cur = Continuation{};
        if (serving()) {
            // A job's root returned: stamp its finish and keep serving
            // until the last job is done (arrivals still pending keep
            // the run alive even with every lane drained).
            const int32_t j = _jobOfRoot[finished];
            NUMAWS_ASSERT(j >= 0);
            const SimJob &job = (*_jobs)[j];
            const double fin = c.clock + _cfg.returnCost;
            SimJobStats &st = _jobStats[j];
            st.finishCycles = fin;
            // Outcome classification at the return edge, mirroring the
            // threaded wrapper: a cancel that landed mid-run resolves
            // Cancelled (the sim's fork-join bodies are boundary-dense,
            // so a cooperative unwind always reaches the root); else a
            // finish past the deadline resolves Expired (finishJob's
            // deterministic late-finish flip); else Done.
            if (job.cancelAtCycles != 0.0 && job.cancelAtCycles <= fin)
                st.outcome = JobOutcome::Cancelled;
            else if (job.deadlineCycles != 0.0
                     && fin > job.deadlineCycles)
                st.outcome = JobOutcome::Expired;
            else
                st.outcome = JobOutcome::Done;
            ++_jobsFinished;
            if (_jobsFinished == _jobs->size()) {
                _done = true;
                _doneTime = std::max(_doneTime, fin);
            }
            c.next = NextAction::Steal;
            return {_cfg.returnCost, Charge::Work};
        }
        _done = true;
        _doneTime = c.clock + _cfg.returnCost;
        return {_cfg.returnCost, Charge::Work};
    }

    if (!c.deq.empty()) {
        // Parent's continuation is still ours: pop and keep going
        // (Figure 2 lines 3-5). With continuation stealing the tail is
        // necessarily the immediate parent — preempted-chain entries
        // can only sit *below* every entry of the current job's chain,
        // and thieves drain the deque front-first, so if any entry
        // remains the back is ours.
        const Continuation parent = dequePopBack(core);
        NUMAWS_ASSERT(parent.frame == f.parent);
        c.cur = parent;
        return {_cfg.returnCost, Charge::Work};
    }

    // Deque empty: our parent's continuation was stolen (Figure 2
    // lines 6-8).
    c.cur = Continuation{};
    FrameState &ps = _frames[f.parent];
    NUMAWS_ASSERT(ps.stolen || ps.suspended);
    NUMAWS_ASSERT(ps.joinCount > 0);
    --ps.joinCount;
    if (ps.suspended && ps.joinCount == 0) {
        // We are the last returning child: CHECK_PARENT next.
        c.next = NextAction::CheckParent;
        c.checkParent = f.parent;
    } else {
        c.next = NextAction::Steal;
    }
    return {_cfg.returnCost, Charge::Work};
}

std::pair<double, Charge>
Simulation::stepExecute(int core)
{
    CoreState &c = _cores[core];
    const Frame &f = _dag.frame(c.cur.frame);
    if (c.cur.item == f.itemEnd)
        return stepReturn(core);

    const Item &item = _dag.item(c.cur.item);
    switch (item.kind) {
      case ItemKind::Strand: {
        ++_counters.strandsExecuted;
        const double mem =
            _memory.cost(socketOf(core), f, item, _mem_counters);
        if (_cfg.sched.hierarchicalSteals
            && item.accessBegin != item.accessEnd) {
            // Remember where this strand's data lives: the thief-side
            // affinity signal for informed victim weighting.
            uint32_t mask = 0;
            const int sockets = _machine.numSockets();
            for (uint32_t a = item.accessBegin; a != item.accessEnd;
                 ++a) {
                const MemAccess &acc = _dag.access(a);
                const RegionId r = f.region(acc);
                for (uint32_t row = 0; row < acc.rows; ++row) {
                    const int home = _dag.homeOf(
                        r, acc.offset + row * acc.stride, sockets);
                    if (home < 32) // affinity masks cover 32 sockets
                        mask |= 1u << home;
                }
            }
            c.brain.setAffinity(mask);
        }
        ++c.cur.item;
        return {item.cycles + mem, Charge::Work};
      }
      case ItemKind::Spawn: {
        ++_counters.spawns;
        const FrameId child = f.child(item);
        const Continuation child_cont{child, _dag.frame(child).itemBegin};
        // Spawn-time delivery of a child hinted elsewhere. Only from the
        // bottom of the deque: a frame that may suspend must have no
        // ancestor continuation left on this deque, or an unrelated
        // chain would later run above it and break the ancestor-chain
        // invariant stepReturn pops by. The parent is then promoted as
        // if its continuation had been stolen, and the step (the spawn
        // plus one receiver pick) is scheduling time.
        Charge charge = Charge::Work;
        double cost = _cfg.spawnCost;
        if (c.deq.empty() && deliverSpawn(core, child_cont)) {
            FrameState &fs = _frames[c.cur.frame];
            fs.stolen = true;
            ++fs.joinCount;
            ++c.cur.item;
            charge = Charge::Sched;
            cost += _cfg.pushAttemptCost;
        } else {
            // Push the continuation; descend into the child (Figure 2
            // lines 1-2). This is continuation stealing: the child runs
            // here, the parent's remainder becomes stealable.
            dequePushBack(core,
                          Continuation{c.cur.frame, c.cur.item + 1});
            c.cur = child_cont;
        }
        // Preemption boundary (TaskGroup::spawn's yieldPending check):
        // a raised directive checkpoints the current continuation onto
        // the private preempted stash — whatever the spawn left on the
        // deque or in a mailbox stays stealable — and sends this core
        // to the scheduling loop to claim the higher-class job. One
        // relaxed flag read when the knob is on; nothing at all when
        // it is off.
        if (serving() && _cfg.sched.serving.preempt
            && c.brain.yieldRequested())
            maybeYield(core);
        return {cost, charge};
      }
      case ItemKind::Sync: {
        FrameState &fs = _frames[c.cur.frame];
        if (!fs.stolen) {
            // Shadow-frame sync is a no-op (Figure 2 line 18).
            ++_counters.trivialSyncs;
            ++c.cur.item;
            return {_cfg.syncTrivialCost, Charge::Work};
        }
        ++_counters.nontrivialSyncs;
        double cost = _cfg.syncNontrivialCost;
        if (fs.joinCount == 0) {
            // CHECKSYNC succeeded; the frame is whole again.
            fs.stolen = false;
            const uint32_t next_item = c.cur.item + 1;
            // Figure 5 lines 5-11: place check + lazy pushback.
            if (placeMismatch(core, f.place)) {
                Continuation cont{c.cur.frame, next_item};
                if (pushBack(core, cont, cost)) {
                    c.cur = Continuation{};
                    c.next = NextAction::Steal;
                    return {cost, Charge::Sched};
                }
            }
            c.cur.item = next_item;
            return {cost, Charge::Sched};
        }
        // Outstanding children: suspend and go steal (lines 12-15).
        ++_counters.suspensions;
        fs.suspended = true;
        fs.resumeItem = c.cur.item + 1;
        c.cur = Continuation{};
        c.next = NextAction::Steal;
        return {cost, Charge::Sched};
      }
    }
    NUMAWS_PANIC("unreachable item kind");
}

std::pair<double, Charge>
Simulation::stepStealAttempt(int core)
{
    CoreState &c = _cores[core];
    if (_numCores <= 1)
        return {_cfg.stealAttemptBase, Charge::Idle};

    // Every decision — dry-poll cadence, victim, the coin flip and its
    // informed override — comes from the shared
    // StealCore; this driver executes the action under the cost model.
    const StealAction action = c.brain.nextAction();
    if (action.kind == StealAction::Kind::DryPoll) {
        // The probe the board exists to save: polling the board replaced
        // the victim probe outright (the core still forces an insurance
        // probe every 4th consecutive dry poll, so a false-empty board
        // delays work pickup by a bounded factor instead of starving
        // anyone).
        noteProbeFailure(core);
        return {_cfg.boardCheckCost, Charge::Idle};
    }
    const int victim = action.victim;
    const int hops = _machine.hops(socketOf(core), socketOf(victim));
    double cost = _cfg.stealAttemptBase + _cfg.stealPerHop * hops;
    // An informed probe consulted the board (snapshot + bit reads) to
    // pick its level and victim: price that consult on every informed
    // attempt, not only on the dry-poll early return, so the policy
    // ablation compares like with like.
    if (action.informedConsult)
        cost += _cfg.boardCheckCost;

    Continuation got;

    if (action.checkMailboxFirst) {
        cost += _cfg.mailboxCheckCost;
        if (_cores[victim].mailbox.valid()) {
            const Continuation cont = mailboxTake(victim);
            const Place p = _dag.frame(cont.frame).place;
            if (!placeMismatch(core, p)) {
                // Outcome 2: earmarked for us (or unconstrained): take it.
                got = cont;
            } else {
                // Outcome 3: earmarked elsewhere: push it onward; if the
                // threshold is exhausted we take it ourselves.
                if (pushBack(core, cont, cost)) {
                    // Work was found (and forwarded): not a failed probe.
                    c.brain.onStealResult(action, true);
                    return {cost, Charge::Sched};
                }
                got = cont;
            }
        }
        // Outcome 1: mailbox empty -> fall through to the deque.
    }

    if (!got.valid()) {
        if (!_cores[victim].deq.empty()) {
            got = dequePopFront(victim);
            maybeWakeForSurplus(core, victim);
            // Promotion: the frame is now (again) a stolen full frame,
            // and the victim keeps executing one outstanding child.
            ++_counters.steals;
            FrameState &fs = _frames[got.frame];
            fs.stolen = true;
            ++fs.joinCount;
            cost += _cfg.promotionCost;
            // Figure 5: a freshly stolen frame earmarked for a different
            // socket is pushed toward its place.
            if (placeMismatch(core, _dag.frame(got.frame).place)) {
                if (pushBack(core, got, cost)) {
                    c.brain.onStealResult(action, true);
                    return {cost, Charge::Sched};
                }
            }
        }
    } else {
        ++_counters.mailboxSteals;
    }

    c.brain.onStealResult(action, got.valid());
    if (got.valid()) {
        c.cur = got;
        return {cost, Charge::Sched};
    }
    noteProbeFailure(core);
    return {cost, Charge::Idle};
}

std::pair<double, Charge>
Simulation::stepSchedulingLoop(int core)
{
    CoreState &c = _cores[core];

    if (c.next == NextAction::CheckParent) {
        // Figure 2 lines 20-22 / Figure 5 lines 18-24.
        c.next = NextAction::Steal;
        const FrameId parent = c.checkParent;
        c.checkParent = kNoFrame;
        FrameState &fs = _frames[parent];
        NUMAWS_ASSERT(fs.suspended && fs.joinCount == 0);
        fs.suspended = false;
        fs.stolen = false; // the sync this frame was parked on is complete
        ++_counters.resumes;
        double cost = _cfg.resumeCost;
        if (placeMismatch(core, _dag.frame(parent).place)) {
            Continuation cont{parent, fs.resumeItem};
            if (pushBack(core, cont, cost))
                return {cost, Charge::Sched};
        }
        c.cur = Continuation{parent, fs.resumeItem};
        return {cost, Charge::Sched};
    }

    // A preempted chain is parked on this core: the only legal moves
    // are claiming another strictly-higher-effective-class job (nested
    // preemption — its chain stacks on the deque exactly like the
    // first) or resuming the checkpoint. Mailbox or steal work
    // would start an unrelated chain above the preempted one's deque
    // entries and break the ancestor-chain invariant stepReturn pops
    // by; it stays available to every *other* core throughout.
    if (serving() && !c.preempted.empty()) {
        if (auto claimed = tryClaimJob(
                core, jobClsOfFrame(c.preempted.back().frame)))
            return *claimed;
        c.cur = c.preempted.back();
        c.preempted.pop_back();
        return {_cfg.mailboxCheckCost, Charge::Sched};
    }

    // POPMAILBOX (Figure 5 line 26): something parked for this place?
    if (c.mailbox.valid()) {
        c.cur = mailboxTake(core);
        ++_counters.mailboxPops;
        return {_cfg.mailboxCheckCost, Charge::Sched};
    }

    // Admission before stealing (the threaded mainLoop's order): claim
    // the oldest job from the best-effective-class nonempty lane.
    // Charged like a mailbox inspection — the JobQueue pop is one
    // locked deque operation of the same shape.
    if (serving()) {
        if (auto claimed = tryClaimJob(core, kNumServingClasses))
            return *claimed;
    }

    return stepStealAttempt(core);
}

std::pair<double, Charge>
Simulation::step(int core)
{
    if (_cores[core].cur.valid())
        return stepExecute(core);
    return stepSchedulingLoop(core);
}

SimResult
Simulation::run()
{
    for (int c = 0; c < _numCores; ++c)
        schedule(c, 0.0);

    while (!_done) {
        NUMAWS_ASSERT(!_heap.empty());
        // Serving: drain every arrival that lands at or before the next
        // core event (parked cores always hold a fallback event, so the
        // heap top bounds how far virtual time can jump). An admission
        // wake may push an earlier event; the re-check picks it up.
        while (serving() && _nextArrival < _jobs->size()
               && (*_jobs)[_nextArrival].arrivalCycles
                      <= _heap.top().time) {
            admitJob(static_cast<int>(_nextArrival));
            ++_nextArrival;
        }
        if (_done)
            break; // the last job resolved at an admission edge
        if (_trace != nullptr)
            tickInterferenceEpochs(_heap.top().time);
        const Event ev = _heap.top();
        _heap.pop();
        CoreState &c = _cores[ev.core];
        if (ev.token != c.eventToken)
            continue; // superseded by an earlier targeted wake
        if (c.parked) {
            wakeParked(ev.core, ev.time);
            continue;
        }
        c.retiredAsleep = false;
        // Adaptation verdict (the sim's Worker::retirePark): a core
        // retired by the ladder sleeps one epoch charged idle instead
        // of claiming or stealing — but only once its own chain and
        // preempted stack are drained, the threaded drain-first rule,
        // *including* a pending CHECK_PARENT duty: only this core can
        // resume the parent it just unblocked, so deferring it across
        // the sleep would strand the suspended frame forever. Mailbox
        // entries stay stealable by every other core.
        if (_trace != nullptr && !c.cur.valid() && c.deq.empty()
            && c.preempted.empty()
            && c.next == NextAction::Steal
            && _interference.workerRetired(socketOf(ev.core),
                                           rankFromTop(ev.core))) {
            c.clock = ev.time;
            c.retiredAsleep = true;
            c.idleCycles += _epochCycles;
            _counters.parkedCycles +=
                static_cast<uint64_t>(_epochCycles);
            schedule(ev.core, c.clock + _epochCycles);
            continue;
        }
        c.clock = ev.time;
        const auto [cost, charge] = step(ev.core);
        NUMAWS_ASSERT(cost >= 0.0);
        double charged = cost;
        // Charge the trace: a stolen core's step is time-sliced
        // against its co-runner, a slowed socket's step pays the
        // contention factor. Purely multiplicative on the step the
        // engine already chose, so the schedule shifts only through
        // the timeline — no extra randomness.
        if (_trace != nullptr && cost > 0.0) {
            const int sock = socketOf(ev.core);
            const int rank = rankFromTop(ev.core);
            const double f = _trace->costFactor(sock, rank, ev.time);
            if (f > 1.0) {
                const double extra = cost * (f - 1.0);
                charged = cost * f;
                if (rank < _trace->stolenOn(sock, ev.time))
                    _counters.stolenCycles +=
                        static_cast<uint64_t>(extra);
                else
                    _counters.slowedCycles +=
                        static_cast<uint64_t>(extra);
            }
        }
        switch (charge) {
          case Charge::Work:
            c.workCycles += charged;
            break;
          case Charge::Sched:
            c.schedCycles += charged;
            break;
          case Charge::Idle:
            c.idleCycles += charged;
            break;
        }
        c.clock += charged;
        // Any step that worked or scheduled breaks the fruitless-probe
        // streak the parking budget counts.
        if (charge != Charge::Idle)
            c.brain.noteProgress();
        if (c.brain.takeParkRequest()) {
            // Mirror Runtime::idleWait's registered-then-check: the
            // board-policy park predicate sees published work and
            // returns without sleeping (the timer path has no such
            // predicate — it sleeps regardless, as the runtime does).
            if (_cfg.sched.boardParking()
                && (_board.anyWorkFor(socketOf(ev.core))
                    || jobsPending())) {
                schedule(ev.core, c.clock);
            } else {
                c.parked = true;
                c.boardWakePending = false;
                c.parkStart = c.clock;
                ++_counters.parks;
                schedule(ev.core, c.clock + parkTimeoutCycles(ev.core));
            }
        } else {
            schedule(ev.core, c.clock);
        }
    }

    SimResult r;
    r.cores = _numCores;
    r.ghz = _machine.ghz();
    r.elapsedCycles = _doneTime;
    r.elapsedSeconds = _machine.cyclesToSeconds(_doneTime);
    for (int c = 0; c < _numCores; ++c) {
        const CoreState &cs = _cores[c];
        // Idle-fill the gap between a core's last event and the end of
        // the computation.
        const double fill = std::max(0.0, _doneTime - cs.clock);
        // A core still parked at the end spends that whole gap asleep:
        // count it toward the yield metric (its wake event never fires).
        if (cs.parked)
            _counters.parkedCycles += static_cast<uint64_t>(fill);
        r.workSeconds += _machine.cyclesToSeconds(cs.workCycles);
        r.schedSeconds += _machine.cyclesToSeconds(cs.schedCycles);
        r.idleSeconds += _machine.cyclesToSeconds(cs.idleCycles + fill);
        // Decision counters live on the shared core; translate them
        // into the sim's vocabulary.
        const StealCoreCounters &cc = cs.brain.counters();
        _counters.stealAttempts += cc.stealAttempts;
        _counters.boardDryPolls += cc.dryPolls;
        _counters.levelSkips += cc.levelSkips;
    }
    _counters.interferenceRetires = _interference.shrinks();
    _counters.interferenceReexpands = _interference.expands();
    r.counters = _counters;
    r.memory = _mem_counters;
    r.firstUnparkPressureCycles =
        static_cast<uint64_t>(_firstUnparkPressure);
    r.firstShedCrossCycles = static_cast<uint64_t>(_firstShedCross);
    return r;
}

} // namespace

SimResult
simulate(const ComputationDag &dag, const Machine &machine, int cores,
         const SimConfig &config, LatencyModel latency)
{
    Simulation sim(dag, machine, cores, config, latency);
    return sim.run();
}

SimResult
simulatePacked(const ComputationDag &dag, int cores,
               const SimConfig &config, LatencyModel latency)
{
    const Machine machine = Machine::paperMachineSubset(cores);
    return simulate(dag, machine, cores, config, latency);
}

ServingResult
simulateServing(const ComputationDag &dag, const std::vector<SimJob> &jobs,
                const Machine &machine, int cores, const SimConfig &config,
                LatencyModel latency)
{
    Simulation sim(dag, machine, cores, config, latency, &jobs);
    ServingResult r;
    r.sim = sim.run();
    r.jobs = sim.jobStats();

    // ns per cycle = 1 / ghz; the histogram mirrors the threaded
    // engine's (bucketed ns), the gate percentiles are exact. Latency
    // percentiles cover *served* (Done) jobs only — resolved-without-
    // serving jobs show up in the outcome tallies, and queue-delay
    // percentiles cover every job a core actually claimed.
    const double ns_per_cycle = 1.0 / machine.ghz();
    std::vector<double> served_us;
    std::vector<double> queue_us;
    served_us.reserve(r.jobs.size());
    queue_us.reserve(r.jobs.size());
    for (const SimJobStats &j : r.jobs) {
        switch (j.outcome) {
          case JobOutcome::Done:
            ++r.done;
            break;
          case JobOutcome::Expired:
            ++r.expired;
            break;
          case JobOutcome::Cancelled:
            ++r.cancelled;
            break;
          case JobOutcome::Rejected:
            ++r.rejected;
            if (j.shed)
                ++r.shed;
            break;
          default:
            NUMAWS_PANIC("sim job left unresolved (outcome %s)",
                         jobOutcomeName(j.outcome));
        }
        if (j.startCycles > 0.0)
            queue_us.push_back(j.queueCycles() * ns_per_cycle / 1000.0);
        if (j.outcome != JobOutcome::Done)
            continue;
        const double ns = j.latencyCycles() * ns_per_cycle;
        r.latency.record(ns > 0.0 ? static_cast<uint64_t>(ns) : 0);
        served_us.push_back(ns / 1000.0);
    }
    std::sort(served_us.begin(), served_us.end());
    std::sort(queue_us.begin(), queue_us.end());
    const auto exact = [](const std::vector<double> &sorted, double q) {
        if (sorted.empty())
            return 0.0;
        const auto n = static_cast<double>(sorted.size());
        auto idx = static_cast<std::size_t>(std::ceil(q * n));
        idx = idx > 0 ? idx - 1 : 0;
        if (idx >= sorted.size())
            idx = sorted.size() - 1;
        return sorted[idx];
    };
    r.p50Us = exact(served_us, 0.50);
    r.p99Us = exact(served_us, 0.99);
    r.p999Us = exact(served_us, 0.999);
    r.queueP50Us = exact(queue_us, 0.50);
    r.queueP99Us = exact(queue_us, 0.99);
    r.goodputPerSec = r.sim.elapsedSeconds > 0.0
                          ? static_cast<double>(r.done)
                                / r.sim.elapsedSeconds
                          : 0.0;
    return r;
}

ServingResult
simulateServingPacked(const ComputationDag &dag,
                      const std::vector<SimJob> &jobs, int cores,
                      const SimConfig &config, LatencyModel latency)
{
    const Machine machine = Machine::paperMachineSubset(cores);
    return simulateServing(dag, jobs, machine, cores, config, latency);
}

} // namespace numaws::sim

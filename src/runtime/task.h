/**
 * @file
 * Task objects for the threaded runtime.
 *
 * The paper's Cilk Plus substrate steals *continuations*, which requires
 * compiler support (Tapir lowers cilk_spawn into runtime calls that can
 * suspend a stack frame). A pure library cannot do that, so the threaded
 * engine uses the standard library-runtime model: a spawn allocates a child
 * task object, pushes it on the deque, and the parent continues. Every
 * NUMA-WS *mechanism* is retained at task granularity: the place hint with
 * inheritance, the stolen flag (the shadow-frame -> full-frame promotion
 * analogue), and the pushback counter that enforces the constant pushing
 * threshold. Task granularity is also what makes the serving mode's
 * cooperative controls possible in a library: spawn/sync boundaries are
 * the points where a running job observes cancellation and where a
 * raised yield directive preempts it in favor of a higher-class job
 * (runtime.h's TaskGroup::spawn, worker.cc's serviceYield). The
 * simulator (src/sim) models true continuation stealing.
 */
#ifndef NUMAWS_RUNTIME_TASK_H
#define NUMAWS_RUNTIME_TASK_H

#include <cstdint>
#include <utility>

#include "topology/place.h"

namespace numaws {

class TaskGroup;
class Worker;
struct JobState;

/**
 * Type-erased unit of work, living in a pooled task frame.
 *
 * Lifecycle (TaskPoolPolicy::Pooled, the default): spawn placement-news
 * the task into a frame from the spawning worker's NUMA-local
 * TaskFramePool and stamps poolOwner() with that worker's id; after
 * execution the running worker destroys the object and returns the
 * frame — to its own pool's local LIFO when it is the owner, or onto
 * the owner's remote-free stack when a thief finished a stolen task
 * (runtime/task_pool.h has the full lifecycle). Steady-state spawns
 * therefore recycle frames without touching the global heap. Tasks too
 * big (or too aligned) for the pool, every task under
 * TaskPoolPolicy::Heap, and the root frame keep poolOwner() == -1 and
 * the plain new/delete lifecycle.
 */
class TaskBase
{
  public:
    TaskBase(TaskGroup *group, Place place)
        : _group(group), _place(place)
    {}

    virtual ~TaskBase() = default;

    /** Run the closure on @p worker. */
    virtual void run(Worker &worker) = 0;

    TaskGroup *group() const { return _group; }
    Place place() const { return _place; }
    void setPlace(Place p) { _place = p; }

    /** Promotion analogue: set when a thief takes this task. */
    bool stolen() const { return _stolen; }
    void markStolen() { _stolen = true; }

    /** Failed PUSHBACK attempts so far (capped by the pushing threshold). */
    uint32_t pushCount() const { return _pushCount; }
    void incPushCount() { ++_pushCount; }

    /** @name Pooled-frame identity
     * Worker whose TaskFramePool owns this task's frame, or -1 for a
     * heap-allocated task (oversized, TaskPoolPolicy::Heap, or the
     * root). Stamped by spawn right after placement-new; the freeing
     * worker routes the frame home (or deletes) by it. */
    /// @{
    int poolOwner() const { return _poolOwner; }
    void setPoolOwner(int worker) { _poolOwner = worker; }
    /// @}

    /** @name Enclosing job
     * The job this task computes for: stamped on the root by submit,
     * inherited by every spawn from the spawning worker's current job
     * (so stolen subtasks carry it too). Workers track it across
     * executeTask to give spawn/sync boundaries and currentCancelToken
     * their cancellation view. Null for tasks outside any job (none
     * today — run() is submit().wait() — but the field is optional by
     * contract). Non-owning: the root task's closure keeps the state
     * alive until the job resolves, which outlives every subtask. */
    /// @{
    JobState *job() const { return _job; }
    void setJob(JobState *job) { _job = job; }
    /// @}

    /** @name Data homes (affinity hint)
     * Sockets homing the first and last page of the data range this
     * task chiefly touches (bit s == socket s), resolved once at spawn
     * through the runtime's PageMap; feeds the informed victim
     * weighting. 0 == no annotation, or unregistered data. */
    /// @{
    uint32_t dataHomes() const { return _dataHomes; }
    void setDataHomes(uint32_t mask) { _dataHomes = mask; }
    /// @}

  private:
    TaskGroup *_group;
    Place _place;
    JobState *_job = nullptr;
    bool _stolen = false;
    uint32_t _pushCount = 0;
    int32_t _poolOwner = -1;
    uint32_t _dataHomes = 0;
};

/** Concrete task holding a callable inline (one frame per spawn,
 * pool-recycled in steady state). */
template <typename F>
class TaskImpl final : public TaskBase
{
  public:
    TaskImpl(TaskGroup *group, Place place, F &&fn)
        : TaskBase(group, place), _fn(std::move(fn))
    {}

    void run(Worker &) override { _fn(); }

  private:
    F _fn;
};

} // namespace numaws

#endif // NUMAWS_RUNTIME_TASK_H

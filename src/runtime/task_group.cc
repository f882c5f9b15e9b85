#include "runtime/runtime.h"

#include "support/panic.h"

namespace numaws {

TaskGroup::TaskGroup() = default;

TaskGroup::~TaskGroup()
{
    // A group must not die with live children; sync here as a safety net
    // (mirrors the implicit cilk_sync at the end of every Cilk function).
    if (pending() > 0) {
        Worker *w = Worker::current();
        NUMAWS_ASSERT(w != nullptr);
        w->helpSync(*this);
    }
}

void
TaskGroup::sync()
{
    Worker *w = Worker::current();
    NUMAWS_ASSERT(w != nullptr); // sync only from inside run()
    NUMAWS_ASSERT(_owner == nullptr || _owner == w); // the owner's join
    w->helpSync(*this);
    NUMAWS_ASSERT(pending() == 0);

    // Lock only when a child failed. The unlocked read is ordered after
    // every child's recordException: a child the owner finished
    // recorded on this very thread, and a remote child recorded before
    // its release fetch_add on _remoteDone. helpSync exited on an
    // acquire load of _remoteDone that read the last of those
    // increments, and RMWs on one atomic form a single release
    // sequence, so that load synchronizes with every remote child.
    if (_exception) {
        std::exception_ptr e;
        {
            std::lock_guard<SpinLock> g(_exceptionLock);
            e = _exception;
            _exception = nullptr;
        }
        std::rethrow_exception(e);
    }

    // Cooperative cancellation boundary, checked *after* the join: the
    // children are accounted for either way (a JobCancelled unwind must
    // not orphan live tasks), but a cancelled or past-deadline job
    // stops here rather than proceeding into the next serial stage.
    // The destructor's implicit sync deliberately skips this — it must
    // not throw — so the unwind it helps along still joins cleanly.
    if (JobState *job = w->currentJob();
        job != nullptr && jobInterrupted(*job))
        throw JobCancelled{};

    // Preemption boundary, after the join for the same reason: the
    // nested higher-class job runs while *this* job is at a quiescent
    // point (no outstanding children in this group), so the yield can
    // never deadlock the join it sits behind.
    if (w->yieldPending())
        w->serviceYield();
}

void
TaskGroup::recordException(std::exception_ptr e)
{
    std::lock_guard<SpinLock> g(_exceptionLock);
    if (!_exception)
        _exception = std::move(e);
}

} // namespace numaws

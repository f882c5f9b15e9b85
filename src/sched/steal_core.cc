#include "sched/steal_core.h"

#include "sched/parking.h"
#include "support/panic.h"

namespace numaws {

StealAction
StealCore::nextAction()
{
    NUMAWS_ASSERT(_view.dist != nullptr);
    StealAction a;
    const bool informed = _policy.hierarchicalSteals && boardUsable();
    const OccupancyBoard *board = _view.board;
    // Board poll in place of a probe: when nothing anywhere advertises
    // work, skip the victim probe entirely — that is the probe the board
    // was built to save. Every 4th consecutive dry poll still probes
    // (insurance: a false-empty board may lag reality), so starvation is
    // impossible, merely delayed by a bounded factor.
    bool board_dry = false;
    if (informed && !board->anyWorkFor(_socket)) {
        _dryStreak = (_dryStreak + 1) & 3; // wrap: no overflow while idle
        if (_dryStreak != 0) {
            ++_counters.dryPolls;
            a.kind = StealAction::Kind::DryPoll;
            a.informedConsult = true;
            return a;
        }
        board_dry = true;
    } else {
        _dryStreak = 0;
    }
    ++_counters.stealAttempts;
    a.kind = StealAction::Kind::Probe;
    a.informedConsult = informed;
    const StealDistribution &dist = *_view.dist;
    if (_policy.hierarchicalSteals) {
        // Level-by-level search: sample only within the current
        // escalation radius; failures below widen it, success resets it.
        int level = _esc.level();
        if (informed) {
            // Board consult: jump past provably-dry levels without
            // burning the failures-per-level budget on them (the skip
            // and the weighted pick share one board snapshot). An
            // all-dry insurance probe widens to the outermost level
            // too, but that is not a board-informed skip — don't count
            // it as one.
            const int ladder_level = level;
            a.victim = dist.sampleVictimInformed(_self, &level, *board,
                                                 _affinity, _rng);
            if (level != ladder_level && !board_dry)
                ++_counters.levelSkips;
        } else {
            a.victim = dist.sampleAtLevel(_self, level, _rng);
        }
    } else {
        a.victim = dist.sample(_self, _rng);
    }
    // BIASEDSTEALWITHPUSH: flip a coin between the victim's mailbox and
    // its deque. Always checking the mailbox first would let a critical
    // node at a deque head starve (Section IV); coinFlip=false is the
    // ablation that prices exactly that.
    bool check_mailbox =
        _policy.useMailboxes && (!_policy.coinFlip || _rng.flip());
    // One-sided informed override: a *set* mailbox bit is never invented
    // (board contract), so steering the inspection toward it is sound.
    // An *unset* bit may be false-empty, so it must never suppress the
    // mailbox check — the coin's 50% inspection is the repair mechanism
    // that eventually finds a parked frame whose publication was lost,
    // even while the victim's deque stays nonempty forever.
    if (informed && _policy.useMailboxes
        && board->mailboxOccupied(a.victim)
        && !board->dequeNonempty(a.victim))
        check_mailbox = true;
    a.checkMailboxFirst = check_mailbox;
    // Remote-level victims pay a full cross-socket round trip per steal,
    // so those take a batch; closer victims keep the paper's
    // single-frame protocol.
    if (_policy.remoteStealHalf
        && dist.levelOf(_self, a.victim) == kLevelRemote) {
        a.remoteBatch = true;
        a.batchMax = _policy.stealHalfMax > 0 ? _policy.stealHalfMax : 1;
    }
    return a;
}

void
StealCore::onStealResult(const StealAction &action, bool got_work)
{
    if (action.kind != StealAction::Kind::Probe)
        return;
    if (!_policy.hierarchicalSteals)
        return;
    if (got_work) {
        _esc.onSuccessfulSteal();
        return;
    }
    const int before = _esc.level();
    _esc.onFailedSteal();
    if (_esc.level() != before)
        ++_counters.escalations;
}

int
StealCore::pickPreemptVictim(int cls, const int8_t *runningCls, int n)
{
    NUMAWS_ASSERT(cls >= 0 && cls < kNumServingClasses);
    // An idle worker means the admission wake already has a taker:
    // preempting anyone would run the job no sooner and cost a yield.
    for (int w = 0; w < n; ++w)
        if (runningCls[w] < 0)
            return -1;
    // Otherwise yield the worker running the lowest-priority class
    // strictly below the admitted job's (numerically greater); lowest
    // index on ties so both engines pick the same victim.
    int victim = -1;
    int worst = cls;
    for (int w = 0; w < n; ++w)
        if (runningCls[w] > worst) {
            worst = runningCls[w];
            victim = w;
        }
    return victim;
}

int
StealCore::pickPushReceiver(int first, int last, int self_in_range,
                            int target_socket)
{
    NUMAWS_ASSERT(first < last);
    // Board-guided receiver: sample only among workers whose mailbox
    // bit advertises room (never-invented occupancy means a set bit is
    // always a real frame, so skipping it saves a guaranteed-wasted
    // probe; a clear bit may be stale, in which case the deposit is
    // still rejected and the pusher retries as before). When every bit
    // on the place is set — or the knob is off — probe blind.
    const OccupancyBoard *board = _view.board;
    if (_policy.boardPushTargeting() && boardUsable()) {
        const int receiver = pickClearMailbox(
            first, last, self_in_range,
            board->mailboxBits(target_socket),
            [board](int w) { return board->workerMask(w); }, _rng);
        if (receiver >= 0)
            return receiver;
    }
    return first
           + static_cast<int>(_rng.nextBounded(
               static_cast<uint64_t>(last - first)));
}

} // namespace numaws

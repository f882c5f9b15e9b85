#include "topology/steal_distribution.h"

#include <algorithm>

#include "support/panic.h"

namespace numaws {

StealDistribution::StealDistribution(const Machine &machine, int workers,
                                     const BiasWeights &weights)
    : _numWorkers(workers), _weights(weights)
{
    NUMAWS_ASSERT(workers >= 1);
    double w_min = weights.perHop[0], w_max = weights.perHop[0];
    for (int h = 0; h <= std::min(machine.maxHops(), 2); ++h) {
        NUMAWS_ASSERT(weights.perHop[h] > 0.0);
        w_min = std::min(w_min, weights.perHop[h]);
        w_max = std::max(w_max, weights.perHop[h]);
    }
    // Occupancy must dominate whatever distance spread is configured: an
    // occupied victim at the worst distance weight must outrank a dry
    // one at the best (see kOccupancyBoost).
    _occupancyBoost = std::max(kOccupancyBoost, 2.0 * w_max / w_min);

    // Spread workers evenly across sockets, packed socket-major: the first
    // ceil(W/S) workers on socket 0, and so on. This matches the runtime's
    // startup policy ("spreads out the worker threads evenly across the
    // sockets and groups the threads on a given socket into a single
    // group").
    _workerSocket.resize(workers);
    _workerCoreGroup.resize(workers);
    const int sockets = machine.numSockets();
    _numSockets = sockets;
    _socketHops.resize(static_cast<std::size_t>(sockets) * sockets);
    for (int i = 0; i < sockets; ++i)
        for (int j = 0; j < sockets; ++j)
            _socketHops[static_cast<std::size_t>(i) * sockets + j] =
                machine.hops(i, j);
    const int per = (workers + sockets - 1) / sockets;
    for (int w = 0; w < workers; ++w) {
        _workerSocket[w] = std::min(w / per, sockets - 1);
        // Pair buddies: adjacent worker indices within a socket share a
        // core group (the hierarchical Core level).
        const int first_on_socket = _workerSocket[w] * per;
        _workerCoreGroup[w] = (w - first_on_socket) / kCoreGroupSize;
    }

    _probability.assign(static_cast<std::size_t>(workers) * workers, 0.0);
    _cumulative.assign(static_cast<std::size_t>(workers) * workers, 0.0);

    for (int thief = 0; thief < workers; ++thief) {
        double total = 0.0;
        for (int victim = 0; victim < workers; ++victim) {
            if (victim == thief)
                continue;
            const int h = std::min(
                machine.hops(_workerSocket[thief], _workerSocket[victim]), 2);
            total += weights.perHop[h];
        }
        double run = 0.0;
        for (int victim = 0; victim < workers; ++victim) {
            double p = 0.0;
            if (victim != thief && total > 0.0) {
                const int h = std::min(
                    machine.hops(_workerSocket[thief],
                                 _workerSocket[victim]),
                    2);
                p = weights.perHop[h] / total;
            }
            run += p;
            const std::size_t idx =
                static_cast<std::size_t>(thief) * workers + victim;
            _probability[idx] = p;
            _cumulative[idx] = run;
        }
        // Guard against floating point drift so sampling never walks off
        // the end of the row.
        if (workers > 1)
            _cumulative[static_cast<std::size_t>(thief) * workers
                        + (workers - 1)] = 1.0;
    }

    // Hierarchical ranking: per thief, victims sorted by distance level
    // (stable by id within a level) plus cumulative per-level counts.
    const std::size_t row = static_cast<std::size_t>(workers - 1);
    _victimsByLevel.resize(static_cast<std::size_t>(workers) * row);
    _levelPrefix.assign(
        static_cast<std::size_t>(workers) * kNumStealLevels, 0);
    for (int thief = 0; thief < workers; ++thief) {
        int *out = _victimsByLevel.data()
                   + static_cast<std::size_t>(thief) * row;
        int rank = 0;
        for (int level = 0; level < kNumStealLevels; ++level) {
            for (int victim = 0; victim < workers; ++victim)
                if (victim != thief && levelOf(thief, victim) == level)
                    out[rank++] = victim;
            _levelPrefix[static_cast<std::size_t>(thief) * kNumStealLevels
                         + level] = rank;
        }
        NUMAWS_ASSERT(rank == workers - 1);
    }
}

int
StealDistribution::levelOf(int thief, int victim) const
{
    NUMAWS_ASSERT(thief != victim);
    if (_workerSocket[thief] == _workerSocket[victim]) {
        return _workerCoreGroup[thief] == _workerCoreGroup[victim]
                   ? kLevelCore
                   : kLevelPlace;
    }
    const int hops =
        _socketHops[static_cast<std::size_t>(_workerSocket[thief])
                        * _numSockets
                    + _workerSocket[victim]];
    return hops <= 1 ? kLevelSocket : kLevelRemote;
}

int
StealDistribution::victimsWithinLevel(int thief, int level) const
{
    NUMAWS_ASSERT(level >= 0 && level < kNumStealLevels);
    return _levelPrefix[static_cast<std::size_t>(thief) * kNumStealLevels
                        + level];
}

int
StealDistribution::sampleAtLevel(int thief, int level, Rng &rng) const
{
    NUMAWS_ASSERT(_numWorkers > 1);
    level = std::min(std::max(level, 0), kNumStealLevels - 1);
    // Escalate internally past empty prefixes (e.g. a lone worker on its
    // socket has no Core or Place victims).
    int n = victimsWithinLevel(thief, level);
    while (n == 0 && level < kNumStealLevels - 1)
        n = victimsWithinLevel(thief, ++level);
    NUMAWS_ASSERT(n > 0); // outermost prefix holds all W-1 victims
    const int *row = _victimsByLevel.data()
                     + static_cast<std::size_t>(thief) * (_numWorkers - 1);
    return row[rng.nextBounded(static_cast<uint64_t>(n))];
}

/**
 * One-shot copy of the board's per-socket words: a steal decision reads
 * a consistent snapshot (two acquire loads per socket, <= 2 * sockets
 * total) instead of re-polling the atomics per victim, and the level
 * skip and the two weighted-sampling passes agree by construction — a
 * bit flipping mid-decision cannot skew the choice.
 */
struct StealDistribution::Snap
{
    static constexpr int kMaxSockets = 64;
    uint64_t dq[kMaxSockets];
    uint64_t mb[kMaxSockets];
    bool valid = false;

    explicit Snap(const OccupancyBoard &b)
    {
        if (!b.enabled() || b.numSockets() > kMaxSockets)
            return; // fall back to live per-victim reads
        for (int s = 0; s < b.numSockets(); ++s) {
            dq[s] = b.dequeBits(s);
            mb[s] = b.mailboxBits(s);
        }
        valid = true;
    }

    /** victimLive() against the snapshot (live reads if !valid). */
    bool
    live(const OccupancyBoard &b, int thief_socket, int victim,
         int victim_socket, uint64_t mask) const
    {
        if (!valid) {
            if (b.dequeNonempty(victim))
                return true;
            return thief_socket == victim_socket
                   && b.mailboxOccupied(victim);
        }
        if ((dq[victim_socket] & mask) != 0)
            return true;
        return thief_socket == victim_socket
               && (mb[victim_socket] & mask) != 0;
    }
};

int
StealDistribution::liveLevelFrom(int thief, int level,
                                 const OccupancyBoard &board,
                                 const Snap &snap) const
{
    const int tsock = _workerSocket[thief];
    const int total = _numWorkers - 1;
    const int *row = _victimsByLevel.data()
                     + static_cast<std::size_t>(thief) * total;
    const int within = victimsWithinLevel(thief, level);
    // The row is sorted by level, so the first victim with published
    // work identifies the first live level at or outside the radius.
    for (int i = 0; i < total; ++i) {
        const int v = row[i];
        if (snap.live(board, tsock, v, _workerSocket[v],
                      board.workerMask(v)))
            return i < within ? level : levelOf(thief, v);
    }
    // Board all-dry: every level is provably dry, so go straight to the
    // outermost. The probe there still runs (false-empty means the board
    // may lag reality, so probing never stops), but one machine-wide
    // probe replaces a ladder of cheap local ones — during genuine dry
    // spells this is what keeps the probe *count* down.
    return kNumStealLevels - 1;
}

int
StealDistribution::firstLiveLevel(int thief, int level,
                                  const OccupancyBoard &board) const
{
    level = std::min(std::max(level, 0), kNumStealLevels - 1);
    if (!board.enabled() || level == kNumStealLevels - 1)
        return level;
    return liveLevelFrom(thief, level, board, Snap(board));
}

double
StealDistribution::weightOf(int thief, int victim, bool live,
                            uint32_t affinity_sockets) const
{
    const int h =
        std::min(_socketHops[static_cast<std::size_t>(
                                 _workerSocket[thief])
                                 * _numSockets
                             + _workerSocket[victim]],
                 2);
    double w = _weights.perHop[h];
    if (live) {
        w *= _occupancyBoost;
        // Affinity refines the choice *among live candidates* only: a
        // dry victim on a data-home socket must never outrank an
        // occupied one elsewhere, or the inward bias that caused PR 1's
        // heat regression comes straight back.
        // Affinity masks cover 32 sockets; victims beyond that (huge
        // flat-SLIT machines) simply get no boost — shifting by >= 32
        // would be UB.
        if (_workerSocket[victim] < 32
            && ((affinity_sockets >> _workerSocket[victim]) & 1u) != 0)
            w *= kAffinityBoost;
    }
    return w;
}

double
StealDistribution::victimWeight(int thief, int victim,
                                const OccupancyBoard &board,
                                uint32_t affinity_sockets) const
{
    return weightOf(thief, victim, victimLive(thief, victim, board),
                    affinity_sockets);
}

int
StealDistribution::sampleFromSnap(int thief, int level,
                                  const OccupancyBoard &board,
                                  const Snap &snap,
                                  uint32_t affinity_sockets,
                                  Rng &rng) const
{
    int n = victimsWithinLevel(thief, level);
    while (n == 0 && level < kNumStealLevels - 1)
        n = victimsWithinLevel(thief, ++level);
    NUMAWS_ASSERT(n > 0);
    const int *row = _victimsByLevel.data()
                     + static_cast<std::size_t>(thief) * (_numWorkers - 1);

    // Two passes over one snapshot keep the steal path allocation free
    // and the passes mutually consistent; n <= P-1 and each weight is a
    // couple of bit tests against the snapshot.
    const int tsock = _workerSocket[thief];
    const auto weight = [&](int v) {
        return weightOf(thief, v,
                        snap.live(board, tsock, v, _workerSocket[v],
                                  board.workerMask(v)),
                        affinity_sockets);
    };
    double total = 0.0;
    for (int i = 0; i < n; ++i)
        total += weight(row[i]);
    double x = rng.nextDouble() * total;
    for (int i = 0; i < n; ++i) {
        x -= weight(row[i]);
        if (x < 0.0)
            return row[i];
    }
    return row[n - 1]; // floating point drift lands on the last victim
}

int
StealDistribution::sampleVictim(int thief, int level,
                                const OccupancyBoard *board,
                                uint32_t affinity_sockets, Rng &rng) const
{
    NUMAWS_ASSERT(_numWorkers > 1);
    if (board == nullptr || !board->enabled())
        return sampleAtLevel(thief, level, rng);
    level = std::min(std::max(level, 0), kNumStealLevels - 1);
    return sampleFromSnap(thief, level, *board, Snap(*board),
                          affinity_sockets, rng);
}

int
StealDistribution::sampleVictimInformed(int thief, int *level_io,
                                        const OccupancyBoard &board,
                                        uint32_t affinity_sockets,
                                        Rng &rng) const
{
    NUMAWS_ASSERT(_numWorkers > 1);
    NUMAWS_ASSERT(level_io != nullptr);
    int level = std::min(std::max(*level_io, 0), kNumStealLevels - 1);
    if (!board.enabled()) {
        *level_io = level;
        return sampleAtLevel(thief, level, rng);
    }
    const Snap snap(board);
    if (level < kNumStealLevels - 1)
        level = liveLevelFrom(thief, level, board, snap);
    *level_io = level;
    return sampleFromSnap(thief, level, board, snap,
                          affinity_sockets, rng);
}

int
StealDistribution::sample(int thief, Rng &rng) const
{
    NUMAWS_ASSERT(_numWorkers > 1);
    const double x = rng.nextDouble();
    const double *row =
        _cumulative.data() + static_cast<std::size_t>(thief) * _numWorkers;
    // Binary search for the first cumulative value > x.
    const double *it = std::upper_bound(row, row + _numWorkers, x);
    int victim = static_cast<int>(it - row);
    if (victim >= _numWorkers)
        victim = _numWorkers - 1;
    if (victim == thief) {
        // Zero-probability self entries share a cumulative value with the
        // preceding entry; upper_bound never lands on them unless the
        // thief is worker 0 with x == 0. Skip forward deterministically.
        victim = (victim + 1) % _numWorkers;
    }
    return victim;
}

double
StealDistribution::probability(int thief, int victim) const
{
    return _probability[static_cast<std::size_t>(thief) * _numWorkers
                        + victim];
}

double
StealDistribution::minProbability() const
{
    double min_p = 1.0;
    for (int t = 0; t < _numWorkers; ++t)
        for (int v = 0; v < _numWorkers; ++v)
            if (t != v)
                min_p = std::min(min_p, probability(t, v));
    return min_p;
}

} // namespace numaws

/**
 * @file
 * Locality-biased victim selection (Section III-B), flat and hierarchical.
 *
 * Classic work stealing picks a victim uniformly at random. NUMA-WS biases
 * the distribution by socket distance: victims on the thief's socket are
 * preferred, then one-hop sockets, then two-hop sockets. The bias must keep
 * every victim's probability at least 1/(cP) for a constant c — that lower
 * bound is what preserves the O(P * Tinf) steal bound of Section IV — so
 * weights are strictly positive by construction and validated here.
 *
 * On top of the flat biased distribution this file provides the *adaptive
 * hierarchical* victim search: victims are ranked into distance levels
 * (core -> place -> socket -> remote) and a thief samples uniformly among
 * victims at or inside its current level, escalating one level outward
 * after a run of consecutive failed steals (StealEscalation). At the
 * outermost level every victim is reachable, so a starving worker always
 * ends up stealing against any place hint rather than idling, and each
 * victim keeps probability >= 1/(P-1) there — the same 1/(cP) shape the
 * proof needs, reached after a constant number of failures.
 */
#ifndef NUMAWS_TOPOLOGY_STEAL_DISTRIBUTION_H
#define NUMAWS_TOPOLOGY_STEAL_DISTRIBUTION_H

#include <cstdint>
#include <vector>

#include "sched/occupancy.h"
#include "support/rng.h"
#include "topology/machine.h"

namespace numaws {

/** Floor for the occupancy weight multiplier. The effective boost is
 * max(kOccupancyBoost, 2 * configured distance spread), computed per
 * StealDistribution, so occupancy always dominates distance: a dry
 * nearby victim never outranks an occupied remote one, whatever
 * BiasWeights the user configured. With the default 8:2:1 weights the
 * effective boost is exactly this floor. */
inline constexpr double kOccupancyBoost = 16.0;

/** Weight multiplier for a victim on a socket homing the thief's data.
 * Smaller than the distance spread, so equal-affinity candidates are
 * still ordered by distance (affinity ties break by distance). */
inline constexpr double kAffinityBoost = 2.0;

/** Per-hop-count steal weights; index 0 is the local socket. */
struct BiasWeights
{
    /** Default matches the paper's "highest / medium / lowest" intent. */
    double perHop[3] = {8.0, 2.0, 1.0};

    /** Uniform weights recover the classic scheduler's distribution. */
    static BiasWeights
    uniform()
    {
        return BiasWeights{{1.0, 1.0, 1.0}};
    }
};

/**
 * Distance levels for hierarchical victim search, innermost first.
 *
 * Core: the thief's pair buddies (workers sharing its core group — adjacent
 * worker indices on the same socket, modelling a shared mid-level cache).
 * Place: the rest of the thief's socket (its virtual place).
 * Socket: one-hop sockets. Remote: two-or-more-hop sockets.
 */
enum StealLevel : int
{
    kLevelCore = 0,
    kLevelPlace = 1,
    kLevelSocket = 2,
    kLevelRemote = 3,
};

inline constexpr int kNumStealLevels = 4;

/** Workers per core group at the Core level (pair buddies). */
inline constexpr int kCoreGroupSize = 2;

/**
 * Per-thief escalation ladder for hierarchical stealing.
 *
 * A thief starts at its innermost nonempty level; each run of
 * failures_per_level consecutive failed steal attempts widens the search
 * by one level, and a successful acquisition narrows it by one level (not a
 * full reset: under steady cross-socket load the ladder settles at the
 * level where work actually is, instead of re-climbing from the core
 * level after every hit). Escalation reaches kLevelRemote (all victims)
 * after at most failures_per_level * kNumStealLevels failures, which
 * keeps the steal bound within a constant factor of the flat scheme.
 */
class StealEscalation
{
  public:
    explicit StealEscalation(int failures_per_level = 2)
        : _failuresPerLevel(failures_per_level > 0 ? failures_per_level : 1)
    {
    }

    int level() const { return _level; }
    bool atOutermostLevel() const { return _level == kNumStealLevels - 1; }

    /** A steal attempt found nothing: maybe widen the search. */
    void
    onFailedSteal()
    {
        if (++_failures >= _failuresPerLevel
            && _level < kNumStealLevels - 1) {
            ++_level;
            _failures = 0;
        }
    }

    /** Work was acquired: narrow the search by one level. */
    void
    onSuccessfulSteal()
    {
        if (_level > 0)
            --_level;
        _failures = 0;
    }

  private:
    int _failuresPerLevel;
    int _level = 0;
    int _failures = 0;
};

/**
 * Precomputed per-thief victim distribution over all workers of a machine.
 *
 * One instance is built per (machine, worker count, weights) configuration;
 * sampling is a binary search over a cumulative table, O(log P) with no
 * allocation, cheap enough for the steal path.
 *
 * The same instance also precomputes the distance-level ranking used by
 * hierarchical stealing: sampleAtLevel(thief, L) picks uniformly among the
 * victims whose level is <= L (escalating internally past empty levels),
 * so at kLevelRemote it degenerates to uniform over all victims.
 */
class StealDistribution
{
  public:
    /**
     * @param workers total number of workers, packed socket-major
     *        (worker w lives on socket w / coresPerSocket').
     * Workers are spread evenly across the machine's sockets: worker w is
     * on socket w * numSockets / workers when workers < cores, matching
     * the runtime's even-spread startup policy.
     */
    StealDistribution(const Machine &machine, int workers,
                      const BiasWeights &weights);

    /** Socket a worker belongs to under the even-spread policy. */
    int socketOfWorker(int worker) const { return _workerSocket[worker]; }

    /** Socket of every worker, the shape OccupancyBoard's constructor
     * takes. */
    const std::vector<int> &workerSockets() const { return _workerSocket; }

    /**
     * Sample a victim for @p thief; never returns the thief itself.
     */
    int sample(int thief, Rng &rng) const;

    /** Probability that @p thief targets @p victim on one attempt. */
    double probability(int thief, int victim) const;

    /** Smallest nonzero victim probability across all pairs. */
    double minProbability() const;

    int numWorkers() const { return _numWorkers; }
    int numSockets() const { return _numSockets; }

    /** Hop distance between two sockets (0 on the diagonal). */
    int
    socketHops(int from_socket, int to_socket) const
    {
        return _socketHops[static_cast<std::size_t>(from_socket)
                               * _numSockets
                           + to_socket];
    }

    /** @name Hierarchical victim search */
    /// @{
    /** Distance level of @p victim as seen from @p thief. */
    int levelOf(int thief, int victim) const;

    /** Victims of @p thief at level <= @p level (monotone in level). */
    int victimsWithinLevel(int thief, int level) const;

    /**
     * Sample uniformly among victims at level <= @p level; empty prefixes
     * escalate internally, so a victim is always returned when P > 1.
     * Never returns the thief.
     */
    int sampleAtLevel(int thief, int level, Rng &rng) const;
    /// @}

    /** @name Informed (occupancy/affinity-weighted) victim search */
    /// @{
    /**
     * Does @p victim hold work @p thief can use? Deque work counts from
     * anywhere; mailbox work only on the thief's own socket, because
     * PUSHBACK parks frames on their *place* — a cross-socket thief
     * taking one mostly forwards it straight back (churn, not
     * progress).
     */
    bool
    victimLive(int thief, int victim, const OccupancyBoard &board) const
    {
        if (board.dequeNonempty(victim))
            return true;
        return _workerSocket[thief] == _workerSocket[victim]
               && board.mailboxOccupied(victim);
    }

    /**
     * Smallest level >= @p level whose victim prefix contains a worker
     * with published work — the escalation level-skip: a thief jumps
     * straight past provably-dry levels without burning its
     * failures-per-level budget there. When the board shows no work at
     * any level the result is the outermost level: every level is
     * provably dry, so the (insurance) probe that still runs validates
     * the whole machine at once instead of a ladder of cheap local
     * misses. The probe itself never stops, so a false-empty board can
     * delay but never prevent any victim being reached.
     */
    int firstLiveLevel(int thief, int level,
                       const OccupancyBoard &board) const;

    /**
     * Sampling weight of @p victim for @p thief: the product of the
     * distance bias (perHop weights), kOccupancyBoost when the board
     * shows work at the victim, and kAffinityBoost when it does and
     * the victim's socket is in @p affinity_sockets (bit s == thief's
     * data homed on socket s; 0 == pure occupancy weighting).
     * Strictly positive for every victim, so every victim keeps
     * probability >= 1/(cP) within the sampled prefix — the Section IV
     * lower bound survives with c <= kOccupancyBoost * kAffinityBoost *
     * max-distance-spread.
     */
    double victimWeight(int thief, int victim,
                        const OccupancyBoard &board,
                        uint32_t affinity_sockets) const;

    /**
     * Weighted sample among victims at level <= @p level per
     * victimWeight(); a null/empty board degenerates to
     * sampleAtLevel(). Never returns the thief. No
     * level-skip — engines use sampleVictimInformed(), which performs
     * skip and sample against one board snapshot.
     */
    int sampleVictim(int thief, int level, const OccupancyBoard *board,
                     uint32_t affinity_sockets, Rng &rng) const;

    /**
     * The engines' steal-path entry point: firstLiveLevel() level-skip
     * plus weighted sampling, both evaluated against a single board
     * snapshot (one pair of loads per socket per attempt, and the level
     * choice and the weights cannot disagree about a flipping bit).
     * @param level_io in: the escalation ladder's level; out: the level
     *        actually sampled (callers diff the two to count skips).
     */
    int sampleVictimInformed(int thief, int *level_io,
                             const OccupancyBoard &board,
                             uint32_t affinity_sockets, Rng &rng) const;
    /// @}

  private:
    /** One-shot copy of the board's socket words (defined in the .cc). */
    struct Snap;

    /** victimWeight with the liveness verdict precomputed (sampling
     * evaluates it against one board snapshot for consistency). */
    double weightOf(int thief, int victim, bool live,
                    uint32_t affinity_sockets) const;

    /** firstLiveLevel() against an existing snapshot. */
    int liveLevelFrom(int thief, int level, const OccupancyBoard &board,
                      const Snap &snap) const;

    /** Weighted pick among victims at level <= @p level from @p snap. */
    int sampleFromSnap(int thief, int level, const OccupancyBoard &board,
                       const Snap &snap, uint32_t affinity_sockets,
                       Rng &rng) const;

    int _numWorkers;
    int _numSockets;
    BiasWeights _weights;
    /** max(kOccupancyBoost, 2 * distance spread): see kOccupancyBoost. */
    double _occupancyBoost = kOccupancyBoost;
    std::vector<int> _workerSocket;
    std::vector<int> _workerCoreGroup; ///< pair-buddy group within socket
    std::vector<int> _socketHops;      ///< row-major socket hop matrix
    // Row-major [thief][victim] cumulative probabilities.
    std::vector<double> _cumulative;
    std::vector<double> _probability;
    // Row-major [thief][rank]: victims sorted by level then id (W-1 per
    // thief), plus [thief][level] counts of victims at level <= L.
    std::vector<int> _victimsByLevel;
    std::vector<int> _levelPrefix;
};

} // namespace numaws

#endif // NUMAWS_TOPOLOGY_STEAL_DISTRIBUTION_H

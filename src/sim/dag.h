/**
 * @file
 * Fork-join computation representation for the simulated machine.
 *
 * A computation is a tree of *frames* (the unit of scheduling, like a Cilk
 * function instance). Each frame is a sequence of items: strands (straight
 * -line work with a cycle cost and a memory footprint), spawns (descend
 * into a child frame, leaving the continuation stealable), and syncs. This
 * mirrors the dag model of Section IV: a spawn is a two-out-degree node,
 * a sync a multi-in-degree node, and strands are the unit-cost nodes in
 * between (here weighted by cycles instead of split into unit chains).
 *
 * Workload generators (src/workloads) lower each benchmark into this form
 * with analytic cycle costs and the same data-access pattern as the real
 * code; the simulated schedulers then execute it with continuation
 * stealing exactly as in the paper's Figures 2 and 5.
 */
#ifndef NUMAWS_SIM_DAG_H
#define NUMAWS_SIM_DAG_H

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/panic.h"
#include "topology/place.h"

namespace numaws::sim {

using FrameId = int32_t;
using RegionId = int32_t;

inline constexpr FrameId kNoFrame = -1;

/** How a data region's pages map to sockets in the simulated machine. */
enum class RegionPolicy : uint8_t {
    /** All pages on one socket (serial first-touch lands everything on 0). */
    Single,
    /** Pages round-robined across sockets (numactl --interleave). */
    Interleaved,
    /** Contiguous chunks, chunk i on socket i*sockets/chunks. */
    Partitioned,
    /** Custom mapping from byte offset to socket. */
    Custom,
};

/** A named allocation the computation reads and writes. */
struct Region
{
    std::string name;
    uint64_t bytes = 0;
    RegionPolicy policy = RegionPolicy::Single;
    int home = 0; ///< for Single
    /** for Custom: socket owning a given byte offset. */
    std::function<int(uint64_t)> customHome;
    /** Synthetic base address assigned by the builder (page aligned). */
    uint64_t base = 0;
};

/**
 * Byte ranges touched by a strand: @p rows runs of @p bytes, the r-th
 * starting at offset + r * stride (one contiguous range by default; a
 * row-major matrix block is one access with a row per block row).
 */
struct MemAccess
{
    RegionId region;
    uint64_t offset;
    uint64_t bytes;
    uint32_t rows = 1;
    uint64_t stride = 0;
};

/** Frame item kinds. */
enum class ItemKind : uint8_t { Strand, Spawn, Sync };

/** One step of a frame's body. */
struct Item
{
    ItemKind kind;
    /** Strand: pure compute cycles (memory cost is added by the model). */
    double cycles = 0.0;
    /** Strand: indices into ComputationDag::accesses. */
    uint32_t accessBegin = 0;
    uint32_t accessEnd = 0;
    /** Spawn: the child frame. */
    FrameId child = kNoFrame;
};

/**
 * A function instance: a slice of the item array plus a locality hint.
 *
 * Items and accesses are shared by every appended copy of a dag, so
 * their frame and region ids are relative to the copy: a frame resolves
 * them with child() and region(), which add its copy's offsets (zero in
 * a dag straight from the builder).
 */
struct Frame
{
    uint32_t itemBegin = 0;
    uint32_t itemEnd = 0;
    Place place = kAnyPlace;
    FrameId parent = kNoFrame;
    /** Item index in the parent where its continuation resumes. */
    uint32_t parentResumeItem = 0;
    FrameId childOffset = 0;
    RegionId regionOffset = 0;

    /** The frame a Spawn item of this frame descends into. */
    FrameId
    child(const Item &spawn) const
    {
        return spawn.child + childOffset;
    }

    /** The region an access of one of this frame's strands touches. */
    RegionId
    region(const MemAccess &a) const
    {
        return a.region + regionOffset;
    }
};

/** Nominal work/span of a dag in cycles (memory cost excluded). */
struct WorkSpan
{
    double work = 0.0;
    double span = 0.0;
};

/**
 * Immutable fork-join computation.
 */
class ComputationDag
{
  public:
    const Frame &frame(FrameId f) const { return _frames[f]; }
    const Item &item(uint32_t i) const { return _items[i]; }
    const MemAccess &access(uint32_t a) const { return _accesses[a]; }
    const Region &region(RegionId r) const { return _regions[r]; }

    FrameId root() const { return _root; }
    std::size_t numFrames() const { return _frames.size(); }
    std::size_t numItems() const { return _items.size(); }
    std::size_t numAccesses() const { return _accesses.size(); }
    std::size_t numRegions() const { return _regions.size(); }
    std::size_t numStrands() const { return _numStrands; }

    /**
     * Nominal work and span of the root() tree in cycles, memory and
     * scheduling costs excluded (the serial elision's work). Computed
     * once, when the dag is sealed.
     */
    WorkSpan workSpan() const { return _nominal; }

    /**
     * Work and span of the root() tree with @p spawn_cost charged per
     * spawn and @p sync_cost per sync. Span is the longest path through
     * the fork-join structure.
     */
    WorkSpan workSpan(double spawn_cost, double sync_cost) const;

    /** Home socket of a byte within a region, given the socket count. */
    int homeOf(RegionId r, uint64_t offset, int sockets) const;

    /** True if any frame carries a concrete locality hint. */
    bool hasPlaceHints() const;

    /** Total bytes across all regions (footprint reporting). */
    uint64_t totalRegionBytes() const;

    /**
     * Graft @p other into this dag as an additional independent tree
     * (the serving front door's multi-job merge). Frames and regions
     * are copied per call; the copied frames carry the frame and
     * region offsets their shared items and accesses resolve with.
     * Items and accesses are copied only the first time a given
     * version of @p other is appended, and shared by every later copy
     * of it. Region base addresses are rebased past this dag's highest
     * allocation so the LLC model never aliases two jobs' data.
     * root() and workSpan() are unchanged (set from the first tree
     * appended into an empty dag); the returned FrameId is @p other's
     * root here — the job root the serving simulator injects at
     * arrival time.
     */
    FrameId append(const ComputationDag &other);

  private:
    friend class DagBuilder;

    /** Where a source version's items and accesses start in ours. */
    struct SharedSlice
    {
        uint32_t itemBegin;
        uint32_t accessBegin;
    };

    FrameId _root = kNoFrame;
    std::size_t _numStrands = 0;
    WorkSpan _nominal;
    /**
     * Names the current contents of the item and access arrays: taken
     * from a process-wide counter by finish() and by every append(),
     * never reused, so a dag destroyed and rebuilt at the same address
     * is never mistaken for one already appended.
     */
    uint64_t _version = 0;
    std::vector<Frame> _frames;
    std::vector<Item> _items;
    std::vector<MemAccess> _accesses;
    std::vector<Region> _regions;
    /** Source versions appended so far, by version. */
    std::unordered_map<uint64_t, SharedSlice> _shared;
};

/**
 * Streaming builder for ComputationDag.
 *
 * Frames are built with an explicit open-frame stack so recursive workload
 * generators read naturally:
 * @code
 *   DagBuilder b;
 *   auto a = b.region("A", bytes, RegionPolicy::Partitioned);
 *   b.beginRoot();
 *     b.spawn(p0);             // opens child frame hinted at place 0
 *       b.strand(cycles, {{a, 0, n}});
 *     b.end();                 // closes child
 *     b.strand(...);           // continuation work
 *     b.sync();
 *   b.end();
 *   ComputationDag dag = b.finish();
 * @endcode
 */
class DagBuilder
{
  public:
    DagBuilder();

    /** Register a data region; returns its id. */
    RegionId region(std::string name, uint64_t bytes, RegionPolicy policy,
                    int home = 0);
    /** Register a region with a custom offset -> socket mapping. */
    RegionId regionCustom(std::string name, uint64_t bytes,
                          std::function<int(uint64_t)> home_of);

    /** Open the root frame (exactly once, first). */
    void beginRoot(Place place = kAnyPlace);

    /**
     * Open a child frame of the current frame (a cilk_spawn).
     * @param place a concrete place, kAnyPlace (@ANY: unset the hint),
     *        or kInheritPlace (default: adopt the spawner's hint, the
     *        paper's inheritance rule).
     */
    void spawn(Place place = kInheritPlace);

    /** Close the current frame (returns to the parent). */
    void end();

    /** Append a strand to the current frame. */
    void
    strand(double cycles, std::initializer_list<MemAccess> accesses)
    {
        strand(cycles, accesses.begin(), accesses.end());
    }
    void
    strand(double cycles, const std::vector<MemAccess> &accesses)
    {
        strand(cycles, accesses.data(), accesses.data() + accesses.size());
    }

    /** Append a cilk_sync to the current frame. */
    void sync();

    /** Spawn + single strand + end, the common leaf shape. */
    void
    spawnLeaf(Place place, double cycles,
              std::initializer_list<MemAccess> accesses)
    {
        spawn(place);
        strand(cycles, accesses);
        end();
    }

    /** Validate and seal the dag. The builder is consumed. */
    ComputationDag finish();

  private:
    void requireOpenFrame() const;
    void strand(double cycles, const MemAccess *first,
                const MemAccess *last);

    ComputationDag _dag;
    // Items of the open frames accumulate on one pending stack, each
    // frame's above its parent's, and move to the dag on end() so a
    // frame's items are contiguous.
    struct OpenFrame
    {
        FrameId id;
        std::size_t pendingBegin;
        int spawnsSinceSync = 0;
    };
    std::vector<OpenFrame> _stack;
    std::vector<Item> _pending;
    uint64_t _nextBase = 1ULL << 20; // synthetic address space cursor
    bool _finished = false;
};

} // namespace numaws::sim

#endif // NUMAWS_SIM_DAG_H

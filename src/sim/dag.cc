#include "sim/dag.h"

#include <algorithm>
#include <atomic>

#include "mem/page_map.h"

namespace numaws::sim {

namespace {

/** A fresh ComputationDag version (see ComputationDag::_version). */
uint64_t
nextVersion()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

// ---------------------------------------------------------------------
// ComputationDag
// ---------------------------------------------------------------------

WorkSpan
ComputationDag::workSpan(double spawn_cost, double sync_cost) const
{
    // Children are created after their parents, so child ids exceed parent
    // ids; one reverse sweep computes every frame before its parent needs
    // it (no recursion, safe for deep dags).
    std::vector<double> work(_frames.size(), 0.0);
    std::vector<double> span(_frames.size(), 0.0);

    for (std::size_t i = _frames.size(); i-- > 0;) {
        const Frame &f = _frames[i];
        double w = 0.0;
        double t = 0.0;          // time along the frame's own path
        double pending_max = 0.0; // max completion among unsynced children
        for (uint32_t it = f.itemBegin; it < f.itemEnd; ++it) {
            const Item &item = _items[it];
            switch (item.kind) {
              case ItemKind::Strand:
                w += item.cycles;
                t += item.cycles;
                break;
              case ItemKind::Spawn: {
                const FrameId child = f.child(item);
                w += spawn_cost + work[child];
                t += spawn_cost;
                pending_max = std::max(pending_max, t + span[child]);
                break;
              }
              case ItemKind::Sync:
                w += sync_cost;
                t += sync_cost;
                t = std::max(t, pending_max);
                pending_max = 0.0;
                break;
            }
        }
        work[i] = w;
        span[i] = t;
    }
    return {work[_root], span[_root]};
}

int
ComputationDag::homeOf(RegionId r, uint64_t offset, int sockets) const
{
    const Region &reg = _regions[r];
    switch (reg.policy) {
      case RegionPolicy::Single:
        return reg.home < sockets ? reg.home : 0;
      case RegionPolicy::Interleaved:
        return static_cast<int>((offset / kPageBytes)
                                % static_cast<uint64_t>(sockets));
      case RegionPolicy::Partitioned: {
        if (reg.bytes == 0)
            return 0;
        const uint64_t clamped = std::min(offset, reg.bytes - 1);
        return static_cast<int>(
            clamped * static_cast<uint64_t>(sockets) / reg.bytes);
      }
      case RegionPolicy::Custom: {
        const int home = reg.customHome(offset);
        return home < sockets ? home : home % sockets;
      }
    }
    return 0;
}

bool
ComputationDag::hasPlaceHints() const
{
    for (const Frame &f : _frames)
        if (isConcretePlace(f.place))
            return true;
    return false;
}

uint64_t
ComputationDag::totalRegionBytes() const
{
    uint64_t total = 0;
    for (const Region &r : _regions)
        total += r.bytes;
    return total;
}

FrameId
ComputationDag::append(const ComputationDag &other)
{
    NUMAWS_ASSERT(other._root != kNoFrame && &other != this);
    const auto frame_off = static_cast<FrameId>(_frames.size());
    const auto region_off = static_cast<RegionId>(_regions.size());

    // Rebase the appended regions past our highest allocation, rounded
    // up to a fresh 1 MiB arena (the builder's base cursor starts at
    // 1 MiB, so every incoming base is >= that and the shift keeps all
    // addresses disjoint and page aligned). Region ends grow with their
    // ids — the builder's cursor only advances and every append lands
    // past the last end — so the last region ends highest.
    const uint64_t high = _regions.empty()
                              ? 0
                              : _regions.back().base + _regions.back().bytes;
    constexpr uint64_t kArena = 1ULL << 20;
    const uint64_t delta = (high + kArena - 1) / kArena * kArena;
    for (const Region &r : other._regions) {
        Region copy = r;
        copy.base += delta;
        _regions.push_back(std::move(copy));
    }

    // The first append of this version of @p other brings its items and
    // accesses; every later one shares them.
    const auto [slot, fresh] = _shared.try_emplace(
        other._version,
        SharedSlice{static_cast<uint32_t>(_items.size()),
                    static_cast<uint32_t>(_accesses.size())});
    const SharedSlice shared = slot->second;
    if (fresh) {
        _accesses.insert(_accesses.end(), other._accesses.begin(),
                         other._accesses.end());
        _items.insert(_items.end(), other._items.begin(),
                      other._items.end());
        for (std::size_t i = shared.itemBegin; i < _items.size(); ++i) {
            _items[i].accessBegin += shared.accessBegin;
            _items[i].accessEnd += shared.accessBegin;
        }
    }

    _frames.insert(_frames.end(), other._frames.begin(),
                   other._frames.end());
    for (std::size_t i = static_cast<std::size_t>(frame_off);
         i < _frames.size(); ++i) {
        Frame &f = _frames[i];
        f.itemBegin += shared.itemBegin;
        f.itemEnd += shared.itemBegin;
        f.parentResumeItem += shared.itemBegin;
        if (f.parent != kNoFrame)
            f.parent += frame_off;
        f.childOffset += frame_off;
        f.regionOffset += region_off;
    }
    _numStrands += other._numStrands;
    _version = nextVersion();
    const FrameId appended_root = other._root + frame_off;
    if (_root == kNoFrame) {
        _root = appended_root;
        _nominal = other._nominal;
    }
    return appended_root;
}

// ---------------------------------------------------------------------
// DagBuilder
// ---------------------------------------------------------------------

DagBuilder::DagBuilder() = default;

RegionId
DagBuilder::region(std::string name, uint64_t bytes, RegionPolicy policy,
                   int home)
{
    NUMAWS_ASSERT(!_finished);
    NUMAWS_ASSERT(policy != RegionPolicy::Custom);
    Region r;
    r.name = std::move(name);
    r.bytes = bytes;
    r.policy = policy;
    r.home = home;
    r.base = _nextBase;
    _nextBase += (bytes + kPageBytes - 1) / kPageBytes * kPageBytes
                 + kPageBytes; // guard page between regions
    _dag._regions.push_back(std::move(r));
    return static_cast<RegionId>(_dag._regions.size() - 1);
}

RegionId
DagBuilder::regionCustom(std::string name, uint64_t bytes,
                         std::function<int(uint64_t)> home_of)
{
    NUMAWS_ASSERT(!_finished);
    Region r;
    r.name = std::move(name);
    r.bytes = bytes;
    r.policy = RegionPolicy::Custom;
    r.customHome = std::move(home_of);
    r.base = _nextBase;
    _nextBase += (bytes + kPageBytes - 1) / kPageBytes * kPageBytes
                 + kPageBytes;
    _dag._regions.push_back(std::move(r));
    return static_cast<RegionId>(_dag._regions.size() - 1);
}

void
DagBuilder::beginRoot(Place place)
{
    NUMAWS_ASSERT(!_finished && _stack.empty()
                  && _dag._root == kNoFrame);
    Frame f;
    f.place = place;
    f.parent = kNoFrame;
    _dag._frames.push_back(f);
    _dag._root = 0;
    _stack.push_back(OpenFrame{0, _pending.size(), 0});
}

void
DagBuilder::spawn(Place place)
{
    requireOpenFrame();
    OpenFrame &parent = _stack.back();

    Frame f;
    f.place = place == kInheritPlace ? _dag._frames[parent.id].place
                                     : place;
    f.parent = parent.id;
    const FrameId child = static_cast<FrameId>(_dag._frames.size());
    _dag._frames.push_back(f);

    Item spawn_item;
    spawn_item.kind = ItemKind::Spawn;
    spawn_item.child = child;
    _pending.push_back(spawn_item);
    ++parent.spawnsSinceSync;

    _stack.push_back(OpenFrame{child, _pending.size(), 0});
}

void
DagBuilder::strand(double cycles, const MemAccess *first,
                   const MemAccess *last)
{
    requireOpenFrame();
    NUMAWS_ASSERT(cycles >= 0.0);
    Item item;
    item.kind = ItemKind::Strand;
    item.cycles = cycles;
    item.accessBegin = static_cast<uint32_t>(_dag._accesses.size());
    for (const MemAccess *a = first; a != last; ++a) {
        NUMAWS_ASSERT(a->region >= 0
                      && a->region
                             < static_cast<RegionId>(_dag._regions.size()));
        NUMAWS_ASSERT(a->rows >= 1
                      && (a->rows == 1 || a->stride >= a->bytes));
        NUMAWS_ASSERT(a->offset + (a->rows - 1ULL) * a->stride + a->bytes
                      <= _dag._regions[a->region].bytes);
        if (a->bytes > 0)
            _dag._accesses.push_back(*a);
    }
    item.accessEnd = static_cast<uint32_t>(_dag._accesses.size());
    _pending.push_back(item);
    ++_dag._numStrands;
}

void
DagBuilder::sync()
{
    requireOpenFrame();
    Item item;
    item.kind = ItemKind::Sync;
    _pending.push_back(item);
    _stack.back().spawnsSinceSync = 0;
}

void
DagBuilder::end()
{
    requireOpenFrame();
    // Cilk semantics: implicit sync at the end of every spawning function.
    if (_stack.back().spawnsSinceSync > 0)
        sync();

    const OpenFrame open = _stack.back();
    _stack.pop_back();

    // The frame's items are the top of the pending stack: its children
    // have all ended and taken theirs.
    Frame &f = _dag._frames[open.id];
    f.itemBegin = static_cast<uint32_t>(_dag._items.size());
    for (std::size_t k = open.pendingBegin; k < _pending.size(); ++k) {
        const Item &item = _pending[k];
        if (item.kind == ItemKind::Spawn) {
            // The parent's continuation resumes at the next item.
            _dag._frames[item.child].parentResumeItem =
                static_cast<uint32_t>(_dag._items.size()) + 1;
        }
        _dag._items.push_back(item);
    }
    _pending.resize(open.pendingBegin);
    f.itemEnd = static_cast<uint32_t>(_dag._items.size());
}

ComputationDag
DagBuilder::finish()
{
    NUMAWS_ASSERT(!_finished);
    NUMAWS_ASSERT(_stack.empty());
    NUMAWS_ASSERT(_dag._root != kNoFrame);
    _finished = true;
    _dag._nominal = _dag.workSpan(0.0, 0.0);
    _dag._version = nextVersion();
    return std::move(_dag);
}

void
DagBuilder::requireOpenFrame() const
{
    NUMAWS_ASSERT(!_finished && !_stack.empty());
}

} // namespace numaws::sim

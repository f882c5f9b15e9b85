/**
 * @file
 * Computation-dag builder tests: structure, implicit syncs, work/span
 * arithmetic, region home resolution, and appending dags into one.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mem/page_map.h"
#include "sim/dag.h"

namespace numaws::sim {
namespace {

TEST(DagBuilder, SingleStrandRoot)
{
    DagBuilder b;
    b.beginRoot();
    b.strand(100.0, {});
    b.end();
    const ComputationDag dag = b.finish();
    EXPECT_EQ(dag.numFrames(), 1u);
    EXPECT_EQ(dag.numStrands(), 1u);
    const WorkSpan ws = dag.workSpan();
    EXPECT_DOUBLE_EQ(ws.work, 100.0);
    EXPECT_DOUBLE_EQ(ws.span, 100.0);
}

TEST(DagBuilder, SpawnCreatesParallelism)
{
    DagBuilder b;
    b.beginRoot();
    b.spawn(kAnyPlace);
    b.strand(50.0, {});
    b.end();
    b.strand(50.0, {});
    b.sync();
    b.end();
    const ComputationDag dag = b.finish();
    const WorkSpan ws = dag.workSpan();
    EXPECT_DOUBLE_EQ(ws.work, 100.0);
    EXPECT_DOUBLE_EQ(ws.span, 50.0); // the two strands overlap
}

TEST(DagBuilder, ImplicitSyncAtFrameEnd)
{
    DagBuilder b;
    b.beginRoot();
    b.spawn(kAnyPlace);
    b.strand(10.0, {});
    b.end();
    // no explicit sync before end(): builder must insert one
    b.end();
    const ComputationDag dag = b.finish();
    const Frame &root = dag.frame(dag.root());
    EXPECT_EQ(dag.item(root.itemEnd - 1).kind, ItemKind::Sync);
}

TEST(DagBuilder, SequentialDependenceViaSync)
{
    DagBuilder b;
    b.beginRoot();
    b.spawn(kAnyPlace);
    b.strand(30.0, {});
    b.end();
    b.sync(); // serialize
    b.spawn(kAnyPlace);
    b.strand(30.0, {});
    b.end();
    b.sync();
    b.end();
    const WorkSpan ws = b.finish().workSpan();
    EXPECT_DOUBLE_EQ(ws.work, 60.0);
    EXPECT_DOUBLE_EQ(ws.span, 60.0);
}

TEST(DagBuilder, SpawnSyncCostsAppearInWorkSpan)
{
    DagBuilder b;
    b.beginRoot();
    b.spawn(kAnyPlace);
    b.strand(10.0, {});
    b.end();
    b.strand(10.0, {});
    b.sync();
    b.end();
    const WorkSpan ws = b.finish().workSpan(5.0, 3.0);
    // work = 2 strands + spawn + sync = 10+10+5+3.
    EXPECT_DOUBLE_EQ(ws.work, 28.0);
    // span = spawn + max(child, continuation) + sync = 5 + 10 + 3.
    EXPECT_DOUBLE_EQ(ws.span, 18.0);
}

TEST(DagBuilder, ParentResumeItemPointsPastSpawn)
{
    DagBuilder b;
    b.beginRoot();
    b.strand(1.0, {});
    b.spawn(kAnyPlace);
    b.strand(2.0, {});
    b.end();
    b.strand(3.0, {});
    b.sync();
    b.end();
    const ComputationDag dag = b.finish();
    const Frame &root = dag.frame(0);
    const Frame &child = dag.frame(1);
    EXPECT_EQ(child.parent, 0);
    // Root items: strand, spawn, strand, sync. Spawn at itemBegin+1 ->
    // resume at itemBegin+2.
    EXPECT_EQ(child.parentResumeItem, root.itemBegin + 2);
    EXPECT_EQ(dag.item(child.parentResumeItem).kind, ItemKind::Strand);
}

TEST(DagBuilder, PlaceHintsRecorded)
{
    DagBuilder b;
    b.beginRoot();
    b.spawn(Place{2});
    b.strand(1.0, {});
    b.end();
    b.end();
    const ComputationDag dag = b.finish();
    EXPECT_EQ(dag.frame(1).place, 2);
    EXPECT_EQ(dag.frame(0).place, kAnyPlace);
}

TEST(Regions, HomeResolutionPerPolicy)
{
    DagBuilder b;
    const RegionId single = b.region("s", 1 << 20, RegionPolicy::Single, 2);
    const RegionId inter = b.region("i", 1 << 20,
                                    RegionPolicy::Interleaved);
    const RegionId part = b.region("p", 1 << 20,
                                   RegionPolicy::Partitioned);
    const RegionId custom = b.regionCustom(
        "c", 1 << 20, [](uint64_t off) { return off < 512 ? 1 : 3; });
    b.beginRoot();
    b.strand(1.0, {});
    b.end();
    const ComputationDag dag = b.finish();

    EXPECT_EQ(dag.homeOf(single, 0, 4), 2);
    EXPECT_EQ(dag.homeOf(single, 0, 2), 0); // clamped when out of range

    EXPECT_EQ(dag.homeOf(inter, 0, 4), 0);
    EXPECT_EQ(dag.homeOf(inter, 4096, 4), 1);
    EXPECT_EQ(dag.homeOf(inter, 4 * 4096, 4), 0);

    EXPECT_EQ(dag.homeOf(part, 0, 4), 0);
    EXPECT_EQ(dag.homeOf(part, (1 << 20) - 1, 4), 3);
    EXPECT_EQ(dag.homeOf(part, 1 << 19, 4), 2);

    EXPECT_EQ(dag.homeOf(custom, 0, 4), 1);
    EXPECT_EQ(dag.homeOf(custom, 600, 4), 3);
}

TEST(Regions, DistinctBasesWithGuardGap)
{
    DagBuilder b;
    b.region("a", 100, RegionPolicy::Single, 0);
    b.region("b", 100, RegionPolicy::Single, 0);
    b.beginRoot();
    b.strand(1.0, {});
    b.end();
    const ComputationDag dag = b.finish();
    EXPECT_GT(dag.region(1).base,
              dag.region(0).base + dag.region(0).bytes);
}

TEST(Dag, AccessBoundsValidated)
{
    DagBuilder b;
    const RegionId r = b.region("r", 1024, RegionPolicy::Single, 0);
    b.beginRoot();
    b.strand(1.0, {{r, 0, 1024}}); // exactly at the bound: fine
    // Rows [0,64), [320,384), [640,704), [960,1024): the last row ends
    // exactly at the bound too.
    b.strand(1.0, {{r, 0, 64, 4, 320}});
    b.end();
    EXPECT_EQ(b.finish().numStrands(), 2u);
}

// ---------------------------------------------------------------------
// append
// ---------------------------------------------------------------------

/**
 * A two-region source: a hinted root with a nested spawn, @p leaves
 * spawned leaves, strided and plain accesses, cycles scaled by
 * @p scale so differently built sources tell apart.
 */
ComputationDag
sourceDag(double scale, int leaves)
{
    DagBuilder b;
    const RegionId x = b.region("x", 3 * kPageBytes + 100,
                                RegionPolicy::Partitioned);
    const RegionId y = b.region("y", 64 * 1024, RegionPolicy::Interleaved);
    b.beginRoot(Place{1});
    b.strand(1.0 * scale, {{x, 0, 100}});
    b.spawn(kAnyPlace);
    b.spawn();
    b.strand(2.0 * scale, {{y, 0, 512, 4, 1024}});
    b.end();
    b.strand(3.0 * scale, {{x, 4096, 64}, {y, 100, 8}});
    b.end();
    for (int i = 0; i < leaves; ++i)
        b.spawnLeaf(Place{i % 4}, 5.0 * scale,
                    {{y, static_cast<uint64_t>(i) * 64, 64}});
    b.strand(4.0 * scale, {});
    b.sync();
    b.end();
    return b.finish();
}

/**
 * Everything the tree under @p f executes, in order, with each access's
 * region resolved to that region's own name and size: two copies of
 * one source describe alike. Adds the resolved region ids to
 * @p regions and checks every child's parent links on the way.
 */
std::string
describe(const ComputationDag &dag, FrameId f,
         std::set<RegionId> *regions = nullptr)
{
    const Frame &fr = dag.frame(f);
    std::string out = "f" + std::to_string(fr.place) + "(";
    for (uint32_t i = fr.itemBegin; i < fr.itemEnd; ++i) {
        const Item &item = dag.item(i);
        switch (item.kind) {
          case ItemKind::Strand:
            out += "s" + std::to_string(item.cycles);
            for (uint32_t a = item.accessBegin; a < item.accessEnd; ++a) {
                const MemAccess &acc = dag.access(a);
                const RegionId r = fr.region(acc);
                const Region &reg = dag.region(r);
                out += "[" + reg.name + std::to_string(reg.bytes) + ":"
                       + std::to_string(acc.offset) + "+"
                       + std::to_string(acc.bytes) + "x"
                       + std::to_string(acc.rows) + "/"
                       + std::to_string(acc.stride) + "]";
                if (regions != nullptr)
                    regions->insert(r);
            }
            break;
          case ItemKind::Spawn: {
            const FrameId child = fr.child(item);
            EXPECT_EQ(dag.frame(child).parent, f);
            EXPECT_EQ(dag.frame(child).parentResumeItem, i + 1);
            out += describe(dag, child, regions);
            break;
          }
          case ItemKind::Sync:
            out += "y";
            break;
        }
    }
    return out + ")";
}

/** Zero-cost work/span of the tree under @p f, walked recursively. */
WorkSpan
treeWorkSpan(const ComputationDag &dag, FrameId f)
{
    const Frame &fr = dag.frame(f);
    WorkSpan ws;
    double pending = 0.0;
    for (uint32_t i = fr.itemBegin; i < fr.itemEnd; ++i) {
        const Item &item = dag.item(i);
        switch (item.kind) {
          case ItemKind::Strand:
            ws.work += item.cycles;
            ws.span += item.cycles;
            break;
          case ItemKind::Spawn: {
            const WorkSpan child = treeWorkSpan(dag, fr.child(item));
            ws.work += child.work;
            pending = std::max(pending, ws.span + child.span);
            break;
          }
          case ItemKind::Sync:
            ws.span = std::max(ws.span, pending);
            pending = 0.0;
            break;
        }
    }
    return ws;
}

/** The parentless frames, in id order: one per appended tree. */
std::vector<FrameId>
treeRoots(const ComputationDag &dag)
{
    std::vector<FrameId> roots;
    for (std::size_t f = 0; f < dag.numFrames(); ++f)
        if (dag.frame(static_cast<FrameId>(f)).parent == kNoFrame)
            roots.push_back(static_cast<FrameId>(f));
    return roots;
}

/** Every region's base is page aligned and no two regions overlap. */
void
expectDisjointPageAlignedRegions(const ComputationDag &dag)
{
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    for (std::size_t r = 0; r < dag.numRegions(); ++r) {
        const Region &reg = dag.region(static_cast<RegionId>(r));
        EXPECT_EQ(reg.base % kPageBytes, 0u) << reg.name;
        ranges.emplace_back(reg.base, reg.base + reg.bytes);
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i)
        EXPECT_LE(ranges[i - 1].second, ranges[i].first);
}

TEST(DagAppend, RepeatedSourceSharesItemsAndAccesses)
{
    const ComputationDag src = sourceDag(1.0, 3);
    constexpr std::size_t kCopies = 5;
    ComputationDag dag;
    std::vector<FrameId> roots;
    for (std::size_t i = 0; i < kCopies; ++i)
        roots.push_back(dag.append(src));

    EXPECT_EQ(dag.numFrames(), kCopies * src.numFrames());
    EXPECT_EQ(dag.numStrands(), kCopies * src.numStrands());
    EXPECT_EQ(dag.numRegions(), kCopies * src.numRegions());
    // Stored once, shared by every copy.
    EXPECT_EQ(dag.numItems(), src.numItems());
    EXPECT_EQ(dag.numAccesses(), src.numAccesses());

    EXPECT_EQ(treeRoots(dag), roots);
    EXPECT_EQ(dag.root(), roots[0]);
    const std::string want = describe(src, src.root());
    const WorkSpan src_ws = src.workSpan();
    std::set<RegionId> seen;
    for (const FrameId r : roots) {
        std::set<RegionId> mine;
        EXPECT_EQ(describe(dag, r, &mine), want);
        // Each copy touches its own regions.
        EXPECT_EQ(mine.size(), src.numRegions());
        for (const RegionId id : mine)
            EXPECT_TRUE(seen.insert(id).second);
        const WorkSpan ws = treeWorkSpan(dag, r);
        EXPECT_DOUBLE_EQ(ws.work, src_ws.work);
        EXPECT_DOUBLE_EQ(ws.span, src_ws.span);
    }
    EXPECT_DOUBLE_EQ(dag.workSpan().work, src_ws.work);
    EXPECT_DOUBLE_EQ(dag.workSpan().span, src_ws.span);
    const WorkSpan costed = dag.workSpan(5.0, 3.0);
    EXPECT_DOUBLE_EQ(costed.work, src.workSpan(5.0, 3.0).work);
    EXPECT_DOUBLE_EQ(costed.span, src.workSpan(5.0, 3.0).span);
    expectDisjointPageAlignedRegions(dag);
}

TEST(DagAppend, MergedIntoMergedResolvesChildrenAndRegions)
{
    const ComputationDag x = sourceDag(1.0, 1);
    const ComputationDag y = sourceDag(10.0, 4);
    ComputationDag inner;
    inner.append(x);
    inner.append(y);
    inner.append(x);
    ComputationDag outer;
    outer.append(y);
    outer.append(inner);
    outer.append(inner);

    // y's items are stored twice: once appended alone, once inside
    // inner's (a different dag, so nothing to share with).
    EXPECT_EQ(outer.numItems(), y.numItems() + inner.numItems());
    EXPECT_EQ(outer.numFrames(), 3 * y.numFrames() + 4 * x.numFrames());

    const std::string dx = describe(x, x.root());
    const std::string dy = describe(y, y.root());
    const std::vector<std::string> want{dy, dx, dy, dx, dx, dy, dx};
    const std::vector<FrameId> roots = treeRoots(outer);
    ASSERT_EQ(roots.size(), want.size());
    std::set<RegionId> seen;
    for (std::size_t i = 0; i < roots.size(); ++i) {
        std::set<RegionId> mine;
        EXPECT_EQ(describe(outer, roots[i], &mine), want[i]) << i;
        for (const RegionId id : mine)
            EXPECT_TRUE(seen.insert(id).second) << i;
    }
    EXPECT_DOUBLE_EQ(outer.workSpan().work, y.workSpan().work);
    expectDisjointPageAlignedRegions(outer);

    // A dag that grew since its last append is a new source: its new
    // tree must come along.
    ComputationDag grown;
    grown.append(x);
    ComputationDag target;
    target.append(grown);
    grown.append(y);
    target.append(grown);
    const std::vector<FrameId> target_roots = treeRoots(target);
    ASSERT_EQ(target_roots.size(), 3u);
    EXPECT_EQ(describe(target, target_roots[0]), dx);
    EXPECT_EQ(describe(target, target_roots[1]), dx);
    EXPECT_EQ(describe(target, target_roots[2]), dy);
}

TEST(DagAppend, TemporariesAreEachCopied)
{
    // Temporaries built in a loop may reuse one address: each must
    // still bring its own items and accesses.
    ComputationDag dag;
    std::vector<FrameId> roots;
    for (int i = 0; i < 6; ++i)
        roots.push_back(dag.append(sourceDag(1.0 + i, 1 + i % 3)));
    for (int i = 0; i < 6; ++i) {
        const ComputationDag src = sourceDag(1.0 + i, 1 + i % 3);
        EXPECT_EQ(describe(dag, roots[static_cast<std::size_t>(i)]),
                  describe(src, src.root()))
            << i;
    }
    expectDisjointPageAlignedRegions(dag);
}

} // namespace
} // namespace numaws::sim

/**
 * @file
 * matmul: 8-way divide-and-conquer matrix multiplication (C += A * B) with
 * no temporaries — the two k-halves of each quadrant are serialized by a
 * sync. The -z variant stores matrices in the blocked Z-Morton layout of
 * Section III-C, making each base-case block contiguous (and homeable on
 * one socket).
 */
#include <algorithm>

#include "layout/blocked_matrix.h"
#include "workloads/common.h"
#include "workloads/workloads.h"

namespace numaws::workloads {

namespace {

/** Base-case kernel: row-major C[b x b] += A[b x b] * B[b x b], leading
 * dimension @p ld. */
void
kernelRowMajor(const double *a, const double *b, double *c, uint32_t n,
               uint32_t ld)
{
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t k = 0; k < n; ++k) {
            const double aik = a[static_cast<std::size_t>(i) * ld + k];
            const double *brow = b + static_cast<std::size_t>(k) * ld;
            double *crow = c + static_cast<std::size_t>(i) * ld;
            for (uint32_t j = 0; j < n; ++j)
                crow[j] += aik * brow[j];
        }
}

void
matmulSerialRec(const double *a, const double *b, double *c, uint32_t n,
                uint32_t ld, uint32_t block)
{
    if (n <= block) {
        kernelRowMajor(a, b, c, n, ld);
        return;
    }
    const uint32_t h = n / 2;
    const std::size_t r = static_cast<std::size_t>(h) * ld; // row offset
    // Quadrant pointer helper: (i, j) in {0, 1}^2.
    auto q = [&](const double *m, int i, int j) {
        return m + static_cast<std::size_t>(i) * r + j * h;
    };
    auto qc = [&](double *m, int i, int j) {
        return m + static_cast<std::size_t>(i) * r + j * h;
    };
    for (int half = 0; half < 2; ++half)
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j)
                matmulSerialRec(q(a, i, half), q(b, half, j), qc(c, i, j),
                                h, ld, block);
}

void
matmulParRec(const double *a, const double *b, double *c, uint32_t n,
             uint32_t ld, uint32_t block, bool hints, bool top)
{
    if (n <= block) {
        kernelRowMajor(a, b, c, n, ld);
        return;
    }
    const uint32_t h = n / 2;
    const std::size_t r = static_cast<std::size_t>(h) * ld;
    auto q = [&](const double *m, int i, int j) {
        return m + static_cast<std::size_t>(i) * r + j * h;
    };
    auto qc = [&](double *m, int i, int j) {
        return m + static_cast<std::size_t>(i) * r + j * h;
    };
    const int places = numPlaces();
    for (int half = 0; half < 2; ++half) {
        TaskGroup tg;
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j) {
                // Hint: C quadrant (i, j) at place 2i + j (top level).
                const Place pl = top
                                     ? chunkPlace(hints, 2 * i + j, 4,
                                                  places)
                                     : kInheritPlace;
                const double *aq = q(a, i, half);
                const double *bq = q(b, half, j);
                double *cq = qc(c, i, j);
                tg.spawn(
                    [=] {
                        matmulParRec(aq, bq, cq, h, ld, block, hints,
                                     false);
                    },
                    pl);
            }
        tg.sync();
    }
}

// ------------------------------------------------------------------
// Dag generator
// ------------------------------------------------------------------

struct MatmulDagCtx
{
    sim::DagBuilder b;
    sim::RegionId a = 0, bm = 0, c = 0;
    const MatmulParams *p = nullptr;
};

/** Leaf block access for matrix @p m at block (bi, bj). */
sim::MemAccess
blockAccess(const MatmulDagCtx &ctx, sim::RegionId m, uint32_t bi,
            uint32_t bj)
{
    const MatmulParams &p = *ctx.p;
    const uint64_t bb = static_cast<uint64_t>(p.block);
    if (p.zLayout) {
        // Blocked Z-Morton: the block is one contiguous range.
        return {m, zMortonEncode(bi, bj) * bb * bb * 8, bb * bb * 8};
    }
    // Row-major: one row per block row, a matrix row apart.
    const uint64_t n = p.n;
    return {m, (static_cast<uint64_t>(bi) * bb * n
                + static_cast<uint64_t>(bj) * bb)
                   * 8,
            bb * 8, static_cast<uint32_t>(bb), n * 8};
}

/** Recursive 8-way dag over block-index ranges [bi0,+s) x [bj0,+s). */
void
matmulDagRec(MatmulDagCtx &ctx, uint32_t bi0, uint32_t bj0, uint32_t bk0,
             uint32_t s, bool hints, int places, bool top)
{
    const MatmulParams &p = *ctx.p;
    if (s == 1) {
        const double bb = static_cast<double>(p.block);
        const double penalty =
            p.zLayout ? 1.0 : kMatmulRowMajorPenalty;
        ctx.b.strand(kMatmulCyclesPerMadd * penalty * bb * bb * bb,
                     {blockAccess(ctx, ctx.a, bi0, bk0),
                      blockAccess(ctx, ctx.bm, bk0, bj0),
                      blockAccess(ctx, ctx.c, bi0, bj0)});
        return;
    }
    const uint32_t h = s / 2;
    for (int half = 0; half < 2; ++half) {
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j) {
                const Place pl =
                    top ? chunkPlace(hints, 2 * i + j, 4, places)
                        : kInheritPlace;
                ctx.b.spawn(pl);
                matmulDagRec(ctx, bi0 + i * h, bj0 + j * h,
                             bk0 + half * h, h, hints, places, false);
                ctx.b.end();
            }
        ctx.b.sync();
    }
}

} // namespace

void
matmulSerial(const double *a, const double *b, double *c, uint32_t n)
{
    matmulSerialRec(a, b, c, n, n, 32);
}

void
matmulParallel(Runtime &rt, const double *a, const double *b, double *c,
               const MatmulParams &p, bool hints)
{
    rt.run([&] { matmulParRec(a, b, c, p.n, p.n, p.block, hints, true); });
}

sim::ComputationDag
matmulDag(const MatmulParams &p, int places, Placement placement,
          bool hints)
{
    NUMAWS_ASSERT(isPow2(p.n) && isPow2(p.block) && p.block <= p.n);
    // Quadrant hints only make sense when block homes align with the
    // hint partition, which requires the blocked Z-Morton layout; hinted
    // row-major quadrants fight the page-granular row partition (the
    // paper's matmul row is effectively unhinted: "beyond data layout
    // transformation, NUMA-WS does not provide more benefit").
    if (!p.zLayout)
        hints = false;
    MatmulDagCtx ctx;
    ctx.p = &p;
    const uint64_t bytes = static_cast<uint64_t>(p.n) * p.n * 8;

    auto make_region = [&](const char *name) {
        if (p.zLayout && placement == Placement::Partitioned) {
            // Blocked Z-Morton + partitioned: the Z curve's quadrants are
            // contiguous, so a plain partition homes each top-level C
            // quadrant's blocks on one socket — the co-location the
            // layout transformation exists to enable.
            return ctx.b.region(name, bytes,
                                sim::RegionPolicy::Partitioned);
        }
        return ctx.b.region(name, bytes, regionPolicy(placement));
    };
    ctx.a = make_region("A");
    ctx.bm = make_region("B");
    ctx.c = make_region("C");

    ctx.b.beginRoot();
    matmulDagRec(ctx, 0, 0, 0, p.n / p.block, hints, places, true);
    ctx.b.end();
    return ctx.b.finish();
}

} // namespace numaws::workloads

/**
 * @file
 * Correctness of the real benchmark implementations: each parallel
 * version must agree with its serial elision (and, where cheap, with an
 * independent reference).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>

#include "support/rng.h"
#include "workloads/workloads.h"

namespace numaws::workloads {
namespace {

Runtime &
testRuntime()
{
    static Runtime rt([] {
        RuntimeOptions o;
        o.numWorkers = 4;
        o.numPlaces = 2;
        return o;
    }());
    return rt;
}

std::vector<int64_t>
randomInts(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = static_cast<int64_t>(rng.next() >> 16);
    return v;
}

TEST(Fib, SerialValues)
{
    EXPECT_EQ(fibSerial(0), 0u);
    EXPECT_EQ(fibSerial(1), 1u);
    EXPECT_EQ(fibSerial(10), 55u);
    EXPECT_EQ(fibSerial(20), 6765u);
}

TEST(Cilksort, SerialSortsCorrectly)
{
    CilksortParams p;
    p.n = 10000;
    p.sortBase = 64;
    p.mergeBase = 64;
    auto v = randomInts(p.n, 1);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    std::vector<int64_t> tmp(v.size());
    cilksortSerial(v.data(), p.n, tmp.data(), p);
    EXPECT_EQ(v, expect);
}

TEST(Cilksort, ParallelMatchesSerial)
{
    for (const bool hints : {false, true}) {
        CilksortParams p;
        p.n = 50000;
        p.sortBase = 256;
        p.mergeBase = 256;
        auto v = randomInts(p.n, 2);
        auto expect = v;
        std::sort(expect.begin(), expect.end());
        std::vector<int64_t> tmp(v.size());
        cilksortParallel(testRuntime(), v.data(), p.n, tmp.data(), p,
                         hints);
        EXPECT_EQ(v, expect) << "hints=" << hints;
    }
}

TEST(Cilksort, BuffersMatchSerial)
{
    CilksortParams p;
    p.n = 1 << 18;
    p.sortBase = 1 << 12;
    p.mergeBase = 1 << 12;
    auto expect = randomInts(p.n, 6);
    CilksortBuffers buf(testRuntime(), p.n);
    std::copy(expect.begin(), expect.end(), buf.data);
    std::vector<int64_t> tmp(expect.size());
    cilksortSerial(expect.data(), p.n, tmp.data(), p);
    cilksortParallel(testRuntime(), buf, p, /*hints=*/true);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), buf.data));
}

TEST(Cilksort, TinyAndDegenerateInputs)
{
    CilksortParams p;
    p.sortBase = 4;
    p.mergeBase = 4;
    for (int64_t n : {1, 2, 3, 5, 17}) {
        auto v = randomInts(n, 3);
        auto expect = v;
        std::sort(expect.begin(), expect.end());
        std::vector<int64_t> tmp(v.size());
        cilksortParallel(testRuntime(), v.data(), n, tmp.data(), p, true);
        EXPECT_EQ(v, expect) << "n=" << n;
    }
}

TEST(Heat, ParallelMatchesSerial)
{
    HeatParams p;
    p.nx = 64;
    p.ny = 64;
    p.steps = 5;
    p.baseRows = 4;
    const std::size_t cells =
        static_cast<std::size_t>(p.nx) * static_cast<std::size_t>(p.ny);
    std::vector<double> a1(cells), b1(cells, 0.0);
    Rng rng(4);
    for (auto &x : a1)
        x = rng.nextDouble();
    std::vector<double> a2 = a1, b2 = b1;

    heatSerial(a1.data(), b1.data(), p);
    heatParallel(testRuntime(), a2.data(), b2.data(), p, true);

    // Results land in the same buffer parity; both end in a or b
    // depending on step count — compare both buffers.
    for (std::size_t i = 0; i < cells; ++i) {
        EXPECT_DOUBLE_EQ(a1[i], a2[i]) << i;
        EXPECT_DOUBLE_EQ(b1[i], b2[i]) << i;
    }
}

TEST(Heat, PartedMatchesSerialBitForBit)
{
    // 512 rows of 1024 doubles per shard: 4 MiB, so both grids take the
    // arena's mapped path, and the parted b grid must read zero like the
    // serial one.
    HeatParams p;
    p.nx = 1024;
    p.ny = 1024;
    p.steps = 3;
    p.baseRows = 64;
    const std::size_t cells =
        static_cast<std::size_t>(p.nx) * static_cast<std::size_t>(p.ny);
    std::vector<double> a(cells), b(cells, 0.0);
    Rng rng(5);
    for (auto &x : a)
        x = rng.nextDouble();
    Runtime &rt = testRuntime();
    PartedVec<double> pa(rt, cells, static_cast<std::size_t>(p.ny));
    PartedVec<double> pb(rt, cells, static_cast<std::size_t>(p.ny));
    ASSERT_EQ(pa.numShards(), 2);
    for (int s = 0; s < pa.numShards(); ++s)
        std::copy_n(a.data() + pa.shardBegin(s), pa.shardSize(s),
                    pa.shardData(s));

    heatSerial(a.data(), b.data(), p);
    heatParallel(rt, pa, pb, p);

    for (int s = 0; s < pa.numShards(); ++s) {
        const std::size_t bytes = pa.shardSize(s) * sizeof(double);
        EXPECT_EQ(std::memcmp(pa.shardData(s), a.data() + pa.shardBegin(s),
                              bytes),
                  0)
            << "a, shard " << s;
        EXPECT_EQ(std::memcmp(pb.shardData(s), b.data() + pb.shardBegin(s),
                              bytes),
                  0)
            << "b, shard " << s;
    }
}

TEST(Heat, ConservesBoundary)
{
    HeatParams p;
    p.nx = 32;
    p.ny = 32;
    p.steps = 3;
    p.baseRows = 4;
    const std::size_t cells = 32 * 32;
    std::vector<double> a(cells, 1.0), b(cells, 0.0);
    heatSerial(a.data(), b.data(), p);
    const double *fin = (p.steps % 2 == 0) ? a.data() : b.data();
    EXPECT_DOUBLE_EQ(fin[0], 1.0);
    EXPECT_DOUBLE_EQ(fin[cells - 1], 1.0);
}

TEST(Matmul, SerialMatchesNaive)
{
    const uint32_t n = 64;
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0),
        ref(n * n, 0.0);
    Rng rng(5);
    for (auto &x : a)
        x = rng.nextDouble();
    for (auto &x : b)
        x = rng.nextDouble();
    matmulSerial(a.data(), b.data(), c.data(), n);
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t k = 0; k < n; ++k)
            for (uint32_t j = 0; j < n; ++j)
                ref[i * n + j] += a[i * n + k] * b[k * n + j];
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-9) << i;
}

TEST(Matmul, ParallelMatchesSerial)
{
    MatmulParams p;
    p.n = 128;
    p.block = 16;
    std::vector<double> a(p.n * p.n), b(p.n * p.n), c1(p.n * p.n, 0.0),
        c2(p.n * p.n, 0.0);
    Rng rng(6);
    for (auto &x : a)
        x = rng.nextDouble();
    for (auto &x : b)
        x = rng.nextDouble();
    matmulSerial(a.data(), b.data(), c1.data(), p.n);
    matmulParallel(testRuntime(), a.data(), b.data(), c2.data(), p, true);
    for (std::size_t i = 0; i < c1.size(); ++i)
        ASSERT_NEAR(c1[i], c2[i], 1e-9) << i;
}

TEST(Strassen, SerialMatchesMatmul)
{
    const uint32_t n = 128;
    std::vector<double> a(n * n), b(n * n), c1(n * n, 0.0),
        c2(n * n, 0.0);
    Rng rng(7);
    for (auto &x : a)
        x = rng.nextDouble();
    for (auto &x : b)
        x = rng.nextDouble();
    matmulSerial(a.data(), b.data(), c1.data(), n);
    strassenSerial(a.data(), b.data(), c2.data(), n, 16);
    for (std::size_t i = 0; i < c1.size(); ++i)
        ASSERT_NEAR(c1[i], c2[i], 1e-6) << i;
}

TEST(Strassen, ParallelMatchesSerial)
{
    StrassenParams p;
    p.n = 128;
    p.block = 16;
    std::vector<double> a(p.n * p.n), b(p.n * p.n), c1(p.n * p.n, 0.0),
        c2(p.n * p.n, 0.0);
    Rng rng(8);
    for (auto &x : a)
        x = rng.nextDouble();
    for (auto &x : b)
        x = rng.nextDouble();
    strassenSerial(a.data(), b.data(), c1.data(), p.n, p.block);
    strassenParallel(testRuntime(), a.data(), b.data(), c2.data(), p);
    for (std::size_t i = 0; i < c1.size(); ++i)
        ASSERT_NEAR(c1[i], c2[i], 1e-9) << i;
}

std::set<std::pair<double, double>>
asSet(const std::vector<Point> &pts)
{
    std::set<std::pair<double, double>> s;
    for (const Point &p : pts)
        s.insert({p.x, p.y});
    return s;
}

TEST(Hull, SerialFindsSquareCorners)
{
    std::vector<Point> pts = {{0, 0}, {1, 0}, {1, 1}, {0, 1},
                              {0.5, 0.5}, {0.2, 0.8}, {0.9, 0.1}};
    const auto hull = hullSerial(pts);
    const auto s = asSet(hull);
    EXPECT_EQ(s.size(), 4u);
    EXPECT_TRUE(s.count({0, 0}));
    EXPECT_TRUE(s.count({1, 0}));
    EXPECT_TRUE(s.count({1, 1}));
    EXPECT_TRUE(s.count({0, 1}));
}

TEST(Hull, ParallelMatchesSerialInsideCircle)
{
    HullParams p;
    p.n = 20000;
    p.base = 256;
    p.onSphere = false;
    const auto pts = hullMakeInput(p, 42);
    const auto hs = hullSerial(pts);
    const auto hp = hullParallel(testRuntime(), pts, p, true);
    EXPECT_EQ(asSet(hs), asSet(hp));
    EXPECT_GE(hs.size(), 3u);
}

TEST(Hull, ParallelMatchesSerialOnCircle)
{
    HullParams p;
    p.n = 2000;
    p.base = 64;
    p.onSphere = true;
    const auto pts = hullMakeInput(p, 43);
    const auto hs = hullSerial(pts);
    const auto hp = hullParallel(testRuntime(), pts, p, false);
    EXPECT_EQ(asSet(hs), asSet(hp));
    // All points on the circle are extreme points.
    EXPECT_EQ(hs.size(), pts.size());
}

TEST(Cg, SerialConvergesOnSpdSystem)
{
    CgParams p;
    p.n = 2000;
    p.nnzPerRow = 8;
    p.band = 64;
    p.iters = 50;
    const CsrMatrix m = cgMakeMatrix(p, 44);
    std::vector<double> b(static_cast<std::size_t>(p.n), 1.0);
    std::vector<double> x;
    const double res = cgSerial(m, b, x, p);
    EXPECT_LT(res, 1e-6);
    // Verify the solution: ||Ax - b|| small.
    double err = 0.0;
    for (int64_t i = 0; i < p.n; ++i) {
        double acc = 0.0;
        for (int64_t k = m.rowBegin[i]; k < m.rowBegin[i + 1]; ++k)
            acc += m.val[k] * x[m.col[k]];
        err = std::max(err, std::abs(acc - 1.0));
    }
    EXPECT_LT(err, 1e-5);
}

TEST(Cg, ParallelMatchesSerialResidual)
{
    for (const bool hints : {false, true}) {
        CgParams p;
        p.n = 4000;
        p.nnzPerRow = 8;
        p.band = 128;
        p.iters = 20;
        p.baseRows = 128;
        const CsrMatrix m = cgMakeMatrix(p, 45);
        std::vector<double> b(static_cast<std::size_t>(p.n), 1.0);
        std::vector<double> x1, x2;
        const double r1 = cgSerial(m, b, x1, p);
        const double r2 =
            cgParallel(testRuntime(), m, b, x2, p, hints);
        // Parallel dot products reassociate floating point; residuals
        // agree to a tolerance, not bitwise.
        EXPECT_NEAR(r1, r2, 1e-8 + r1 * 0.01) << "hints=" << hints;
        for (int64_t i = 0; i < p.n; i += 97)
            EXPECT_NEAR(x1[static_cast<std::size_t>(i)],
                        x2[static_cast<std::size_t>(i)], 1e-6);
    }
}

TEST(Cg, MatrixIsBandedAndDiagonallyDominant)
{
    CgParams p;
    p.n = 500;
    p.nnzPerRow = 6;
    p.band = 32;
    const CsrMatrix m = cgMakeMatrix(p, 46);
    for (int64_t i = 0; i < p.n; ++i) {
        double diag = 0.0, off = 0.0;
        for (int64_t k = m.rowBegin[i]; k < m.rowBegin[i + 1]; ++k) {
            EXPECT_LE(std::abs(m.col[k] - i), p.band);
            if (m.col[k] == i)
                diag = m.val[k];
            else
                off += std::abs(m.val[k]);
        }
        EXPECT_GT(diag, off);
    }
}

} // namespace
} // namespace numaws::workloads

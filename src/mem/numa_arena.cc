#include "mem/numa_arena.h"

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "support/panic.h"

#if defined(NUMAWS_ASAN)
#include <sanitizer/asan_interface.h>
#endif

// Linux 5.14; older headers lack it, older kernels reject it (EINVAL).
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace numaws {

namespace {

// Track allocation sizes so free() can unregister the exact range.
std::mutex sizesMutex;
std::map<void *, std::size_t> &
allocSizes()
{
    static std::map<void *, std::size_t> sizes;
    return sizes;
}

// failNextCarvesForTesting budget; 0 in production (one relaxed load
// on the already-slow carve path).
std::atomic<int> injectedCarveFailures{0};

bool
takeInjectedFailure()
{
    int n = injectedCarveFailures.load(std::memory_order_relaxed);
    while (n > 0) {
        if (injectedCarveFailures.compare_exchange_weak(
                n, n - 1, std::memory_order_relaxed,
                std::memory_order_relaxed))
            return true;
    }
    return false;
}

/** Anonymous, pre-faulted mapping of @p rounded bytes; nullptr when the
 * kernel refuses. The host heap's blocks carry ASan redzones and a raw
 * mapping has none, so under ASan the slack past the @p bytes asked for
 * is poisoned: an overrun of a big block still reports. */
void *
mapBlock(std::size_t bytes, std::size_t rounded)
{
    void *p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        return nullptr;
    // One call faults every page in; where the kernel lacks it, pages
    // fault lazily on first write instead.
    (void)madvise(p, rounded, MADV_POPULATE_WRITE);
#if defined(NUMAWS_ASAN)
    ASAN_POISON_MEMORY_REGION(static_cast<char *>(p) + bytes,
                              rounded - bytes);
#else
    (void)bytes;
#endif
    return p;
}

void
unmapBlock(void *p, std::size_t rounded)
{
#if defined(NUMAWS_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(p, rounded);
#endif
    munmap(p, rounded);
}

} // namespace

void
NumaArena::failNextCarvesForTesting(int n)
{
    injectedCarveFailures.store(n, std::memory_order_relaxed);
}

void *
NumaArena::allocRaw(std::size_t bytes)
{
    const std::size_t rounded = roundToPages(bytes);
    void *p = nullptr;
    if (!mapsFresh(bytes))
        p = carveSlab(rounded);
    else if (!takeInjectedFailure())
        p = mapBlock(bytes, rounded);
    if (p == nullptr)
        return nullptr;
    {
        std::lock_guard<std::mutex> g(sizesMutex);
        allocSizes()[p] = rounded;
    }
    return p;
}

void *
NumaArena::allocOnSocket(std::size_t bytes, int socket)
{
    void *p = allocRaw(bytes);
    if (p != nullptr)
        rebindOnSocket(p, bytes, socket);
    return p;
}

void *
NumaArena::allocInterleaved(std::size_t bytes)
{
    void *p = allocRaw(bytes);
    if (p != nullptr)
        _pageMap.registerRange(reinterpret_cast<uint64_t>(p), bytes,
                               PagePolicy::Interleaved);
    return p;
}

void *
NumaArena::allocPartitioned(std::size_t bytes, int chunks)
{
    void *p = allocRaw(bytes);
    if (p != nullptr)
        rebindPartitioned(p, bytes, chunks);
    return p;
}

void
NumaArena::rebindOnSocket(void *ptr, std::size_t bytes, int socket)
{
    _pageMap.registerRange(reinterpret_cast<uint64_t>(ptr), bytes,
                           PagePolicy::Single, socket);
}

void
NumaArena::rebindPartitioned(void *ptr, std::size_t bytes, int chunks)
{
    NUMAWS_ASSERT(chunks > 0);
    const int sockets = _pageMap.numSockets();
    const uint64_t base = reinterpret_cast<uint64_t>(ptr);
    const uint64_t chunk =
        (bytes / chunks + kPageBytes - 1) / kPageBytes * kPageBytes;
    uint64_t offset = 0;
    for (int c = 0; c < chunks && offset < bytes; ++c) {
        const uint64_t len = std::min<uint64_t>(chunk, bytes - offset);
        const int home = c * sockets / chunks;
        _pageMap.registerRange(base + offset, len, PagePolicy::Single, home);
        offset += len;
    }
}

void *
NumaArena::carveSlab(std::size_t bytes)
{
    NUMAWS_ASSERT(bytes > 0);
    if (takeInjectedFailure())
        return nullptr;
    const std::size_t rounded = roundToPages(bytes);
    // nullptr, not fatal: slab memory is an optimization (NUMA-homed
    // pooling), so exhaustion degrades to the callers' plain-heap
    // paths instead of killing a serving runtime.
    return std::aligned_alloc(kPageBytes, rounded);
}

void
NumaArena::releaseSlab(void *ptr)
{
    std::free(ptr);
}

void *
NumaArena::carveSlabOnSocket(std::size_t bytes, int socket)
{
    return allocOnSocket(bytes, socket);
}

void
NumaArena::free(void *ptr)
{
    if (ptr == nullptr)
        return;
    std::size_t bytes = 0;
    {
        std::lock_guard<std::mutex> g(sizesMutex);
        auto it = allocSizes().find(ptr);
        NUMAWS_ASSERT(it != allocSizes().end());
        bytes = it->second;
        allocSizes().erase(it);
    }
    _pageMap.unregisterRange(reinterpret_cast<uint64_t>(ptr), bytes);
    if (mapsFresh(bytes))
        unmapBlock(ptr, bytes);
    else
        std::free(ptr);
}

} // namespace numaws

/**
 * @file
 * NUMA-aware allocation API (the paper's "library functions that allow the
 * application code to [co-locate data] easily at memory allocation time").
 *
 * Blocks take one of two paths, chosen by page-rounded size alone:
 *  - a block of at least kMapThresholdBytes is its own anonymous mmap,
 *    pre-faulted with one madvise(MADV_POPULATE_WRITE) and released with
 *    munmap. It reads zero, and every page's first-touch fault is paid at
 *    allocation time, not in the code that first writes it. On a real
 *    NUMA kernel an mbind of the registered policy goes between the mmap
 *    and the populate, so the populate's first touch lands each page on
 *    its home;
 *  - smaller blocks (data-heap slabs, frame-pool slabs, small
 *    cross-socket blocks) come from the host heap, uninitialised.
 * What makes either "NUMA" here is the registration with a PageMap, which
 * the memory model treats as ground truth for page homes; call sites do
 * not change with the path.
 */
#ifndef NUMAWS_MEM_NUMA_ARENA_H
#define NUMAWS_MEM_NUMA_ARENA_H

#include <cstddef>
#include <memory>

#include "mem/page_map.h"
#include "topology/place.h"

/** Defined under AddressSanitizer (GCC's macro or clang's feature test):
 * mapped blocks then poison their slack past the requested size. */
#if defined(__SANITIZE_ADDRESS__)
#define NUMAWS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NUMAWS_ASAN 1
#endif
#endif

namespace numaws {

/**
 * Allocator handing out page-aligned blocks registered with home sockets.
 */
class NumaArena
{
  public:
    explicit NumaArena(PageMap &page_map) : _pageMap(page_map) {}

    /** Allocate @p bytes homed entirely on @p socket. */
    void *allocOnSocket(std::size_t bytes, int socket);

    /** Allocate @p bytes with pages interleaved across all sockets. */
    void *allocInterleaved(std::size_t bytes);

    /**
     * Allocate @p bytes split into contiguous chunks, chunk i homed on
     * socket i*sockets/chunks — the partitioning the paper's mergesort
     * uses for the quarters of `in` and `tmp`.
     */
    void *allocPartitioned(std::size_t bytes, int chunks);

    /**
     * Page-rounded size from which alloc* blocks are mapped from the
     * kernel (zero-filled and pre-faulted) instead of carved from the
     * host heap. Not a knob: the frame pool's and the data heap's slabs
     * stay below it.
     */
    static constexpr std::size_t kMapThresholdBytes = std::size_t{1} << 20;

    /** True when an alloc* block of @p bytes takes the mapped path, so
     * it reads zero when handed out. */
    static constexpr bool
    mapsFresh(std::size_t bytes)
    {
        return roundToPages(bytes) >= kMapThresholdBytes;
    }

    /** Release a block obtained from any alloc* call: unregister its
     * homes, then munmap a mapped block or return a carved one to the
     * host heap. */
    void free(void *ptr);

    /**
     * Re-home an existing block (applications repartition between phases).
     */
    void rebindOnSocket(void *ptr, std::size_t bytes, int socket);
    void rebindPartitioned(void *ptr, std::size_t bytes, int chunks);

    /** @name Slab carve-out (runtime-internal frame pools)
     * Raw page-aligned slabs for allocators that manage their own
     * interior structure (the per-worker task-frame pools). The static
     * form bypasses PageMap registration — the slab holds runtime
     * metadata, not application data, and the caller first-touches it
     * on the thread that will own it, which on a real NUMA kernel homes
     * the pages on that thread's socket (the mmap + first-touch
     * analogue of allocOnSocket's mmap + mbind; Wittmann & Hager's
     * ccNUMA result that first-touch placement of runtime metadata
     * dominates task-parallel locality is exactly this contract). The
     * instance form additionally registers the range with the PageMap
     * so the memory model and affinity machinery see the homes; release
     * it with free(). */
    /// @{
    /** Page-aligned, unregistered slab of at least @p bytes, or nullptr
     * when the host allocation fails — callers (the frame pool, the
     * data heap) degrade to their plain-heap fallback and count a
     * slabFallback instead of aborting a serving runtime mid-flight. */
    static void *carveSlab(std::size_t bytes);
    /** Release a slab obtained from carveSlab (and only from it). */
    static void releaseSlab(void *ptr);
    /** Registered variant: slab homed on @p socket in the PageMap;
     * nullptr on failure like carveSlab. */
    void *carveSlabOnSocket(std::size_t bytes, int socket);
    /** Test hook: make the next @p n carve attempts (static or
     * instance, carved or mapped, process-wide) fail as if the host
     * were out of memory. Exercises the fallback chain without
     * actually running the machine out of memory. */
    static void failNextCarvesForTesting(int n);
    /// @}

    PageMap &pageMap() { return _pageMap; }

  private:
    static constexpr std::size_t
    roundToPages(std::size_t bytes)
    {
        return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
    }

    /** Unregistered page-aligned block of @p bytes: mapped and
     * pre-faulted when mapsFresh(bytes), else a carveSlab. Records the
     * rounded size for free(). nullptr when the host is out of memory
     * or a failNextCarvesForTesting injection is pending. */
    void *allocRaw(std::size_t bytes);

    PageMap &_pageMap;
};

} // namespace numaws

#endif // NUMAWS_MEM_NUMA_ARENA_H

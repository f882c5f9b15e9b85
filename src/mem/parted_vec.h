/**
 * @file
 * Socket-sharded vector over the NUMA data plane, in the style of
 * dphim's `util/parted_vec.hpp`: one contiguous shard per place, each
 * allocated on its socket through `numa::allocateOn` (so its home is
 * registered in the runtime's `PageMap`), plus a `forEachShard` that
 * spawns one data-annotated task per shard — the spawn-time placement
 * hint then lands each task on its shard's home deque without the
 * caller ever naming a place. This is the top of the data-plane stack,
 * so (unlike the rest of `src/mem`) it knows about the runtime.
 */
#ifndef NUMAWS_MEM_PARTED_VEC_H
#define NUMAWS_MEM_PARTED_VEC_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "mem/numa_heap.h"
#include "runtime/runtime.h"

namespace numaws {

/**
 * Fixed-size vector of @p T sharded across a runtime's places.
 *
 * Shard boundaries fall on multiples of @p granule elements (pass a row
 * length to keep rows intact), so `ptr(i)` stays valid through the end
 * of i's granule run — but NOT across shard boundaries: shards are
 * separate allocations. Element homes: shard s lives on socket s.
 *
 * Elements start value-initialised. Pooled shards of arithmetic or
 * pointer type are not re-zeroed: `numa::allocateOn` hands them out
 * zero-filled, and a big one comes pre-faulted from the kernel.
 *
 * Under `DataHeapPolicy::Heap` the shards come from the plain process
 * heap, unregistered — sharding math is identical, placement is not
 * (the ablation baseline). Must not outlive the runtime it was built
 * against.
 */
template <typename T>
class PartedVec
{
  public:
    static_assert(alignof(T) <= NumaHeap::kDataAlign,
                  "data-plane blocks are 64-byte aligned");

    PartedVec(Runtime &rt, std::size_t n, std::size_t granule = 1)
        : _size(n)
    {
        const auto shards = static_cast<std::size_t>(rt.numPlaces());
        const std::size_t g = granule == 0 ? 1 : granule;
        const std::size_t units = (n + g - 1) / g;
        _stride = std::max<std::size_t>(1, (units + shards - 1) / shards) * g;
        const bool pooled =
            rt.options().dataHeap == DataHeapPolicy::Pooled;
        _shards.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            const std::size_t begin = std::min(n, s * _stride);
            const std::size_t count = std::min(n - begin, _stride);
            Shard shard;
            shard.count = count;
            if (count > 0) {
                void *raw =
                    pooled ? numa::allocateOn(rt.arena(), count * sizeof(T),
                                              static_cast<int>(s))
                           : numa::allocatePlain(count * sizeof(T));
                shard.data = static_cast<T *>(raw);
                if (!(pooled && kZeroIsValueInit))
                    std::uninitialized_value_construct_n(shard.data, count);
            }
            _shards.push_back(shard);
        }
    }

    ~PartedVec()
    {
        for (Shard &s : _shards) {
            if (s.data == nullptr)
                continue;
            std::destroy_n(s.data, s.count);
            numa::deallocate(s.data);
        }
    }

    PartedVec(const PartedVec &) = delete;
    PartedVec &operator=(const PartedVec &) = delete;

    std::size_t size() const { return _size; }
    int numShards() const { return static_cast<int>(_shards.size()); }
    /** Elements per shard (last shard may be short). */
    std::size_t shardStride() const { return _stride; }

    int
    shardFor(std::size_t i) const
    {
        return static_cast<int>(i / _stride);
    }
    /** Home socket of element i: shard s is allocated on socket s. */
    int homeOf(std::size_t i) const { return shardFor(i); }

    T *shardData(int s) { return _shards[s].data; }
    const T *shardData(int s) const { return _shards[s].data; }
    std::size_t shardSize(int s) const { return _shards[s].count; }
    std::size_t
    shardBegin(int s) const
    {
        return static_cast<std::size_t>(s) * _stride;
    }

    T &
    operator[](std::size_t i)
    {
        return _shards[i / _stride].data[i % _stride];
    }
    const T &
    operator[](std::size_t i) const
    {
        return _shards[i / _stride].data[i % _stride];
    }

    /** Pointer to element i, contiguous through the end of i's shard. */
    T *ptr(std::size_t i) { return _shards[i / _stride].data + i % _stride; }
    const T *
    ptr(std::size_t i) const
    {
        return _shards[i / _stride].data + i % _stride;
    }

    /**
     * Spawn `fn(shard, data, count)` once per nonempty shard and sync.
     * Each spawn carries its shard's data range, so the spawn-time
     * placement hint routes it to the shard's home-socket deque (and
     * the steal path sees the same range as an affinity mask). Must be
     * called from inside the runtime (a task body).
     */
    template <typename F>
    void
    forEachShard(F fn)
    {
        TaskGroup tg;
        for (int s = 0; s < numShards(); ++s) {
            T *data = _shards[static_cast<std::size_t>(s)].data;
            const std::size_t count =
                _shards[static_cast<std::size_t>(s)].count;
            if (count == 0)
                continue;
            tg.spawn([fn, s, data, count] { fn(s, data, count); },
                     kAnyPlace, data, count * sizeof(T));
        }
        tg.sync();
    }

  private:
    /** Value-initialising these types writes all-zero bytes, which a
     * pooled shard already holds (numa::allocateOn's contract). */
    static constexpr bool kZeroIsValueInit =
        std::is_arithmetic_v<T> || std::is_pointer_v<T>;

    struct Shard
    {
        T *data = nullptr;
        std::size_t count = 0;
    };

    std::size_t _size;
    std::size_t _stride = 1;
    std::vector<Shard> _shards;
};

} // namespace numaws

#endif // NUMAWS_MEM_PARTED_VEC_H

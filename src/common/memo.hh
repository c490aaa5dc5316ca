/**
 * @file
 * Grow-only, concurrently filled, keep-the-winner memo.
 *
 * Every shared cache in the repo has the same shape: pool workers look
 * a key up, compute the answer outside any lock on a miss, and publish
 * it; when two workers race on one fresh key the first insert sticks
 * and the loser adopts the stored value. The answers are pure functions
 * of their keys (the CME sampling seed derives from the key, the oracle
 * and the stream builder are deterministic, a service reply is a pure
 * function of its canonical request), so which racer wins is
 * unobservable. ShardedMemo implements that policy once: the CME ratio
 * memo, the oracle memo, the access-stream cache and the service's
 * canonical and raw reply caches all use it.
 *
 * The memo is a fixed number of shards, picked from the key's hash, one
 * mutex and one std::unordered_map each, so concurrent workers rarely
 * contend. Entries are never erased or mutated, and unordered_map
 * nodes do not move on rehash, so a reference or pointer the memo
 * returns stays valid, and reads the same value, for the memo's
 * lifetime.
 */

#ifndef MVP_COMMON_MEMO_HH
#define MVP_COMMON_MEMO_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mvp
{

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class ShardedMemo
{
  public:
    /**
     * The value stored under @p q, or nullptr on a miss. @p q is a K or,
     * when Hash and Eq are transparent, any key they accept.
     */
    template <typename Q>
    const V *find(const Q &q) const
    {
        const Shard &shard = shards_[shardIndex(q)];
        std::lock_guard<std::mutex> lock(shard.mu);
        const auto it = shard.map.find(q);
        return it == shard.map.end() ? nullptr : &it->second;
    }

    /**
     * Store @p value under @p key unless the key is already present;
     * returns the stored value either way.
     */
    const V &tryInsert(K key, V value)
    {
        Shard &shard = shards_[shardIndex(key)];
        std::lock_guard<std::mutex> lock(shard.mu);
        return shard.map.try_emplace(std::move(key), std::move(value))
            .first->second;
    }

    /** Number of entries (locks every shard; not a hot path). */
    std::size_t size() const
    {
        std::size_t n = 0;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            n += shard.map.size();
        }
        return n;
    }

    /**
     * Visit every (key, value) pair in no particular order (exporters
     * sort). Each shard's entries are listed under its lock and visited
     * after it is released, so @p fn may use the memo.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        std::vector<const std::pair<const K, V> *> entries;
        for (const Shard &shard : shards_) {
            entries.clear();
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                for (const auto &entry : shard.map)
                    entries.push_back(&entry);
            }
            for (const auto *entry : entries)
                fn(entry->first, entry->second);
        }
    }

  private:
    static constexpr unsigned SHARD_BITS = 4;

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<K, V, Hash, Eq> map;
    };

    /**
     * The top bits of the hash times a Fibonacci constant: spreads both
     * identity hashes of small integers and full 64-bit hashes.
     */
    template <typename Q>
    static std::size_t shardIndex(const Q &q)
    {
        const auto h = static_cast<std::uint64_t>(Hash{}(q));
        return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ULL) >>
                                        (64 - SHARD_BITS));
    }

    std::array<Shard, std::size_t{1} << SHARD_BITS> shards_;
};

} // namespace mvp

#endif // MVP_COMMON_MEMO_HH

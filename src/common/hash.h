#ifndef AQUA_COMMON_HASH_H_
#define AQUA_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace aqua {

/// Folds `v` into the running hash `seed` (order-sensitive).
inline size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// The splitmix64 finalizer: spreads every input bit over the whole word,
/// so the low bits of the result can address a hash table and finalized
/// hashes can be summed order-independently without clustering.
inline size_t HashFinalize(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

}  // namespace aqua

#endif  // AQUA_COMMON_HASH_H_

// Bump-pointer arena for reusable evaluation workspaces.
//
// The batched evaluation core (circuit/batched.h) carves all of its
// per-thread scratch storage — assembled SoA matrices, LU lanes, solution
// vectors — out of one Arena per workspace.  The arena allocates real heap
// blocks only while a workspace is being (re)bound to a plan; once bound,
// every evaluation calls reset() and re-carves the same spans from the
// already-owned blocks, so the steady-state solve path performs zero heap
// allocations.  The high-water mark is exported so tests can pin workspace
// growth and the obs layer can report `circuit.batch.arena_bytes_hwm`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace gnsslna::numeric {

/// Block-list bump allocator.  Individual allocations are never freed;
/// reset() rewinds the cursor to reuse the committed blocks.  Blocks grow
/// geometrically, so a workspace converges to at most a handful of blocks
/// after its first binding and then never allocates again.
class Arena {
 public:
  Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `bytes` of storage aligned to `align` (a power of two no
  /// larger than kLineBytes).  Allocates a new block only when no
  /// committed block can satisfy the request — i.e. only during warm-up.
  void* allocate(std::size_t bytes, std::size_t align) {
    while (block_ < blocks_.size()) {
      const std::uintptr_t base =
          reinterpret_cast<std::uintptr_t>(blocks_[block_].base);
      const std::uintptr_t aligned = (base + offset_ + (align - 1)) & ~(align - 1);
      const std::size_t start = static_cast<std::size_t>(aligned - base);
      if (start + bytes <= blocks_[block_].size) {
        offset_ = start + bytes;
        used_ = block_bytes_before_ + offset_;
        if (used_ > high_water_) high_water_ = used_;
        return reinterpret_cast<void*>(aligned);
      }
      // Current block exhausted; move on (its tail is wasted until reset).
      block_bytes_before_ += blocks_[block_].size;
      ++block_;
      offset_ = 0;
    }
    const std::size_t grown = blocks_.empty() ? kInitialBlockBytes
                                              : 2 * blocks_.back().size;
    const std::size_t size = grown > bytes + align ? grown : bytes + align;
    Block block{std::make_unique<std::byte[]>(size + kLineBytes), nullptr,
                size};
    const std::uintptr_t raw =
        reinterpret_cast<std::uintptr_t>(block.data.get());
    block.base = block.data.get() + (kLineBytes - raw % kLineBytes) % kLineBytes;
    blocks_.push_back(std::move(block));
    return allocate(bytes, align);
  }

  /// Typed array carve; elements are NOT constructed (intended for
  /// trivially-constructible scalars: double, std::size_t, complex pairs).
  /// Every array starts on a 64-byte line, so the batched kernels' lane
  /// rows (16 lanes are two lines) start on line boundaries wherever the
  /// heap put the block, and the footprint does not depend on it.
  template <typename T>
  T* alloc_array(std::size_t count) {
    static_assert(alignof(T) <= kLineBytes);
    return static_cast<T*>(allocate(count * sizeof(T), kLineBytes));
  }

  /// Rewinds the cursor; committed blocks are retained for reuse.
  void reset() {
    block_ = 0;
    offset_ = 0;
    block_bytes_before_ = 0;
    used_ = 0;
  }

  /// Total bytes committed across all blocks.
  std::size_t capacity() const {
    std::size_t c = 0;
    for (const Block& b : blocks_) c += b.size;
    return c;
  }

  /// Largest cumulative bytes-in-use ever observed (monotone; survives
  /// reset()).  Pinned by the zero-allocation regression test.
  std::size_t high_water() const { return high_water_; }

 private:
  static constexpr std::size_t kInitialBlockBytes = 16 * 1024;
  static constexpr std::size_t kLineBytes = 64;

  // `base` is the first line boundary of `data`, which holds size + one
  // line of padding.
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::byte* base = nullptr;
    std::size_t size = 0;
  };

  std::vector<Block> blocks_;
  std::size_t block_ = 0;              // index of the block being bumped
  std::size_t offset_ = 0;             // cursor within that block
  std::size_t block_bytes_before_ = 0; // sum of sizes of blocks before it
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace gnsslna::numeric

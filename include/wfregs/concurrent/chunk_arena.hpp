// A single-owner bump allocator over a short list of heap chunks.
//
// The parallel explorer gives each worker one arena for everything it
// creates per configuration (interner nodes, edge arrays), so discovery
// makes no per-node heap call and teardown frees a few chunks instead of
// one block per node.  Chunks start small (small explorations stay small)
// and double up to kMaxChunk; a request larger than that gets a chunk of
// its own.  Memory is released only by the destructor, and nothing placed
// in the arena is ever destroyed: store trivially destructible objects.
//
// Not thread-safe: one thread allocates.  Other threads may read what was
// placed there once it has been published to them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>

namespace wfregs::concurrent {

class ChunkArena {
 public:
  ChunkArena() = default;
  ChunkArena(const ChunkArena&) = delete;
  ChunkArena& operator=(const ChunkArena&) = delete;

  ~ChunkArena() {
    while (head_ != nullptr) {
      Chunk* prev = head_->prev;
      ::operator delete(static_cast<void*>(head_),
                        std::align_val_t{alignof(Chunk)});
      head_ = prev;
    }
  }

  /// `bytes` of uninitialized storage aligned to `align` (a power of two no
  /// larger than alignof(std::max_align_t)); stable until destruction.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = align_up(next_, align);
    const auto end = reinterpret_cast<std::uintptr_t>(end_);
    if (next_ == nullptr || p + bytes > end) {
      grow(bytes + align);
      p = align_up(next_, align);
    }
    next_ = reinterpret_cast<std::byte*>(p + bytes);
    return reinterpret_cast<void*>(p);
  }

  /// Uninitialized storage for `n` objects of type T.
  template <class T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

 private:
  static constexpr std::size_t kFirstChunk = std::size_t{16} << 10;
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;

  struct alignas(alignof(std::max_align_t)) Chunk {
    Chunk* prev;
  };

  static std::uintptr_t align_up(std::byte* p, std::size_t align) {
    const auto v = reinterpret_cast<std::uintptr_t>(p);
    return (v + align - 1) & ~(std::uintptr_t{align} - 1);
  }

  void grow(std::size_t at_least) {
    const std::size_t size =
        std::max(next_size_, at_least + sizeof(Chunk));
    next_size_ = std::min(next_size_ * 2, kMaxChunk);
    void* raw = ::operator new(size, std::align_val_t{alignof(Chunk)});
    head_ = new (raw) Chunk{head_};
    next_ = reinterpret_cast<std::byte*>(head_ + 1);
    end_ = reinterpret_cast<std::byte*>(raw) + size;
  }

  Chunk* head_ = nullptr;
  std::byte* next_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t next_size_ = kFirstChunk;
};

}  // namespace wfregs::concurrent

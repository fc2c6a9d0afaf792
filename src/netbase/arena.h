// Pool allocation for the per-packet hot path.
//
// Every simulated packet carries a payload buffer and every DNS encode
// produces one; at fleet scale those vectors dominate the allocator
// profile. ByteArena recycles byte blocks through size-class free lists so
// steady-state packet traffic performs no heap allocation at all, and
// PoolAllocator adapts the arena to std::vector so existing buffer code
// keeps its shape (see ByteBuffer).
//
// Arenas are strictly thread-local: each fleet shard worker owns one
// (installed with ScopedArena), so acquire/release never synchronize.
// Blocks are plain ::operator new memory and may outlive the arena that
// handed them out — a buffer released on another thread simply parks in
// that thread's free lists. Pool reuse is content-independent, so recycling
// can never perturb a deterministic simulation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnslocate::netbase {

/// Size-class pool of byte blocks with LIFO free lists.
class ByteArena {
 public:
  /// Allocation counters (advisory: cross-thread releases land in the
  /// releasing thread's arena, so `live` can go negative there in spirit —
  /// it is tracked as acquire minus release on *this* arena).
  struct Stats {
    std::uint64_t fresh = 0;     // served by ::operator new
    std::uint64_t reused = 0;    // served from a free list
    std::uint64_t released = 0;  // returned to a free list
    std::uint64_t oversize = 0;  // beyond the largest class: heap passthrough
    std::uint64_t parked = 0;    // blocks currently in free lists
    std::uint64_t parked_bytes = 0;
  };

  /// `seed` drives the poison byte stream stamped over released blocks when
  /// `poison` is on (tests use it to prove released memory is never read);
  /// sharded fleet workers derive it from the fleet seed + shard index so
  /// shard-local scratch stays reproducible. Poisoning is off on the hot
  /// path — it costs a memset per release.
  explicit ByteArena(std::uint64_t seed = 0, bool poison = false);
  ~ByteArena();

  ByteArena(const ByteArena&) = delete;
  ByteArena& operator=(const ByteArena&) = delete;

  /// A usable block of at least `bytes` bytes (never null; zero-size
  /// requests get the smallest class). Throws std::bad_alloc on exhaustion.
  void* acquire(std::size_t bytes);
  /// Return a block obtained from acquire(bytes) on any arena.
  void release(void* block, std::size_t bytes) noexcept;

  /// The capacity actually backing a request of `bytes` (its size class),
  /// or `bytes` itself beyond the largest class. Exposed for tests.
  static std::size_t block_capacity(std::size_t bytes);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Release every parked block back to the heap (free lists stay usable).
  void trim() noexcept;
  /// Release every parked block and park nothing from now on: a later
  /// release goes straight to ::operator delete, and an acquire comes from
  /// ::operator new.
  void retire() noexcept;

 private:
  // 64B..4KB in powers of two covers every DNS payload (EDNS advertises
  // 1232 here); larger requests pass through to the heap.
  static constexpr std::size_t kClassCount = 7;
  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxBlock = kMinBlock << (kClassCount - 1);
  /// Per-class cap on parked blocks; overflow goes back to the heap so an
  /// allocation burst cannot pin memory forever.
  static constexpr std::size_t kMaxParkedPerClass = 4096;

  static std::size_t class_of(std::size_t bytes);
  void poison_block(void* block, std::size_t capacity) noexcept;

  std::uint64_t seed_;
  bool poison_;
  std::uint64_t poison_state_;
  std::array<std::vector<void*>, kClassCount> free_lists_;
  std::size_t max_parked_ = kMaxParkedPerClass;
  Stats stats_;
};

/// The calling thread's arena. Worker threads that want a dedicated arena
/// install one with ScopedArena; everything else shares a lazily created
/// per-thread default. The default frees its parked blocks at thread exit
/// and is retired from then on, so buffers owned by statics can still
/// release during shutdown.
ByteArena& this_thread_arena();

/// Install `arena` as the calling thread's arena for the current scope.
class ScopedArena {
 public:
  explicit ScopedArena(ByteArena& arena);
  ~ScopedArena();

  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

 private:
  ByteArena* previous_;
};

/// RAII ownership of one arena block (the direct-use face of the pool;
/// PoolAllocator is the std-container face).
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  ArenaBuffer(ByteArena& arena, std::size_t bytes)
      : arena_(&arena), data_(arena.acquire(bytes)), size_(bytes) {}
  ~ArenaBuffer() { reset(); }

  ArenaBuffer(ArenaBuffer&& other) noexcept
      : arena_(other.arena_), data_(other.data_), size_(other.size_) {
    other.arena_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      arena_ = other.arena_;
      data_ = other.data_;
      size_ = other.size_;
      other.arena_ = nullptr;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  [[nodiscard]] std::uint8_t* data() { return static_cast<std::uint8_t*>(data_); }
  [[nodiscard]] const std::uint8_t* data() const {
    return static_cast<const std::uint8_t*>(data_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return data_ == nullptr; }

  void reset() {
    if (data_ != nullptr) arena_->release(data_, size_);
    arena_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

 private:
  ByteArena* arena_ = nullptr;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Minimal std allocator over the calling thread's arena. Stateless: any
/// instance can deallocate any other instance's memory (the block just
/// parks in the releasing thread's arena).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    return static_cast<T*>(this_thread_arena().acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    this_thread_arena().release(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) { return true; }
};

/// The pooled byte buffer used for packet payloads (simnet) and encoded DNS
/// messages (dnswire::WireBuffer): std::vector semantics, arena-backed
/// storage.
using ByteBuffer = std::vector<std::uint8_t, PoolAllocator<std::uint8_t>>;

}  // namespace dnslocate::netbase

#include "netbase/arena.h"

#include <new>

namespace dnslocate::netbase {
namespace {

/// splitmix64: the same mixer simnet::Rng uses for seeding, reproduced here
/// so netbase stays dependency-free. Drives only the poison byte stream.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

ByteArena::ByteArena(std::uint64_t seed, bool poison)
    : seed_(seed), poison_(poison), poison_state_(seed) {}

ByteArena::~ByteArena() { trim(); }

std::size_t ByteArena::class_of(std::size_t bytes) {
  std::size_t capacity = kMinBlock;
  std::size_t index = 0;
  while (capacity < bytes) {
    capacity <<= 1;
    ++index;
  }
  return index;  // callers guarantee bytes <= kMaxBlock
}

std::size_t ByteArena::block_capacity(std::size_t bytes) {
  if (bytes > kMaxBlock) return bytes;
  return kMinBlock << class_of(bytes);
}

void* ByteArena::acquire(std::size_t bytes) {
  if (bytes > kMaxBlock) {
    ++stats_.oversize;
    ++stats_.fresh;
    return ::operator new(bytes);
  }
  std::size_t index = class_of(bytes);
  std::vector<void*>& list = free_lists_[index];
  if (!list.empty()) {
    void* block = list.back();
    list.pop_back();
    ++stats_.reused;
    --stats_.parked;
    stats_.parked_bytes -= kMinBlock << index;
    return block;
  }
  ++stats_.fresh;
  return ::operator new(kMinBlock << index);
}

void ByteArena::release(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (bytes > kMaxBlock) {
    ::operator delete(block);
    return;
  }
  std::size_t index = class_of(bytes);
  std::vector<void*>& list = free_lists_[index];
  if (list.size() >= max_parked_) {
    ::operator delete(block);
    return;
  }
  if (poison_) poison_block(block, kMinBlock << index);
  list.push_back(block);
  ++stats_.released;
  ++stats_.parked;
  stats_.parked_bytes += kMinBlock << index;
}

void ByteArena::poison_block(void* block, std::size_t capacity) noexcept {
  auto* bytes = static_cast<std::uint8_t*>(block);
  std::size_t offset = 0;
  while (offset < capacity) {
    std::uint64_t word = splitmix64(poison_state_);
    for (std::size_t i = 0; i < 8 && offset < capacity; ++i, ++offset)
      bytes[offset] = static_cast<std::uint8_t>(word >> (i * 8));
  }
}

void ByteArena::trim() noexcept {
  for (std::vector<void*>& list : free_lists_) {
    for (void* block : list) ::operator delete(block);
    list.clear();
  }
  stats_.parked = 0;
  stats_.parked_bytes = 0;
}

void ByteArena::retire() noexcept {
  trim();
  for (std::vector<void*>& list : free_lists_) std::vector<void*>().swap(list);
  max_parked_ = 0;
}

namespace {

/// The installed arena for this thread (null = use the thread's default).
thread_local ByteArena* t_arena = nullptr;

/// The thread's default arena lives in raw thread-local storage and is never
/// destroyed: buffers owned by objects with static storage release during
/// shutdown, after thread_local destructors have already run, and must still
/// find an arena. What it owns is freed at thread exit by retiring it, after
/// which it passes every block straight through to the heap.
alignas(ByteArena) thread_local unsigned char t_default_storage[sizeof(ByteArena)];
thread_local ByteArena* t_default = nullptr;

struct RetireAtThreadExit {
  ~RetireAtThreadExit() { t_default->retire(); }
};

}  // namespace

ByteArena& this_thread_arena() {
  if (t_arena != nullptr) return *t_arena;
  if (t_default == nullptr) {
    t_default = new (t_default_storage) ByteArena();
    thread_local RetireAtThreadExit retire_at_exit;
  }
  return *t_default;
}

ScopedArena::ScopedArena(ByteArena& arena) : previous_(t_arena) { t_arena = &arena; }

ScopedArena::~ScopedArena() { t_arena = previous_; }

}  // namespace dnslocate::netbase

// Property tests for the packet-payload arena: blocks are reused after
// release, concurrently live blocks never alias, and an interleaved
// alloc/free sweep driven by a seeded generator produces a deterministic
// allocation layout — the pool can recycle memory but never hand the same
// bytes to two owners or let recycled content leak into a fresh buffer's
// observable state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "dnswire/encoder.h"
#include "netbase/arena.h"
#include "simnet/packet.h"

namespace dnslocate::netbase {
namespace {

/// splitmix64 — the test's own generator, independent of the arena's.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(ByteArena, SizeClassesCoverDnsPayloads) {
  // 64B..4KB in powers of two; beyond that requests pass through.
  EXPECT_EQ(ByteArena::block_capacity(0), 64u);
  EXPECT_EQ(ByteArena::block_capacity(1), 64u);
  EXPECT_EQ(ByteArena::block_capacity(64), 64u);
  EXPECT_EQ(ByteArena::block_capacity(65), 128u);
  EXPECT_EQ(ByteArena::block_capacity(512), 512u);
  EXPECT_EQ(ByteArena::block_capacity(1232), 2048u);  // EDNS advertised size
  EXPECT_EQ(ByteArena::block_capacity(4096), 4096u);
  EXPECT_EQ(ByteArena::block_capacity(4097), 4097u);  // oversize: passthrough
  EXPECT_EQ(ByteArena::block_capacity(65536), 65536u);
}

TEST(ByteArena, ReusesBlockAfterRelease) {
  ByteArena arena;
  void* first = arena.acquire(100);
  arena.release(first, 100);
  // LIFO free list: the very next same-class acquire returns the same block.
  void* second = arena.acquire(80);  // same 128B class as 100
  EXPECT_EQ(second, first);
  EXPECT_EQ(arena.stats().fresh, 1u);
  EXPECT_EQ(arena.stats().reused, 1u);
  arena.release(second, 80);
}

TEST(ByteArena, DifferentClassesDoNotShareBlocks) {
  ByteArena arena;
  void* small = arena.acquire(32);
  arena.release(small, 32);
  void* large = arena.acquire(1024);
  EXPECT_NE(large, small);  // 64B-class block must not serve a 1KB request
  arena.release(large, 1024);
  EXPECT_EQ(arena.stats().fresh, 2u);
  EXPECT_EQ(arena.stats().reused, 0u);
}

TEST(ByteArena, LiveBlocksNeverAliasUnderInterleavedAllocFree) {
  ByteArena arena;
  std::uint64_t rng = 0x2021'0902;
  struct Live {
    void* block;
    std::size_t bytes;
  };
  std::vector<Live> live;
  std::set<const void*> addresses;

  for (int step = 0; step < 4000; ++step) {
    bool allocate = live.empty() || (mix(rng) % 100 < 60);
    if (allocate) {
      std::size_t bytes = 1 + mix(rng) % 5000;  // spans all classes + oversize
      void* block = arena.acquire(bytes);
      ASSERT_NE(block, nullptr);
      // The new block must not overlap ANY live block: check the address
      // range, not just the base pointer.
      auto* begin = static_cast<const std::uint8_t*>(block);
      std::size_t capacity = ByteArena::block_capacity(bytes);
      for (const Live& other : live) {
        auto* other_begin = static_cast<const std::uint8_t*>(other.block);
        std::size_t other_capacity = ByteArena::block_capacity(other.bytes);
        bool disjoint = begin + capacity <= other_begin || other_begin + other_capacity <= begin;
        ASSERT_TRUE(disjoint) << "step " << step << ": overlapping live blocks";
      }
      ASSERT_TRUE(addresses.insert(block).second);
      live.push_back({block, bytes});
    } else {
      std::size_t index = mix(rng) % live.size();
      arena.release(live[index].block, live[index].bytes);
      addresses.erase(live[index].block);
      live[index] = live.back();
      live.pop_back();
    }
  }
  for (const Live& entry : live) arena.release(entry.block, entry.bytes);
  // Every pooled block came back: releases match acquires, minus the
  // oversize passthroughs (which bypass the free lists entirely).
  EXPECT_EQ(arena.stats().released + arena.stats().oversize,
            arena.stats().fresh + arena.stats().reused);
}

TEST(ByteArena, WritesToOneBlockNeverBleedIntoAnother) {
  ByteArena arena;
  std::uint64_t rng = 77;
  std::vector<std::pair<void*, std::uint8_t>> live;  // block -> fill byte
  for (int step = 0; step < 600; ++step) {
    if (live.empty() || mix(rng) % 100 < 55) {
      auto fill = static_cast<std::uint8_t>(mix(rng) & 0xff);
      void* block = arena.acquire(256);
      std::memset(block, fill, 256);
      live.emplace_back(block, fill);
    } else {
      std::size_t index = mix(rng) % live.size();
      arena.release(live[index].first, 256);
      live[index] = live.back();
      live.pop_back();
    }
    // Every live block still holds exactly its own fill byte.
    for (const auto& [block, fill] : live) {
      const auto* bytes = static_cast<const std::uint8_t*>(block);
      for (std::size_t i = 0; i < 256; i += 37)
        ASSERT_EQ(bytes[i], fill) << "step " << step;
    }
  }
  for (const auto& entry : live) arena.release(entry.first, 256);
}

TEST(ByteArena, SeededSweepProducesDeterministicLayout) {
  // Two arenas driven by the same seeded schedule must make identical
  // fresh/reuse decisions at every step — the pool's recycling order is a
  // pure function of the request sequence, never of address values or
  // global state. (Addresses themselves differ run to run; the *layout* —
  // which step reuses which prior step's block — must not.)
  auto trace = [](std::uint64_t seed) {
    ByteArena arena(seed, /*poison=*/true);
    std::uint64_t rng = seed;
    std::map<const void*, int> born_at;   // live block -> step that produced it
    std::vector<std::pair<void*, std::size_t>> live;
    std::vector<int> layout;  // per alloc step: -1 fresh, else donor step
    for (int step = 0; step < 1500; ++step) {
      if (live.empty() || mix(rng) % 100 < 58) {
        std::size_t bytes = 1 + mix(rng) % 4096;
        void* block = arena.acquire(bytes);
        auto it = born_at.find(block);
        layout.push_back(it == born_at.end() ? -1 : it->second);
        born_at[block] = step;
        live.emplace_back(block, bytes);
      } else {
        std::size_t index = mix(rng) % live.size();
        arena.release(live[index].first, live[index].second);
        live[index] = live.back();
        live.pop_back();
      }
    }
    for (const auto& [block, bytes] : live) arena.release(block, bytes);
    return layout;
  };

  auto first = trace(0xfeed);
  auto second = trace(0xfeed);
  EXPECT_EQ(first, second);
  // Reuse actually happened — the property above is not vacuous.
  EXPECT_TRUE(std::any_of(first.begin(), first.end(), [](int donor) { return donor >= 0; }));
}

TEST(ByteArena, TrimReturnsParkedBlocksToTheHeap) {
  ByteArena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(arena.acquire(512));
  for (void* block : blocks) arena.release(block, 512);
  EXPECT_EQ(arena.stats().parked, 16u);
  EXPECT_GT(arena.stats().parked_bytes, 0u);
  arena.trim();
  EXPECT_EQ(arena.stats().parked, 0u);
  EXPECT_EQ(arena.stats().parked_bytes, 0u);
  // The free lists stay usable after a trim.
  void* fresh = arena.acquire(512);
  arena.release(fresh, 512);
}

TEST(ByteArena, OversizeRequestsPassThrough) {
  ByteArena arena;
  void* big = arena.acquire(100000);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 100000);  // the full request size is writable
  arena.release(big, 100000);
  EXPECT_EQ(arena.stats().oversize, 1u);
  EXPECT_EQ(arena.stats().parked, 0u);  // oversize blocks are never parked
}

TEST(ArenaBuffer, RaiiOwnershipReleasesExactlyOnce) {
  ByteArena arena;
  {
    ArenaBuffer buffer(arena, 200);
    ASSERT_FALSE(buffer.empty());
    EXPECT_EQ(buffer.size(), 200u);
    std::memset(buffer.data(), 0x5a, buffer.size());

    // Move transfers ownership; the source must not double-release.
    ArenaBuffer stolen(std::move(buffer));
    EXPECT_TRUE(buffer.empty());  // NOLINT(bugprone-use-after-move): moved-from query
    EXPECT_EQ(stolen.size(), 200u);
    EXPECT_EQ(stolen.data()[199], 0x5a);

    ArenaBuffer assigned;
    assigned = std::move(stolen);
    EXPECT_EQ(assigned.size(), 200u);
    EXPECT_EQ(arena.stats().released, 0u);  // still exactly one live owner
  }
  EXPECT_EQ(arena.stats().fresh, 1u);
  EXPECT_EQ(arena.stats().released, 1u);  // destructor released exactly once
  // reset() on an empty buffer is a no-op, not a second release.
  ArenaBuffer empty;
  empty.reset();
  EXPECT_EQ(arena.stats().released, 1u);
}

TEST(ScopedArena, InstallsAndRestoresTheThreadArena) {
  ByteArena& base = this_thread_arena();
  ByteArena mine(42);
  {
    ScopedArena scoped(mine);
    EXPECT_EQ(&this_thread_arena(), &mine);
    // Nesting restores in LIFO order.
    ByteArena inner(43);
    {
      ScopedArena nested(inner);
      EXPECT_EQ(&this_thread_arena(), &inner);
    }
    EXPECT_EQ(&this_thread_arena(), &mine);
  }
  EXPECT_EQ(&this_thread_arena(), &base);
}

TEST(ByteArena, RetiredArenaParksNothing) {
  ByteArena arena;
  void* block = arena.acquire(100);
  arena.release(block, 100);
  EXPECT_EQ(arena.stats().parked, 1u);
  arena.retire();
  EXPECT_EQ(arena.stats().parked, 0u);
  // After retire(), blocks pass straight through to the heap.
  void* late = arena.acquire(100);
  arena.release(late, 100);
  EXPECT_EQ(arena.stats().parked, 0u);
  EXPECT_EQ(arena.stats().fresh, 2u);
}

TEST(ScopedArena, ExitingThreadFreesItsDefaultArena) {
  // A thread without a ScopedArena parks blocks in its default arena, which
  // must free them when the thread exits (LeakSanitizer checks this under
  // the asan-ubsan preset). A buffer the thread allocated may outlive it;
  // freeing it here just parks its block in this thread's arena.
  ByteBuffer survivor;
  std::thread worker([&survivor] {
    for (std::size_t round = 0; round < 8; ++round) {
      ByteBuffer scratch(100 + 300 * round, 0xab);
      EXPECT_EQ(scratch.back(), 0xab);
    }
    survivor.assign(200, 0xcd);
  });
  worker.join();
  ASSERT_EQ(survivor.size(), 200u);
  EXPECT_EQ(survivor.back(), 0xcd);
  survivor = ByteBuffer{};
  EXPECT_TRUE(survivor.empty());
}

TEST(PoolAllocator, ByteBufferRoundTripsThroughTheInstalledArena) {
  ByteArena arena;
  ScopedArena scoped(arena);
  auto fresh_before = arena.stats().fresh;
  {
    ByteBuffer buffer;
    buffer.reserve(300);
    for (int i = 0; i < 300; ++i) buffer.push_back(static_cast<std::uint8_t>(i));
    EXPECT_GT(arena.stats().fresh, fresh_before);  // storage came from the arena
  }
  EXPECT_EQ(arena.stats().released, arena.stats().fresh + arena.stats().reused);
  // A second buffer of the same shape reuses the parked block.
  auto reused_before = arena.stats().reused;
  {
    ByteBuffer buffer;
    buffer.reserve(300);
  }
  EXPECT_GT(arena.stats().reused, reused_before);
}

TEST(PoolAllocator, PacketPayloadAndWireBufferAreArenaBacked) {
  // The two hot-path typedefs must actually route through the pool — this is
  // the integration the whole subsystem exists for.
  static_assert(std::is_same_v<simnet::Payload, ByteBuffer>);
  static_assert(std::is_same_v<dnswire::WireBuffer, ByteBuffer>);
  ByteArena arena;
  ScopedArena scoped(arena);
  dnswire::Message query;
  query.id = 0x1234;
  query.questions.push_back({*dnswire::DnsName::parse("example.com"),
                             dnswire::RecordType::A, dnswire::RecordClass::IN});
  auto total = [&] { return arena.stats().fresh + arena.stats().reused; };
  auto before = total();
  dnswire::WireBuffer wire = dnswire::encode_message(query);
  EXPECT_FALSE(wire.empty());
  EXPECT_GT(total(), before);  // the encode allocated from the arena
}

TEST(ByteArena, ReleasedPoisonIsDeterministicPerSeed) {
  // With poisoning on, a released block is stamped from the arena's seeded
  // stream; same seed + same schedule => same bytes. (The hot path runs with
  // poison off; tests use it to catch use-after-release.)
  auto stamp = [](std::uint64_t seed) {
    ByteArena arena(seed, /*poison=*/true);
    void* block = arena.acquire(64);
    std::memset(block, 0, 64);
    arena.release(block, 64);
    // The block is parked; reading it here is safe (the arena still owns it).
    std::vector<std::uint8_t> bytes(static_cast<std::uint8_t*>(block),
                                    static_cast<std::uint8_t*>(block) + 64);
    return bytes;
  };
  EXPECT_EQ(stamp(7), stamp(7));
  EXPECT_NE(stamp(7), stamp(8));
}

}  // namespace
}  // namespace dnslocate::netbase

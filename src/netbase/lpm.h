// Longest-prefix-match table (binary radix trie), generic over the value
// attached to each route. Used for routing tables, bogon catalogs with
// custom entries, and resolver anycast catchments.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/prefix.h"

namespace dnslocate::netbase {

/// A binary trie keyed by address bits. Insert Prefix -> Value; lookup(addr)
/// returns the value of the longest matching prefix, or nullopt.
/// v4 and v6 live in separate tries, so families never collide.
template <typename Value>
class LpmTable {
 public:
  LpmTable() = default;

  /// Insert or replace the value for `prefix`.
  void insert(const Prefix& prefix, Value value) {
    Node* node = &root(prefix.family());
    for_each_bit(prefix.address(), prefix.length(), [&](bool bit) {
      auto& child = bit ? node->one : node->zero;
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    });
    node->value = std::move(value);
    ++size_;
    if (node->had_value) --size_;  // replacement, not growth
    node->had_value = true;
  }

  /// Longest-prefix match. Returns a pointer into the table (stable until
  /// the next insert/clear), or nullptr if nothing matches.
  [[nodiscard]] const Value* lookup(const IpAddress& addr) const {
    const Node* node = &root(addr.family());
    const Value* best = node->had_value ? &*node->value : nullptr;
    unsigned max_bits = addr.is_v4() ? 32u : 128u;
    for_each_bit(addr, max_bits, [&](bool bit) {
      if (!node) return;
      const auto& child = bit ? node->one : node->zero;
      node = child.get();
      if (node && node->had_value) best = &*node->value;
    });
    return best;
  }

  /// Exact-match lookup of a previously inserted prefix.
  [[nodiscard]] const Value* lookup_exact(const Prefix& prefix) const {
    const Node* node = &root(prefix.family());
    for_each_bit(prefix.address(), prefix.length(), [&](bool bit) {
      if (!node) return;
      node = (bit ? node->one : node->zero).get();
    });
    return node && node->had_value ? &*node->value : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    v4_root_ = Node{};
    v6_root_ = Node{};
    size_ = 0;
  }

 private:
  struct Node {
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
    std::optional<Value> value;
    bool had_value = false;
  };

  Node& root(IpFamily family) { return family == IpFamily::v4 ? v4_root_ : v6_root_; }
  const Node& root(IpFamily family) const {
    return family == IpFamily::v4 ? v4_root_ : v6_root_;
  }

  template <typename Fn>
  static void for_each_bit(const IpAddress& addr, unsigned bits, Fn&& fn) {
    if (addr.is_v4()) {
      std::uint32_t v = addr.v4().value();
      for (unsigned i = 0; i < bits && i < 32; ++i) fn((v >> (31 - i)) & 1u);
    } else {
      const auto& b = addr.v6().bytes();
      for (unsigned i = 0; i < bits && i < 128; ++i)
        fn((static_cast<unsigned>(b[i / 8]) >> (7 - i % 8)) & 1u);
    }
  }

  Node v4_root_;
  Node v6_root_;
  std::size_t size_ = 0;
};

}  // namespace dnslocate::netbase

// Fnv1a — the one 64-bit FNV-1a accumulator behind every content hash in
// the repo: per-scenario seeds, output-grid hashes, sweep digests, result
// store keys and store record checksums. The folds differ in what one step
// consumes, and each hash site's choice is pinned by committed reports and
// store segments, so the folds are not interchangeable:
//   bytes  — one byte per step (a byte run);
//   scalar — a value's object bytes, one byte per step;
//   str    — a length prefix (the size_t's bytes) then the bytes, so
//            adjacent strings cannot trade characters;
//   word   — one whole 64-bit value per step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace smache {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  Fnv1a& bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) word(p[i]);
    return *this;
  }
  Fnv1a& bytes(std::string_view s) noexcept {
    return bytes(s.data(), s.size());
  }

  template <typename T>
  Fnv1a& scalar(const T& value) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes(&value, sizeof value);
  }

  Fnv1a& str(std::string_view s) noexcept {
    return scalar(s.size()).bytes(s);
  }

  Fnv1a& word(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= kPrime;
    return *this;
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

}  // namespace smache

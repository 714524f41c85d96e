// Small numeric helpers of the benchmark: nearest-rank percentiles with the
// "at least ten samples beyond" rule, and a running FNV-1a digest used to show
// that two runs produced byte-identical outputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; fewer makes the value a statement about one or two outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

/// Samples strictly after the nearest-rank position of `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// Nearest-rank percentile of `samples` (need not be sorted). Empty input
/// gives 0.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The first of `candidates` (highest first, e.g. {99, 90}) that has at least
/// kMinSamplesBeyond samples beyond it among `n`; nullopt when none has.
inline std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> candidates) {
  for (double p : candidates) {
    if (samples_beyond(n, p) >= kMinSamplesBeyond) return p;
  }
  return std::nullopt;
}

/// 64-bit FNV-1a over a stream of integers and strings.
class Digest {
 public:
  void add(std::int64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) >> (8 * i)));
    }
  }
  void add(std::string_view text) {
    for (char c : text) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
  std::uint64_t value() const { return hash_; }
  std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[static_cast<std::size_t>(15 - i)] = kDigits[(hash_ >> (4 * i)) & 0xf];
    }
    return out;
  }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

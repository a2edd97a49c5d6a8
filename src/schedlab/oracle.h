// Oracle helpers the schedlab properties and the chaos harness share: a
// first-failure collector, elementwise comparisons, the FNV-1a result
// digest, the seeded per-position payloads and their reduction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "comm/types.h"
#include "common/rng.h"

namespace dear::schedlab::oracle {

inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;

/// FNV-1a over the bits of `v`, continuing from `h`.
inline std::uint64_t DigestFloats(std::uint64_t h, std::span<const float> v) {
  for (const float f : v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int s = 0; s < 32; s += 8) {
      h ^= (bits >> s) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

inline std::uint64_t Mix64(std::uint64_t h, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) {
    h ^= (v >> s) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Seeded payload of `n` values in [-2, 2) for group position `pos`.
inline std::vector<float> MakeInput(std::uint64_t seed, int pos,
                                    std::size_t n) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(pos) + 1);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return v;
}

/// Elementwise reduction of the inputs, accumulated in double: the exact
/// oracle the tolerance checks compare against (kMax/kMin are exact).
inline std::vector<float> Reduced(const std::vector<std::vector<float>>& in,
                                  comm::ReduceOp op) {
  std::vector<float> out(in[0].size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = in[0][i];
    for (std::size_t r = 1; r < in.size(); ++r) {
      const double x = in[r][i];
      if (op == comm::ReduceOp::kMax) acc = std::max(acc, x);
      else if (op == comm::ReduceOp::kMin) acc = std::min(acc, x);
      else acc += x;
    }
    if (op == comm::ReduceOp::kAvg) acc /= static_cast<double>(in.size());
    out[i] = static_cast<float>(acc);
  }
  return out;
}

inline bool Near(float a, float b, float tol = 1e-4f) {
  return std::fabs(a - b) <= tol * (1.0f + std::fabs(b));
}

/// First-failure collector.
struct Verdict {
  bool ok{true};
  std::string failure;
  void Expect(bool cond, const std::string& msg) {
    if (!cond && ok) {
      ok = false;
      failure = msg;
    }
  }
};

/// Requires close(got[i], want[i]) for every i; names the first element
/// that is not.
template <typename Close>
void ExpectCloseAll(Verdict& v, const std::string& what,
                    std::span<const float> got, std::span<const float> want,
                    Close close) {
  v.Expect(got.size() == want.size(), what + ": size mismatch");
  if (!v.ok) return;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!close(got[i], want[i])) {
      v.Expect(false, what + ": elem " + std::to_string(i) + " got " +
                          std::to_string(got[i]) + " want " +
                          std::to_string(want[i]));
      return;
    }
  }
}

inline void ExpectNearAll(Verdict& v, const std::string& what,
                          std::span<const float> got,
                          std::span<const float> want, float tol = 1e-4f) {
  ExpectCloseAll(v, what, got, want,
                 [tol](float a, float b) { return Near(a, b, tol); });
}

inline void ExpectBitwiseAll(Verdict& v, const std::string& what,
                             std::span<const float> got,
                             std::span<const float> want) {
  ExpectCloseAll(v, what + " (bitwise)", got, want, [](float a, float b) {
    return std::memcmp(&a, &b, sizeof(float)) == 0;
  });
}

}  // namespace dear::schedlab::oracle

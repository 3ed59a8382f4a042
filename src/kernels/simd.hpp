#pragma once

#include <cstddef>
#include <cstdint>
#include <cmath>

// Portable fixed-width SIMD wrappers for the kernels' double-precision inner
// loops. Each instruction set is a tag struct carrying its lane count, its
// name, a vector type `VecD` and the operations on it, so one loop template
// can be instantiated once per ISA:
//
//   simd::Sse2 .... 2 lanes (__m128d)      x86-64 baseline
//   simd::Neon .... 2 lanes (float64x2_t)  aarch64 baseline
//   simd::Scalar .. 1 lane  (plain double) anything else
//   simd::Avx2 .... 4 lanes (__m256d)      x86-64, compiled for the avx2
//                                          target in-source; callers must
//                                          check the CPU before running it
//
// `simd::Native` is the compile-time baseline (what every CPU of the build
// target runs); `kWidth` and `kIsa` name it. Avx2 exists for extra
// instantiations chosen at run time: the code using it must itself be
// compiled for the avx2 target, with everything between its entry point
// and these operations inlined (see hermite_tile.cpp).
//
// Only IEEE-754 correctly-rounded operations are exposed (+ - * / sqrt,
// bitwise selects, and the lane shuffles of `transpose`) — no FMA, no
// rsqrt/rcp approximations. The Avx2 target is "avx2" without "fma" on
// purpose: with GCC's default -ffp-contract=fast an FMA-enabled target
// contracts a*b + c and changes the rounding. So one per-lane operation
// sequence gives bit-identical results on every ISA. Whether a vector loop
// matches its scalar reference then depends only on its layout: the Hermite
// i-lane tile and symmetric kernel give each lane its own target row and
// run the scalar order per lane (bit-identical; the symmetric kernel also
// transposes its mirrored terms so each source row receives them in the
// scalar order); the SPH gather and the BH near-leaf loop put sources in
// lanes and reassociate the sum, which is why those kernels keep scalar
// references behind set_simd(false).

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#include <immintrin.h>
#define JUNGLE_SIMD_SSE2 1
// The AVX2 instantiation relies on GCC's target pragma.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define JUNGLE_SIMD_AVX2 1
#endif
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define JUNGLE_SIMD_NEON 1
#endif

namespace jungle::kernels::simd {

struct Scalar {
  static constexpr std::size_t kWidth = 1;
  static constexpr const char* kName = "scalar";
  struct VecD {
    double raw;
    friend VecD operator+(VecD a, VecD b) noexcept { return {a.raw + b.raw}; }
    friend VecD operator-(VecD a, VecD b) noexcept { return {a.raw - b.raw}; }
    friend VecD operator*(VecD a, VecD b) noexcept { return {a.raw * b.raw}; }
    friend VecD operator/(VecD a, VecD b) noexcept { return {a.raw / b.raw}; }
  };
  static VecD load(const double* p) noexcept { return {*p}; }
  static void store(double* p, VecD v) noexcept { *p = v.raw; }
  static VecD set1(double v) noexcept { return {v}; }
  static VecD zero() noexcept { return {0.0}; }
  static VecD sqrt(VecD a) noexcept { return {std::sqrt(a.raw)}; }
  /// Lane mask (all-ones / all-zeros bits) for a < b.
  static VecD less(VecD a, VecD b) noexcept {
    std::uint64_t bits = a.raw < b.raw ? ~std::uint64_t{0} : 0;
    double mask;
    __builtin_memcpy(&mask, &bits, sizeof(mask));
    return {mask};
  }
  /// mask ? a : b, per lane, bitwise (a NaN in the unselected side is
  /// dropped).
  static VecD select(VecD mask, VecD a, VecD b) noexcept {
    std::uint64_t mbits, abits, bbits;
    __builtin_memcpy(&mbits, &mask.raw, sizeof(mbits));
    __builtin_memcpy(&abits, &a.raw, sizeof(abits));
    __builtin_memcpy(&bbits, &b.raw, sizeof(bbits));
    std::uint64_t rbits = (mbits & abits) | (~mbits & bbits);
    double r;
    __builtin_memcpy(&r, &rbits, sizeof(r));
    return {r};
  }
  static double hsum(VecD v) noexcept { return v.raw; }
  /// Transposes the kWidth x kWidth block whose row r is m[r] (lane k of
  /// m[r] becomes lane r of m[k]). Data movement only: no bit changes.
  static void transpose(VecD (&)[kWidth]) noexcept {}
};

#if defined(JUNGLE_SIMD_SSE2)

struct Sse2 {
  static constexpr std::size_t kWidth = 2;
  static constexpr const char* kName = "sse2";
  struct VecD {
    __m128d raw;
    friend VecD operator+(VecD a, VecD b) noexcept {
      return {_mm_add_pd(a.raw, b.raw)};
    }
    friend VecD operator-(VecD a, VecD b) noexcept {
      return {_mm_sub_pd(a.raw, b.raw)};
    }
    friend VecD operator*(VecD a, VecD b) noexcept {
      return {_mm_mul_pd(a.raw, b.raw)};
    }
    friend VecD operator/(VecD a, VecD b) noexcept {
      return {_mm_div_pd(a.raw, b.raw)};
    }
  };
  static VecD load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
  static void store(double* p, VecD v) noexcept { _mm_storeu_pd(p, v.raw); }
  static VecD set1(double v) noexcept { return {_mm_set1_pd(v)}; }
  static VecD zero() noexcept { return {_mm_setzero_pd()}; }
  static VecD sqrt(VecD a) noexcept { return {_mm_sqrt_pd(a.raw)}; }
  static VecD less(VecD a, VecD b) noexcept {
    return {_mm_cmplt_pd(a.raw, b.raw)};
  }
  static VecD select(VecD mask, VecD a, VecD b) noexcept {
    return {_mm_or_pd(_mm_and_pd(mask.raw, a.raw),
                      _mm_andnot_pd(mask.raw, b.raw))};
  }
  static double hsum(VecD v) noexcept {
    __m128d swap = _mm_unpackhi_pd(v.raw, v.raw);
    return _mm_cvtsd_f64(_mm_add_sd(v.raw, swap));
  }
  static void transpose(VecD (&m)[kWidth]) noexcept {
    const __m128d r0 = m[0].raw, r1 = m[1].raw;
    m[0].raw = _mm_unpacklo_pd(r0, r1);
    m[1].raw = _mm_unpackhi_pd(r0, r1);
  }
};
using Native = Sse2;

#elif defined(JUNGLE_SIMD_NEON)

struct Neon {
  static constexpr std::size_t kWidth = 2;
  static constexpr const char* kName = "neon";
  struct VecD {
    float64x2_t raw;
    friend VecD operator+(VecD a, VecD b) noexcept {
      return {vaddq_f64(a.raw, b.raw)};
    }
    friend VecD operator-(VecD a, VecD b) noexcept {
      return {vsubq_f64(a.raw, b.raw)};
    }
    friend VecD operator*(VecD a, VecD b) noexcept {
      return {vmulq_f64(a.raw, b.raw)};
    }
    friend VecD operator/(VecD a, VecD b) noexcept {
      return {vdivq_f64(a.raw, b.raw)};
    }
  };
  static VecD load(const double* p) noexcept { return {vld1q_f64(p)}; }
  static void store(double* p, VecD v) noexcept { vst1q_f64(p, v.raw); }
  static VecD set1(double v) noexcept { return {vdupq_n_f64(v)}; }
  static VecD zero() noexcept { return {vdupq_n_f64(0.0)}; }
  static VecD sqrt(VecD a) noexcept { return {vsqrtq_f64(a.raw)}; }
  static VecD less(VecD a, VecD b) noexcept {
    return {vreinterpretq_f64_u64(vcltq_f64(a.raw, b.raw))};
  }
  static VecD select(VecD mask, VecD a, VecD b) noexcept {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.raw), a.raw, b.raw)};
  }
  static double hsum(VecD v) noexcept {
    return vgetq_lane_f64(v.raw, 0) + vgetq_lane_f64(v.raw, 1);
  }
  static void transpose(VecD (&m)[kWidth]) noexcept {
    const float64x2_t r0 = m[0].raw, r1 = m[1].raw;
    m[0].raw = vzip1q_f64(r0, r1);
    m[1].raw = vzip2q_f64(r0, r1);
  }
};
using Native = Neon;

#else

using Native = Scalar;

#endif

#if defined(JUNGLE_SIMD_AVX2)
// Every member below is compiled for the avx2 target whatever the build
// flags say; nothing here may run before the CPU has been checked.
#pragma GCC push_options
#pragma GCC target("avx2")
struct Avx2 {
  static constexpr std::size_t kWidth = 4;
  static constexpr const char* kName = "avx2";
  struct VecD {
    __m256d raw;
  };
  static VecD load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  static void store(double* p, VecD v) noexcept { _mm256_storeu_pd(p, v.raw); }
  static VecD set1(double v) noexcept { return {_mm256_set1_pd(v)}; }
  static VecD zero() noexcept { return {_mm256_setzero_pd()}; }
  static VecD sqrt(VecD a) noexcept { return {_mm256_sqrt_pd(a.raw)}; }
  static VecD select(VecD mask, VecD a, VecD b) noexcept {
    return {_mm256_blendv_pd(b.raw, a.raw, mask.raw)};
  }
  static void transpose(VecD (&m)[kWidth]) noexcept {
    const __m256d t0 = _mm256_unpacklo_pd(m[0].raw, m[1].raw);
    const __m256d t1 = _mm256_unpackhi_pd(m[0].raw, m[1].raw);
    const __m256d t2 = _mm256_unpacklo_pd(m[2].raw, m[3].raw);
    const __m256d t3 = _mm256_unpackhi_pd(m[2].raw, m[3].raw);
    m[0].raw = _mm256_permute2f128_pd(t0, t2, 0x20);
    m[1].raw = _mm256_permute2f128_pd(t1, t3, 0x20);
    m[2].raw = _mm256_permute2f128_pd(t0, t2, 0x31);
    m[3].raw = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};
// Namespace-scope operators rather than hidden friends: GCC does not apply
// the target pragma to friend functions defined in a class.
inline Avx2::VecD operator+(Avx2::VecD a, Avx2::VecD b) noexcept {
  return {_mm256_add_pd(a.raw, b.raw)};
}
inline Avx2::VecD operator-(Avx2::VecD a, Avx2::VecD b) noexcept {
  return {_mm256_sub_pd(a.raw, b.raw)};
}
inline Avx2::VecD operator*(Avx2::VecD a, Avx2::VecD b) noexcept {
  return {_mm256_mul_pd(a.raw, b.raw)};
}
inline Avx2::VecD operator/(Avx2::VecD a, Avx2::VecD b) noexcept {
  return {_mm256_div_pd(a.raw, b.raw)};
}
#pragma GCC pop_options
#endif

// The compile-time baseline, as used by the SPH and BH vector loops.
inline constexpr std::size_t kWidth = Native::kWidth;
inline constexpr const char* kIsa = Native::kName;

}  // namespace jungle::kernels::simd

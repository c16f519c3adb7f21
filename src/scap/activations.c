/* Loops over contiguous arrays, the outputs aliasing no input:
 *
 *   swiglu_f64: z[i] = silu(x) * (float)u[i] with x = (float)g[i] and
 *             silu(x) = x * (1 / (1 + expf(-x))), all in float: SwiGLU's
 *             epilogue on its two float64 products, and silu itself with
 *             u all ones
 *   gelu_f32: y[i] = (0.5 * x[i]) * (1 + (float)erf(x[i] / s)) in float, the
 *             quotient widened to double for erf; s is sqrt(2) rounded to
 *             float, 0x3FB504F3
 *   prune_f32: v = x[i] - eta and kept = !(|v| <= tau) in float, v widened
 *             to double and zeroed where pruned, with each column's union
 *             of kept flags and the counts of both: the pruner of
 *             kernels.sparse_fc
 *   rmsnorm_f32: each row of doubles over its root mean square, times a
 *             gain, rounded to float, in numpy's order of operations
 *   reservoir_draw: Algorithm R for values that arrive past a full
 *             reservoir's capacity, drawn as numpy's Generator.integers does
 *
 * expf is glibc 2.36's algorithm (from ARM optimized-routines), written out
 * below with the multiply-adds of its FMA build as explicit fma() calls, so
 * that its bits are the C library's and the compiler can vectorise the
 * SwiGLU loop that inlines it; erf is the C library's. Build with
 * -ffp-contract=off, so that no other multiply-add is fused and each
 * operation rounds as written, and without -ffast-math, so that the
 * compiler keeps the scalar erf.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* tab[i] = bits(2^(i/32)) - (i << 52) / 32, so that 2^(k/32) is
 * bits(tab[k % 32] + (k << 47)) for any int k whose power is normal */
static const uint64_t EXP2_TAB[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/* c ? a : b through bit masks: a ternary lets the compiler branch around
 * the polynomial, which keeps it from vectorising the loop */
static inline float pick(int c, float a, float b)
{
    uint32_t m = -(uint32_t)c, ab, bb;
    memcpy(&ab, &a, sizeof ab);
    memcpy(&bb, &b, sizeof bb);
    bb = (ab & m) | (bb & ~m);
    memcpy(&b, &bb, sizeof b);
    return b;
}

/* e^x = 2^(k/32) * 2^(r/32) with x * 32/ln2 = k + r, |r| <= 1/2, and 2^(r/32)
 * a cubic in r. glibc's |x| >= 88 branches become selects: past
 * log(0x1p128) the result is inf, below log(0x1p-150) it is 0, and NaN
 * gives x + x; every other x runs the polynomial. */
static inline float exp_f32(float x)
{
    const double inv_ln2_n = 0x1.71547652b82fep+5, shift = 0x1.8p+52;
    const double c0 = 0x1.c6af84b912394p-20, c1 = 0x1.ebfce50fac4f3p-13,
                 c2 = 0x1.62e42ff0c52d6p-6;
    double xd = (double)x;
    double kd = fma(inv_ln2_n, xd, shift); /* k in the low bits of kd */
    uint64_t ki, t;
    memcpy(&ki, &kd, sizeof ki);
    double r = fma(inv_ln2_n, xd, -(kd - shift));
    t = EXP2_TAB[ki % 32] + (ki << 47);
    double s;
    memcpy(&s, &t, sizeof s);
    double y = fma(fma(c0, r, c1), r * r, fma(c2, r, 1.0)) * s;
    float e = pick(x > 0x1.62e42ep6f, INFINITY, (float)y);
    e = pick(x < -0x1.9fe368p6f, 0.0f, e);
    return pick(x != x, x + x, e);
}

#if defined(__x86_64__) && defined(__AVX512F__)
/* one 16-lane pass per 16 values where the host has it; same bits */
__attribute__((target("prefer-vector-width=512")))
#endif
void swiglu_f64(const double *g, const double *u, int64_t n, float *restrict z)
{
    for (int64_t i = 0; i < n; i++) {
        float x = (float)g[i];
        z[i] = (x * (1.0f / (1.0f + exp_f32(-x)))) * (float)u[i];
    }
}

void gelu_f32(const float *x, int64_t n, float *restrict y)
{
    const float s = 1.41421353816986083984375f; /* 0x3FB504F3 */
    for (int64_t i = 0; i < n; i++)
        y[i] = (0.5f * x[i]) * (1.0f + (float)erf((double)(x[i] / s)));
}

/* The loops from here to the pop build at O2, vectorised by hand with
 * GCC's vector types or not at all: with the O3 vectoriser the union and
 * the norm compiled about as slowly as the rest of this source together. */
#pragma GCC push_options
#pragma GCC optimize("O2")

typedef double f64x8 __attribute__((vector_size(64)));
typedef float f32x8 __attribute__((vector_size(32)));

static inline f64x8 load8(const double *x)
{
    f64x8 v;
    memcpy(&v, x, sizeof v);
    return v;
}

/* any[j] = whether some of n rows of d flags (0 or 1) keeps column j, the
 * flags ORed 8 columns to a word; returns the number of such columns */
static int64_t column_union(const uint8_t *kept, int64_t n, int64_t d, uint8_t *any)
{
    int64_t n_any = 0, j = 0;
    for (; j + 8 <= d; j += 8) {
        uint64_t w = 0, k;
        for (int64_t i = 0; i < n; i++) {
            memcpy(&k, kept + i * d + j, sizeof k);
            w |= k;
        }
        memcpy(any + j, &w, sizeof w);
        n_any += __builtin_popcountll(w);
    }
    for (; j < d; j++) {
        uint8_t w = 0;
        for (int64_t i = 0; i < n; i++)
            w |= kept[i * d + j];
        any[j] = w;
        n_any += w;
    }
    return n_any;
}

/* The squares of x[0..n) summed as numpy's pairwise_sum adds a contiguous
 * float64 row in np.add.reduce: below 8 values one by one from 0; up to 128
 * in 8 accumulators, one per lane, combined as a tree, then the rest one by
 * one; above that the two halves, split at a multiple of 8. */
static double sum_squares(const double *x, int64_t n)
{
    if (n > 128) {
        int64_t half = n / 2 - n / 2 % 8;
        return sum_squares(x, half) + sum_squares(x + half, n - half);
    }
    double s = 0.0;
    int64_t i = 0;
    if (n >= 8) {
        f64x8 r = load8(x) * load8(x);
        for (i = 8; i < n - n % 8; i += 8)
            r += load8(x + i) * load8(x + i);
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        s += x[i] * x[i];
    return s;
}

/* For n rows of d doubles: y = (x / rms) * gain rounded to float, where
 * rms = sqrt(sum(x * x) / d + eps), each operation in double, 8 lanes at a
 * time, and the sum in numpy's order; so the bits of
 * ((x / sqrt(mean(x * x, axis=1) + eps)) * gain).astype(float32). */
void rmsnorm_f32(const double *x, int64_t n, int64_t d, const double *gain, double eps,
                 float *restrict y)
{
    for (int64_t i = 0; i < n; i++, x += d, y += d) {
        double rms = sqrt(sum_squares(x, d) / (double)d + eps);
        int64_t j = 0;
        for (; j + 8 <= d; j += 8) {
            f32x8 q = __builtin_convertvector((load8(x + j) / rms) * load8(gain + j), f32x8);
            memcpy(y + j, &q, sizeof q);
        }
        for (; j < d; j++)
            y[j] = (float)((x[j] / rms) * gain[j]);
    }
}

#pragma GCC pop_options

/* For n rows of d values: v = x - eta and kept = !(|v| <= tau), so NaN is
 * kept; out holds (double)v, or +0.0 where pruned when zero is set, and
 * any[j] whether some row keeps column j; counts gets the kept elements and
 * the columns any row keeps. The zeroing ANDs v's bits with a mask of the
 * kept flag, as a ternary would keep the loop from vectorising; so do
 * pointers that may alias. One flat loop vectorises and compiles faster than
 * a loop per row: 11 against 17 us at 256x96. */
void prune_f32(const float *restrict x, int64_t n, int64_t d, float tau, float eta,
               int64_t zero, double *restrict out, uint8_t *restrict kept,
               uint8_t *restrict any, int64_t *restrict counts)
{
    const uint64_t keep_all = zero ? 0 : ~(uint64_t)0;
    int64_t n_kept = 0;
    for (int64_t i = 0; i < n * d; i++) {
        float v = x[i] - eta;
        uint8_t k = !(fabsf(v) <= tau);
        double w = (double)v;
        uint64_t bits;
        memcpy(&bits, &w, sizeof bits);
        bits &= -(uint64_t)k | keep_all;
        memcpy(&w, &bits, sizeof w);
        out[i] = w;
        kept[i] = k;
        n_kept += k;
    }
    counts[0] = n_kept;
    counts[1] = column_union(kept, n, d, any);
}

typedef uint64_t (*next64_fn)(void *);
typedef uint32_t (*next32_fn)(void *);

/* An integer uniform on [0, rng], 1 <= rng < 2^63, as numpy's
 * random_bounded_uint64 draws it with Lemire's multiply-shift rejection
 * (arXiv 1805.10941): from one next_uint32 when rng < 2^32 - 1, as
 * next_uint32 itself when rng is 2^32 - 1, and from next_uint64 with a
 * 128-bit product above that. */
static uint64_t bounded(uint64_t rng, void *state, next64_fn next64, next32_fn next32)
{
    if (rng < 0xFFFFFFFFull) {
        const uint32_t excl = (uint32_t)rng + 1;
        uint64_t m = (uint64_t)next32(state) * excl;
        if ((uint32_t)m < excl) {
            const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
            while ((uint32_t)m < threshold)
                m = (uint64_t)next32(state) * excl;
        }
        return m >> 32;
    }
    if (rng == 0xFFFFFFFFull)
        return next32(state);
    const uint64_t excl = rng + 1;
    __uint128_t m = (__uint128_t)next64(state) * excl;
    if ((uint64_t)m < excl) {
        const uint64_t threshold = (UINT64_MAX - rng) % excl;
        while ((uint64_t)m < threshold)
            m = (__uint128_t)next64(state) * excl;
    }
    return (uint64_t)(m >> 64);
}

/* The value x[i] arrives at stream position t = seen + 1 + i, seen >=
 * capacity >= 1; it draws j uniform on [0, t) as Generator.integers(0, t)
 * would, from the generator whose state and functions are given, and
 * replaces buf[j] when j < capacity. Values are taken in stream order, so a
 * later one wins a slot drawn twice. Each block of draws runs before its
 * writes, whose cache misses then overlap: about 0.3 against 0.45 ms per
 * 24,576 values into a 4 MB reservoir. */
void reservoir_draw(const float *x, int64_t n, int64_t seen, int64_t capacity, float *buf,
                    void *state, next64_fn next64, next32_fn next32)
{
    enum { BLOCK = 256 };
    uint64_t j[BLOCK];
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        int64_t m = n - lo < BLOCK ? n - lo : BLOCK;
        for (int64_t i = 0; i < m; i++)
            j[i] = bounded((uint64_t)(seen + lo + i), state, next64, next32);
        for (int64_t i = 0; i < m; i++)
            if (j[i] < (uint64_t)capacity)
                buf[j[i]] = x[lo + i];
    }
}

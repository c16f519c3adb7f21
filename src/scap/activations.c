/* Elementwise FFN activations over n contiguous float32 values, y may not
 * alias x:
 *
 *   silu_f32: y[i] = x[i] * (1 / (1 + expf(-x[i])))           all in float
 *   gelu_f32: y[i] = (0.5 * x[i]) * (1 + (float)erf(x[i] / s)) in float, the
 *             quotient widened to double for erf; s is sqrt(2) rounded to
 *             float, 0x3FB504F3
 *
 * expf and erf are the C library's. Build with -ffp-contract=off, so that no
 * multiply-add is fused and each operation rounds as written, and without
 * -ffast-math, so that the compiler keeps the scalar expf and erf.
 */
#include <math.h>
#include <stdint.h>

void silu_f32(const float *x, int64_t n, float *restrict y)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = x[i] * (1.0f / (1.0f + expf(-x[i])));
}

void gelu_f32(const float *x, int64_t n, float *restrict y)
{
    const float s = 1.41421353816986083984375f; /* 0x3FB504F3 */
    for (int64_t i = 0; i < n; i++)
        y[i] = (0.5f * x[i]) * (1.0f + (float)erf((double)(x[i] / s)));
}

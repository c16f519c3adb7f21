/* Row-skipping products over the listed rows of a row-major float32 matrix w
 * of n_cols columns, computing only output columns [lo, hi):
 *
 *   row_gemv: y[j]       = sum over r of x[r]            * w[rows[r], j]
 *   row_gemm: y[b, j]    = sum over r of x[b * n_rows + r] * w[rows[r], j]
 *                          for each of the batch rows b (y is batch x n_cols)
 *
 * Only the listed rows are read, in place, in the order given. Each product
 * and sum is rounded in double (build with -ffp-contract=off so no
 * multiply-add is fused), and every output is updated one row after another,
 * so it equals a sequential loop over rows bit for bit however the columns
 * are cut, and a batch row of row_gemm equals row_gemv of that row alone.
 * Callers split [0, n_cols) into slices and run them on separate threads.
 * BLOCK rows are taken per pass over y, which cuts the passes over y by that
 * factor.
 */
#include <stdint.h>

#define BLOCK 8
/* row_gemm's column tile: one BLOCK x TILE block of w, cast to double once
 * for every batch row, is 16 KB, and a batch row's TILE outputs 2 KB */
#define TILE 256

/* one row is bound by memory, and the 512-bit vectors GCC picks for an
 * AVX-512 host only slowed decode tokens (+4% per token, 4096x11008 at 50%,
 * 2 vCPUs); row_gemm reuses each cast block for every batch row, so it keeps
 * the widest vectors the host has */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target("prefer-vector-width=128")))
#endif
void row_gemv(const double *x, const float *restrict w, const int64_t *rows,
              int64_t n_rows, int64_t n_cols, int64_t lo, int64_t hi,
              double *restrict y)
{
    int64_t r = 0, j, k;
    for (j = lo; j < hi; j++)
        y[j] = 0.0;
    for (; r + BLOCK <= n_rows; r += BLOCK) {
        const float *p[BLOCK];
        double c[BLOCK];
        for (k = 0; k < BLOCK; k++) {
            p[k] = w + rows[r + k] * n_cols;
            c[k] = x[r + k];
        }
        for (j = lo; j < hi; j++) {
            double a = y[j];
            for (k = 0; k < BLOCK; k++)
                a += c[k] * p[k][j];
            y[j] = a;
        }
    }
    for (; r < n_rows; r++) {
        const float *p0 = w + rows[r] * n_cols;
        for (j = lo; j < hi; j++)
            y[j] += x[r] * p0[j];
    }
}

void row_gemm(const double *x, const float *restrict w, const int64_t *rows,
              int64_t n_rows, int64_t n_cols, int64_t batch, int64_t lo,
              int64_t hi, double *restrict y)
{
    double buf[BLOCK][TILE];
    int64_t b, r, t, j, k;
    for (b = 0; b < batch; b++)
        for (j = lo; j < hi; j++)
            y[b * n_cols + j] = 0.0;
    for (t = lo; t < hi; t += TILE) {
        const int64_t width = hi - t < TILE ? hi - t : TILE;
        for (r = 0; r < n_rows; r += BLOCK) {
            const int64_t n = n_rows - r < BLOCK ? n_rows - r : BLOCK;
            for (k = 0; k < n; k++) {
                const float *p = w + rows[r + k] * n_cols + t;
                for (j = 0; j < width; j++)
                    buf[k][j] = p[j];
            }
            for (b = 0; b < batch; b++) {
                const double *c = x + b * n_rows + r;
                double *restrict yb = y + b * n_cols + t;
                if (n == BLOCK) {
                    for (j = 0; j < width; j++) {
                        double a = yb[j];
                        for (k = 0; k < BLOCK; k++)
                            a += c[k] * buf[k][j];
                        yb[j] = a;
                    }
                } else {
                    for (k = 0; k < n; k++)
                        for (j = 0; j < width; j++)
                            yb[j] += c[k] * buf[k][j];
                }
            }
        }
    }
}

/* Row-skipping GEMV: y[lo:hi] = sum over r of x[r] * w[rows[r], lo:hi].
 *
 * w is a row-major float32 matrix of n_cols columns; only the listed rows
 * are read, in place, in the order given, and only columns [lo, hi) of them.
 * Each product and sum is rounded in double (build with -ffp-contract=off so
 * no multiply-add is fused), and every y[j] is updated one row after
 * another, so y[j] equals a sequential loop over rows bit for bit however
 * the columns are cut. Callers split [0, n_cols) into slices and run them on
 * separate threads. BLOCK rows are taken per pass over y, which cuts the
 * passes over y by that factor.
 */
#include <stdint.h>

#define BLOCK 8

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

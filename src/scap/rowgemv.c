/* Row-skipping GEMV: y = sum over r of x[r] * w[rows[r], :].
 *
 * w is a row-major float32 matrix of n_cols columns; only the listed rows
 * are read, in place, in the order given. Each product and sum is rounded
 * in double (build with -ffp-contract=off so no multiply-add is fused), and
 * every y[j] is updated one row after another, so the result equals a
 * sequential loop over rows bit for bit. BLOCK rows are taken per pass over
 * y, which cuts the passes over y by that factor.
 */
#include <stdint.h>

#define BLOCK 8

void row_gemv(const double *x, const float *restrict w, const int64_t *rows,
              int64_t n_rows, int64_t n_cols, double *restrict y)
{
    int64_t r = 0, j, k;
    for (j = 0; j < n_cols; j++)
        y[j] = 0.0;
    for (; r + BLOCK <= n_rows; r += BLOCK) {
        const float *p[BLOCK];
        double c[BLOCK];
        for (k = 0; k < BLOCK; k++) {
            p[k] = w + rows[r + k] * n_cols;
            c[k] = x[r + k];
        }
        for (j = 0; j < n_cols; j++) {
            double a = y[j];
            for (k = 0; k < BLOCK; k++)
                a += c[k] * p[k][j];
            y[j] = a;
        }
    }
    for (; r < n_rows; r++) {
        const float *p0 = w + rows[r] * n_cols;
        for (j = 0; j < n_cols; j++)
            y[j] += x[r] * p0[j];
    }
}

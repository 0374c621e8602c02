/* The coordinate loop of kernels.lsq_gram_epoch: the operations of
   kernels._lsq_gram_epoch_loops in the same order, so that compiled
   without FMA contraction (-ffp-contract=off) it gives the same bits.

   The update g[k] = g[k] + d * row[k] is a multiply and an add per entry,
   each rounded once, with no reduction across k: a compiler may run it in
   SIMD lanes (restrict tells it that g, x and the Gram row do not
   overlap), and each lane rounds as the scalar code does. */
#include <stdint.h>

static double st(double v, double t)
{
    if (v > t)
        return v - t;
    if (v < -t)
        return v + t;
    return 0.0;
}

/* G is p x p in C order, g = A'(Ax - y), order holds m indices that may
   count from the end.  Returns -1, touching nothing, if an index lies
   outside [-p, p), else 0. */
int gram_epoch(const double *G, double *restrict g, double *restrict x,
               const double *lip, const int64_t *order, int64_t m, int64_t p,
               double l1, double l2, double scale)
{
    for (int64_t i = 0; i < m; i++)
        if (order[i] < -p || order[i] >= p)
            return -1;
    for (int64_t i = 0; i < m; i++) {
        int64_t j = order[i] < 0 ? order[i] + p : order[i];
        double lj = lip[j];
        if (lj <= 0.0)
            continue;
        double old = x[j];
        double new = st(old - g[j] / scale / lj, l1 / lj) / (1.0 + l2 / lj);
        if (new != old) {
            double d = new - old;
            const double *restrict row = G + j * p;
            for (int64_t k = 0; k < p; k++)
                g[k] = g[k] + d * row[k];
            x[j] = new;
        }
    }
    return 0;
}

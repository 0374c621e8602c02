/* The coordinate loops of the epochs on a design: the Gram epoch
   (gram_epoch, run by the passes of kernels.lsq_gram_pass), and the sparse
   epochs of least squares (lsq_epoch: kernels.lasso_epoch and enet_epoch)
   and of logistic regression (logreg_epoch: kernels.logreg_l1_epoch and
   logreg_l2_epoch); and the products of a CSC design that is not fully
   dense (csc_matvec and csc_rmatvec: kernels.csc_matvec and csc_rmatvec).
   Each does the operations of its loop source in kernels
   (_gram_epoch_loops; _sparse_epoch_loops with _lsq_row or _logreg_row;
   _csc_matvec_loops; _csc_rmatvec_loops) in the same order, so that
   compiled without FMA contraction (-ffp-contract=off) and without
   -ffast-math it gives the same bits.

   The Gram update g[k] = g[k] + d * row[k] is a multiply and an add per
   entry, each rounded once, with no reduction across k: a compiler may run
   it in SIMD lanes (restrict tells it that g, x and the Gram row do not
   overlap), and each lane rounds as the scalar code does.  A sparse
   epoch's gradient and a column's entry of csc_rmatvec are sums, which
   stay sequential because nothing allows their reassociation; the logistic
   epoch's exp is the C library's, the function Python's math.exp calls. */
#include <math.h>
#include <stdint.h>

static double st(double v, double t)
{
    if (v > t)
        return v - t;
    if (v < -t)
        return v + t;
    return 0.0;
}

/* Returns -1 if an index of order lies outside [-p, p), else 0. */
static int check_order(const int64_t *order, int64_t m, int64_t p)
{
    for (int64_t i = 0; i < m; i++)
        if (order[i] < -p || order[i] >= p)
            return -1;
    return 0;
}

/* Returns -2 if the p + 1 column pointers indptr do not rise from 0 or
   more to nnz or less, else 0. */
static int check_indptr(const int64_t *indptr, int64_t p, int64_t nnz)
{
    if (indptr[0] < 0 || indptr[p] > nnz)
        return -2;
    for (int64_t j = 0; j < p; j++)
        if (indptr[j] > indptr[j + 1])
            return -2;
    return 0;
}

/* G is p x p in C order, g = A'(Ax - y), order holds m indices that may
   count from the end.  Returns -1, touching nothing, if an index lies
   outside [-p, p), else 0. */
int gram_epoch(const double *G, double *restrict g, double *restrict x,
               const double *lip, const int64_t *order, int64_t m, int64_t p,
               double l1, double l2, double scale)
{
    if (check_order(order, m, p))
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

/* sigma(-t) = 1 / (1 + e^t), overflow-safe on both sides (kernels._sig_neg) */
static double sig_neg(double t)
{
    if (t >= 0.0) {
        double e = exp(-t);
        return e / (1.0 + e);
    }
    return 1.0 / (1.0 + exp(t));
}

/* The per-row gradient factors r_i of the two datafits */
static double lsq_row(double y, double Ax)
{
    return Ax - y;
}

static double logreg_row(double y, double Ax)
{
    return -y * sig_neg(y * Ax);
}

/* A CSC design of p columns: data and indices hold nnz entries, indptr
   p + 1 column pointers, y and Ax n rows.  order holds m indices that may
   count from the end.  Before it touches x or Ax, returns -1 if an index
   of order lies outside [-p, p), -2 if indptr does not rise from 0 or
   more to nnz or less, -3 if a row index of the framed entries lies
   outside [0, n); else runs the epoch with row factor row and returns 0.
   Each entry point below passes a constant row, which inlining fixes at
   compile time, so neither loop tests which datafit it runs. */
static inline __attribute__((always_inline)) int
sparse_epoch(double (*row)(double, double), const double *data,
             const int64_t *indices, const int64_t *indptr, const double *y,
             double *restrict x, double *restrict Ax, const double *lip,
             const int64_t *order, int64_t m, int64_t p, int64_t n,
             int64_t nnz, double l1, double l2, double scale)
{
    if (check_order(order, m, p))
        return -1;
    if (check_indptr(indptr, p, nnz))
        return -2;
    for (int64_t k = indptr[0]; k < indptr[p]; k++)
        if (indices[k] < 0 || indices[k] >= n)
            return -3;
    for (int64_t i = 0; i < m; i++) {
        int64_t j = order[i] < 0 ? order[i] + p : order[i];
        double lj = lip[j];
        if (lj <= 0.0)
            continue;
        int64_t start = indptr[j], end = indptr[j + 1];
        double grad = 0.0;
        for (int64_t k = start; k < end; k++) {
            int64_t r = indices[k];
            grad += data[k] * row(y[r], Ax[r]);
        }
        double new = x[j] - grad / scale / lj;
        if (l1 != 0.0)
            new = st(new, l1 / lj);
        new /= 1.0 + l2 / lj;
        double d = new - x[j];
        if (d != 0.0) {
            for (int64_t k = start; k < end; k++)
                Ax[indices[k]] += d * data[k];
            x[j] = new;
        }
    }
    return 0;
}

int lsq_epoch(const double *data, const int64_t *indices,
              const int64_t *indptr, const double *y, double *restrict x,
              double *restrict Ax, const double *lip, const int64_t *order,
              int64_t m, int64_t p, int64_t n, int64_t nnz, double l1,
              double l2, double scale)
{
    return sparse_epoch(lsq_row, data, indices, indptr, y, x, Ax, lip, order,
                        m, p, n, nnz, l1, l2, scale);
}

int logreg_epoch(const double *data, const int64_t *indices,
                 const int64_t *indptr, const double *y, double *restrict x,
                 double *restrict Ax, const double *lip, const int64_t *order,
                 int64_t m, int64_t p, int64_t n, int64_t nnz, double l1,
                 double l2, double scale)
{
    return sparse_epoch(logreg_row, data, indices, indptr, y, x, Ax, lip,
                        order, m, p, n, nnz, l1, l2, scale);
}

/* The products of a CSC design of p columns and n rows: data and indices
   hold nnz entries, indptr p + 1 column pointers.  csc_matvec sets the n
   entries of out to A x, adding data[k] * x[j] to out[indices[k]] for each
   entry of each column j in storage order, and skipping a column whose
   x[j] is zero; csc_rmatvec sets the p entries of out to A' v, column j's
   the sequential sum of data[k] * v[indices[k]] from 0.0.  Each returns -2
   if indptr does not rise from 0 or more to nnz or less, -3 if a row index
   it reads lies outside [0, n) (out is then partly written), else 0. */
int csc_matvec(const double *data, const int64_t *indices,
               const int64_t *indptr, const double *x, double *restrict out,
               int64_t p, int64_t n, int64_t nnz)
{
    if (check_indptr(indptr, p, nnz))
        return -2;
    for (int64_t i = 0; i < n; i++)
        out[i] = 0.0;
    for (int64_t j = 0; j < p; j++) {
        double xj = x[j];
        if (xj != 0.0)
            for (int64_t k = indptr[j]; k < indptr[j + 1]; k++) {
                int64_t r = indices[k];
                if (r < 0 || r >= n)
                    return -3;
                out[r] += data[k] * xj;
            }
    }
    return 0;
}

int csc_rmatvec(const double *data, const int64_t *indices,
                const int64_t *indptr, const double *v, double *restrict out,
                int64_t p, int64_t n, int64_t nnz)
{
    if (check_indptr(indptr, p, nnz))
        return -2;
    for (int64_t j = 0; j < p; j++) {
        double acc = 0.0;
        for (int64_t k = indptr[j]; k < indptr[j + 1]; k++) {
            int64_t r = indices[k];
            if (r < 0 || r >= n)
                return -3;
            acc += data[k] * v[r];
        }
        out[j] = acc;
    }
    return 0;
}

/* The coordinate loops of the epochs on a design: the Gram epoch
   (gram_epoch, run by the passes of kernels.lsq_gram_pass), and the sparse
   epochs of least squares (lsq_epoch: kernels.lasso_epoch and enet_epoch)
   and of logistic regression (logreg_epoch: kernels.logreg_l1_epoch and
   logreg_l2_epoch); the products of a CSC design that is not fully dense
   (csc_matvec and csc_rmatvec: kernels.csc_matvec and csc_rmatvec); and
   the Anderson extrapolation solve, one pivoted QR (anderson_solve) behind
   two entries: anderson_extrapolate on a window of iterates
   (kernels.anderson_extrapolate, which anderson's window and offline
   driver call) and anderson_weights on their differences
   (kernels.anderson_weights: anderson.extrapolation_coefficients); and
   the AR(1) recurrence of the synthetic designs (ar1_rows:
   kernels.ar1_rows, which data.gen_correlated_gaussian runs).  Each does
   the operations of its loop source in tests/loop_sources.py
   (_gram_epoch_loops; _sparse_epoch_loops with _lsq_row or _logreg_row;
   _csc_matvec_loops; _csc_rmatvec_loops; _anderson_extrapolate_loops and
   _anderson_weights_loops; _ar1_rows_loops) in the same order, so that
   compiled without FMA contraction (-ffp-contract=off) and without
   -ffast-math it gives the same bits.

   The Gram update g[k] = g[k] + d * row[k], like the AR(1) row update, is
   a multiply and an add per entry, each rounded once, with no reduction
   across k: a compiler may run it in SIMD lanes (restrict tells it that
   g, x and the Gram row do not overlap), and each lane rounds as the
   scalar code does.  A sparse
   epoch's gradient and a column's entry of csc_rmatvec are sums, which
   stay sequential because nothing allows their reassociation, as do the
   sums of the extrapolation solve, which its loop source adds with
   np.add.accumulate; the logistic epoch's exp is the C library's, the
   function Python's math.exp calls. */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* sigma(-t) = 1 / (1 + e^t), overflow-safe on both sides (_sig_neg) */
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

/* The Euclidean norm of the n >= 1 entries of x, scaled by the largest
   |x_i| so that no square overflows or vanishes: NaN if an entry is NaN,
   0.0 if every entry is zero.  Each sum below, here and in col_dots, runs
   from its first term (0.0 if there is none) strictly in order, as the
   loop sources' np.add.accumulate(a * b)[-1] adds. */
static double scaled_norm(const double *x, int64_t n)
{
    double amax = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double a = fabs(x[i]);
        if (a != a)
            return a;
        if (a > amax)
            amax = a;
    }
    if (amax == 0.0)
        return 0.0;
    double t = x[0] / amax, s = t * t;
    for (int64_t i = 1; i < n; i++) {
        t = x[i] / amax;
        s += t * t;
    }
    return amax * sqrt(s);
}

/* The column j of the QR below starts at U + perm[j] * p.  Sets s[j] to
   the sum of v[i] * col_j[i] (of col_j[i]^2 if v is NULL) over i = k..p-1
   for each j in [j0, j1).  Four columns share one loop, with one sum
   each, so that their additions overlap; a group of fewer repeats its
   last column. */
static void col_dots(const double *U, const int64_t *perm, int64_t p,
                     int64_t k, const double *v, int64_t j0, int64_t j1,
                     double *s)
{
    for (int64_t j = j0; j < j1; j += 4) {
        const double *c[4], *x[4];
        for (int t = 0; t < 4; t++) {
            c[t] = U + perm[j + t < j1 ? j + t : j1 - 1] * p;
            x[t] = v ? v : c[t];
        }
        double s0 = x[0][k] * c[0][k], s1 = x[1][k] * c[1][k];
        double s2 = x[2][k] * c[2][k], s3 = x[3][k] * c[3][k];
        for (int64_t i = k + 1; i < p; i++) {
            s0 += x[0][i] * c[0][i];
            s1 += x[1][i] * c[1][i];
            s2 += x[2][i] * c[2][i];
            s3 += x[3][i] * c[3][i];
        }
        double sums[4] = {s0, s1, s2, s3};
        for (int t = 0; t < 4 && j + t < j1; t++)
            s[j + t] = sums[t];
    }
}

/* The Anderson weights c (K of them) of the K differences in the rows of
   U (K x p, C order, overwritten), which work (p + 3K doubles) serves.
   The weights minimize ||U'c|| subject to sum(c) = 1: with the constraint
   eliminated on the last weight, c_j = w_j for j < K - 1 and c_{K-1} = 1 -
   sum(w), and w minimizes ||A w - b|| for the columns A_j = U_j - U_{K-1}
   and b = -U_{K-1}, which overwrite the rows of U.  A Householder QR with
   column pivoting (the column of largest trailing norm, the first on
   ties; a norm is the square root of the sum of squares when that sum
   lies in [2^-900, 2^900], else scaled_norm) runs until |R_kk| <= eps *
   max(p, K - 1) * |R_00|, which cuts the rank at r; back substitution on
   the leading r x r block gives the weights of the pivoted columns, and
   the others are 0.  Returns 1 (singular) if a difference, a pivot's norm
   or a weight is not finite, else 0. */
static int anderson_solve(double *U, int64_t K, int64_t p, double *c,
                          double *work)
{
    int64_t m = K - 1, r = 0;
    int finite = 1;
    for (int64_t i = 0; i < K * p; i++)
        finite &= fabs(U[i]) <= DBL_MAX;
    if (!finite)
        return 1;
    /* b is column m, which no pivot moves */
    double *b = U + m * p, *v = work, *s = work + p, *z = s + K;
    int64_t *perm = (int64_t *)(z + K);
    for (int64_t j = 0; j < m; j++) {
        double *a = U + j * p;
        for (int64_t i = 0; i < p; i++)
            a[i] = a[i] - b[i];
        perm[j] = j;
    }
    for (int64_t i = 0; i < p; i++)
        b[i] = -b[i];
    perm[m] = m;
    double tol = 0.0;
    for (int64_t k = 0; k < m && k < p; k++) {
        col_dots(U, perm, p, k, NULL, k, m, s);
        int64_t piv = k;
        double nrm = 0.0;
        for (int64_t j = k; j < m; j++) {
            double nj = s[j] >= 0x1p-900 && s[j] <= 0x1p900
                ? sqrt(s[j]) : scaled_norm(U + perm[j] * p + k, p - k);
            if (j == k || nj > nrm) {
                nrm = nj;
                piv = j;
            }
        }
        if (!(nrm <= DBL_MAX))
            return 1;
        if (k == 0)
            tol = DBL_EPSILON * (double)(p > m ? p : m) * nrm;
        if (nrm <= tol)
            break;
        int64_t t = perm[k];
        perm[k] = perm[piv];
        perm[piv] = t;
        double *a = U + perm[k] * p;
        double alpha = a[k], beta = -copysign(nrm, alpha);
        double tau = (beta - alpha) / beta, d = alpha - beta;
        v[k] = 1.0;
        for (int64_t i = k + 1; i < p; i++)
            v[i] = a[i] / d;
        a[k] = beta;
        col_dots(U, perm, p, k, v, k + 1, K, s);
        for (int64_t j = k + 1; j < K; j++) {
            double *y = U + perm[j] * p, ts = tau * s[j];
            for (int64_t i = k; i < p; i++)
                y[i] = y[i] - ts * v[i];
        }
        r = k + 1;
    }
    for (int64_t i = r - 1; i >= 0; i--) {
        double sum = 0.0;
        for (int64_t j = i + 1; j < r; j++) {
            double t = U[perm[j] * p + i] * z[j];
            sum = j == i + 1 ? t : sum + t;
        }
        z[i] = (b[i] - sum) / U[perm[i] * p + i];
    }
    for (int64_t j = 0; j < m; j++)
        c[j] = 0.0;
    for (int64_t i = 0; i < r; i++)
        c[perm[i]] = z[i];
    double sum = 0.0;
    for (int64_t j = 0; j < m; j++)
        sum = j == 0 ? c[0] : sum + c[j];
    c[m] = 1.0 - sum;
    for (int64_t j = 0; j < K; j++)
        finite &= fabs(c[j]) <= DBL_MAX;
    return finite ? 0 : 1;
}

/* anderson_solve on a copy of the K >= 1 differences in the rows of U (K x
   p, C order), into c.  Returns -1 if no workspace could be allocated. */
int anderson_weights(const double *U, int64_t K, int64_t p, double *c)
{
    double *work = malloc((size_t)(K * p + p + 3 * K) * sizeof(double));
    if (work == NULL)
        return -1;
    double *D = work + p + 3 * K;
    for (int64_t i = 0; i < K * p; i++)
        D[i] = U[i];
    int code = anderson_solve(D, K, p, c, work);
    free(work);
    return code;
}

/* The extrapolation of the K + 1 >= 2 iterates in the rows of W ((K + 1) x
   p, C order): the differences U_i = W_{i+1} - W_i, their weights c by
   anderson_solve into out + p, and the point x_e = sum_i c_i W_{i+1} into
   out, each entry summed from 0.0 in the order i = 0..K-1 (the loop
   source's K axpys).  Returns -1 if no workspace could be allocated, 1 if
   the solve is singular (out is then partly written), else 0. */
int anderson_extrapolate(const double *W, int64_t K, int64_t p,
                         double *restrict out)
{
    double *work = malloc((size_t)(K * p + p + 3 * K) * sizeof(double));
    if (work == NULL)
        return -1;
    double *U = work + p + 3 * K, *c = out + p;
    for (int64_t i = 0; i < K * p; i++)
        U[i] = W[i + p] - W[i];
    int code = anderson_solve(U, K, p, c, work);
    free(work);
    if (code)
        return code;
    for (int64_t j = 0; j < p; j++)
        out[j] = 0.0;
    for (int64_t i = 0; i < K; i++) {
        const double *restrict row = W + (i + 1) * p;
        double ci = c[i];
        for (int64_t j = 0; j < p; j++)
            out[j] = out[j] + ci * row[j];
    }
    return 0;
}

/* The AR(1) recurrence of data.gen_correlated_gaussian on the p rows of n
   entries of AT (C order), in place and in turn: row j = corr * row (j - 1)
   + row j for j = 1..p-1.  Each entry is one multiply and one add, each
   rounded once, so the rows may run in SIMD lanes (restrict: row j does
   not overlap row j - 1).  Returns 0. */
int ar1_rows(double *AT, int64_t p, int64_t n, double corr)
{
    for (int64_t j = 1; j < p; j++) {
        const double *restrict prev = AT + (j - 1) * n;
        double *restrict row = AT + j * n;
        for (int64_t i = 0; i < n; i++)
            row[i] = corr * prev[i] + row[i];
    }
    return 0;
}

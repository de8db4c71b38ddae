/* The six compiled hot kernels: hypergeometric series summation, the
 * Robin shooting integrator, the continued fraction of the log-derivative
 * L, the tanh-sinh terms of the Euler integral, the comparison barrier's
 * curved residual and the root solver illinois.
 * conelab._pykernels mirrors this file statement for statement, so the two
 * backends produce the same floating-point results; keep the two in sync.
 * Build with -ffp-contract=off: a fused multiply-add rounds differently
 * from the Python mirror. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>

/* Python's max(a, b) and min(a, b): the first argument wins ties and NaNs */
#define PYMAX(a, b) ((b) > (a) ? (b) : (a))
#define PYMIN(a, b) ((b) < (a) ? (b) : (a))

/* Convert args[0..n_doubles) to C doubles and args[n_doubles] to a C long,
 * with the conversions and errors of float() and operator.index().  The
 * long saturates, as no loop it bounds can run to LONG_MAX. */
static int
parse_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
           Py_ssize_t n_doubles, double *d, long *last)
{
    Py_ssize_t i;
    int overflow;
    if (nargs != n_doubles + 1) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, n_doubles + 1, nargs);
        return -1;
    }
    for (i = 0; i < n_doubles; i++) {
        d[i] = PyFloat_AsDouble(args[i]);
        if (d[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    *last = PyLong_AsLongAndOverflow(args[n_doubles], &overflow);
    if (*last == -1 && PyErr_Occurred())
        return -1;
    if (overflow)
        *last = overflow > 0 ? LONG_MAX : LONG_MIN;
    return 0;
}

/* Supremum of |x + j| / (y + j) over j >= i, for y + i > 0 */
static double
ratio_sup(double x, double y, double i)
{
    double d = x - y;
    if (d < 0.0 && x + i >= 0.0)
        d = 0.0;
    return 1.0 + fabs(d) / (y + i);
}

/* Bound nxt / (1 - q) on the series tail whose first term, of size nxt, has
 * index i; q bounds the term ratio |s| (a+j)(b+j) / ((c+j)(j+1)) over
 * j >= i, by the smaller of two products of factor suprema and the joint
 * ratio 1 + ((a+b-c-1) j + ab - c) / ((c+j)(1+j)).  Infinite when no such
 * q below 1 is found. */
static double
tail_bound(double a, double b, double c, double s, double i, double nxt)
{
    if (c + i <= 0.0)
        return INFINITY;
    double q = fabs(s) * PYMIN(PYMIN(ratio_sup(a, c, i) * ratio_sup(b, 1.0, i),
                                     ratio_sup(a, 1.0, i) * ratio_sup(b, c, i)),
                               1.0 + fabs(a + b - c - 1.0) / (c + i)
                               + fabs(a * b - c) / ((c + i) * (1.0 + i)));
    if (q >= 1.0)
        return INFINITY;
    return nxt / (1.0 - q);
}

/* One series sum: what hyp2f1_series returns */
typedef struct {
    double value, err;
    long terms;
    int converged;
} SeriesSum;

static SeriesSum
series_sum(double a, double b, double c, double s, double rel_tol, double abs_tol,
           long max_terms)
{
    SeriesSum r = {1.0, 0.0, 0, 1};
    double term = 1.0;
    double total = 1.0;
    double comp = 0.0;
    /* sum of |term| times its rounding count (8 per step, 2 in the sum),
     * in units of 2^-53; 1.12e-16 leaves 1% for higher orders */
    double rounds = 2.0;
    long m;
    if (s == 0.0)
        return r;
    for (m = 0; m < max_terms; m++) {
        term = term * ((a + m) * (b + m) / ((c + m) * (m + 1.0)) * s);
        double y = term - comp;
        double tnew = total + y;
        comp = (tnew - total) - y;
        total = tnew;
        rounds += (8.0 * m + 10.0) * fabs(term);
        if (term == 0.0) {
            /* terminating series (a or b a nonpositive integer) */
            r.err = 1.12e-16 * rounds;
            break;
        }
        double tol = PYMAX(abs_tol, rel_tol * fabs(total));
        if (fabs(term) <= tol) {
            double ratio_next = (a + m + 1.0) * (b + m + 1.0) / ((c + m + 1.0) * (m + 2.0)) * s;
            double nxt = fabs(term * ratio_next);
            if (nxt <= tol) {
                r.err = tail_bound(a, b, c, s, m + 2.0, nxt) + 1.12e-16 * rounds;
                break;
            }
        }
    }
    r.value = total;
    if (m < max_terms) {
        /* an infinite total clears every tolerance, so both exits report
         * a total that is not finite as not converged */
        r.terms = m + 1;
        r.converged = isfinite(total);
    }
    else {
        r.err = fabs(term) + 1.12e-16 * rounds;
        r.terms = max_terms;
        r.converged = 0;
    }
    return r;
}

PyDoc_STRVAR(hyp2f1_series_doc,
"hyp2f1_series(a, b, c, s, rel_tol, abs_tol, max_terms)\n\n"
"Sum the Gauss series sum_m (a)_m (b)_m / ((c)_m m!) s^m.\n\n"
"Compensated (Kahan) accumulation; stops once the current term and the\n"
"predicted next term both clear the tolerance, which avoids premature\n"
"exits when a Pochhammer factor passes near zero.\n\n"
"The error estimate is a first-order bound on the rounding of every term\n"
"and of the sum, plus a geometric bound on the truncated tail.  A total\n"
"that is not finite is never converged.\n\n"
"Returns (value, err_estimate, terms_used, converged).");

static PyObject *
hyp2f1_series(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[6];
    long max_terms;
    if (parse_args("hyp2f1_series", args, nargs, 6, p, &max_terms) < 0)
        return NULL;
    SeriesSum r = series_sum(p[0], p[1], p[2], p[3], p[4], p[5], max_terms);
    return Py_BuildValue("(ddlO)", r.value, r.err, r.terms, r.converged ? Py_True : Py_False);
}

/* Dormand-Prince 5(4) tableau */
static const double C2 = 1.0 / 5.0, C3 = 3.0 / 10.0, C4 = 4.0 / 5.0, C5 = 8.0 / 9.0;
static const double A21 = 1.0 / 5.0;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0;
static const double A53 = 64448.0 / 6561.0, A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0, A63 = 46732.0 / 5247.0;
static const double A64 = 49.0 / 176.0, A65 = -5103.0 / 18656.0;
static const double B1 = 35.0 / 384.0, B3 = 500.0 / 1113.0, B4 = 125.0 / 192.0;
static const double B5 = -2187.0 / 6784.0, B6 = 11.0 / 84.0;
static const double E1 = 71.0 / 57600.0, E3 = -71.0 / 16695.0, E4 = 71.0 / 1920.0;
static const double E5 = -17253.0 / 339200.0, E6 = 22.0 / 525.0, E7 = -1.0 / 40.0;

/* Mode ODE coefficients that stay fixed over one shot */
typedef struct {
    double n, k, lam, p2, q2;
} Ode;

static inline void
rhs(const Ode *o, double t, double u, double v, double *du, double *dv)
{
    double omt2 = 1.0 - t * t;
    *du = v;
    *dv = -(((o->k - 1.0) / t - (o->n - 1.0) * t) * v
            + (o->lam - o->p2 / omt2 - o->q2 / (t * t)) * u) / omt2;
}

PyDoc_STRVAR(robin_shoot_doc,
"robin_shoot(u0, v0, t_start, t_end, n, k, lam, p2, q2, rtol, atol, max_step,\n"
"            max_steps)\n\n"
"Integrate the link eigenvalue ODE from the series launch point to the\n"
"free boundary, counting interior sign changes of the solution.\n\n"
"State is renormalized whenever it grows large; only the projective class\n"
"of (u, v) matters for the log-derivative and the zero count, so this is\n"
"a phase-type representation with no overflow poles.\n\n"
"Returns (u_end, v_end, zeros, ok).");

static PyObject *
robin_shoot(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[12];
    long max_steps;
    if (parse_args("robin_shoot", args, nargs, 12, p, &max_steps) < 0)
        return NULL;
    const double t_start = p[2], t_end = p[3];
    const Ode o = {p[4], p[5], p[6], p[7], p[8]};
    const double rtol = p[9], atol = p[10], max_step = p[11];
    double t = t_start, u = p[0], v = p[1];
    double h = PYMIN(max_step, (t_end - t_start) * 0.01);
    double k1u, k1v, k2u, k2v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v;
    long zeros = 0;
    long steps = 0;
    int last = 0;
    if (h <= 0.0)
        return Py_BuildValue("(ddiO)", u, v, 0, Py_True);
    rhs(&o, t, u, v, &k1u, &k1v);
    while (steps < max_steps) {
        steps += 1;
        if (t + h >= t_end) {
            h = t_end - t;
            last = 1;
        }
        rhs(&o, t + C2 * h, u + h * A21 * k1u, v + h * A21 * k1v, &k2u, &k2v);
        rhs(&o, t + C3 * h, u + h * (A31 * k1u + A32 * k2u),
            v + h * (A31 * k1v + A32 * k2v), &k3u, &k3v);
        rhs(&o, t + C4 * h, u + h * (A41 * k1u + A42 * k2u + A43 * k3u),
            v + h * (A41 * k1v + A42 * k2v + A43 * k3v), &k4u, &k4v);
        rhs(&o, t + C5 * h,
            u + h * (A51 * k1u + A52 * k2u + A53 * k3u + A54 * k4u),
            v + h * (A51 * k1v + A52 * k2v + A53 * k3v + A54 * k4v), &k5u, &k5v);
        rhs(&o, t + h,
            u + h * (A61 * k1u + A62 * k2u + A63 * k3u + A64 * k4u + A65 * k5u),
            v + h * (A61 * k1v + A62 * k2v + A63 * k3v + A64 * k4v + A65 * k5v),
            &k6u, &k6v);
        double un = u + h * (B1 * k1u + B3 * k3u + B4 * k4u + B5 * k5u + B6 * k6u);
        double vn = v + h * (B1 * k1v + B3 * k3v + B4 * k4v + B5 * k5v + B6 * k6v);
        rhs(&o, t + h, un, vn, &k7u, &k7v);
        double eu = h * (E1 * k1u + E3 * k3u + E4 * k4u + E5 * k5u + E6 * k6u + E7 * k7u);
        double ev = h * (E1 * k1v + E3 * k3v + E4 * k4v + E5 * k5v + E6 * k6v + E7 * k7v);
        double sc_u = atol + rtol * PYMAX(fabs(u), fabs(un));
        double sc_v = atol + rtol * PYMAX(fabs(v), fabs(vn));
        double err = sqrt(0.5 * ((eu / sc_u) * (eu / sc_u) + (ev / sc_v) * (ev / sc_v)));
        if (err <= 1.0) {
            double u_prev = u;
            t += h;
            u = un;
            v = vn;
            k1u = k7u;
            k1v = k7v;
            if ((u_prev > 0.0 && u < 0.0) || (u_prev < 0.0 && u > 0.0)
                    || (u == 0.0 && u_prev != 0.0))
                zeros += 1;
            if (last || t >= t_end)
                return Py_BuildValue("(ddlO)", u, v, zeros, Py_True);
            double scale = PYMAX(fabs(u), fabs(v));
            if (scale > 1e50) {
                u /= scale;
                v /= scale;
                k1u /= scale;
                k1v /= scale;
            }
        }
        else {
            last = 0;
        }
        double fac = 0.9 * pow(PYMAX(err, 1e-10), -0.2);
        if (fac < 0.2)
            fac = 0.2;
        else if (fac > 5.0)
            fac = 5.0;
        h *= fac;
        if (h > max_step)
            h = max_step;
        if (h < 1e-14 * (t_end - t_start))
            return Py_BuildValue("(ddlO)", u, v, zeros, Py_False);
    }
    return Py_BuildValue("(ddlO)", u, v, zeros, Py_False);
}

/* Complex arithmetic as CPython 3.11 spells it, so the conjugate-pair
 * fraction rounds as the mirror's complex objects do: a float operand is
 * promoted to (x, 0.0), products follow _Py_c_prod and quotients
 * _Py_c_quot (Smith's form).  C99 _Complex division (__divdc3) rounds
 * differently. */
typedef struct {
    double re, im;
} Cx;

static inline Cx
cx(double re)
{
    Cx z = {re, 0.0};
    return z;
}

static inline Cx
cadd(Cx a, Cx b)
{
    Cx z = {a.re + b.re, a.im + b.im};
    return z;
}

static inline Cx
csub(Cx a, Cx b)
{
    Cx z = {a.re - b.re, a.im - b.im};
    return z;
}

static inline Cx
cmul(Cx a, Cx b)
{
    Cx z = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return z;
}

/* b is never (0, 0): the callers test for it, as complex division raises */
static inline Cx
cdiv(Cx a, Cx b)
{
    const double abs_re = b.re < 0 ? -b.re : b.re;
    const double abs_im = b.im < 0 ? -b.im : b.im;
    Cx z;
    if (abs_re >= abs_im) {
        const double ratio = b.im / b.re;
        const double denom = b.re + b.im * ratio;
        z.re = (a.re + a.im * ratio) / denom;
        z.im = (a.im - a.re * ratio) / denom;
    }
    else if (abs_im >= abs_re) {
        const double ratio = b.re / b.im;
        const double denom = b.re * ratio + b.im;
        z.re = (a.re * ratio + a.im) / denom;
        z.im = (a.im * ratio - a.re) / denom;
    }
    else {
        z.re = z.im = NAN;
    }
    return z;
}

#define TINY 1e-300 /* stands in for a level's exact zero denominator (Lentz's device) */

/* One grid's fraction: c, k, A, B, a1 = a - 1 and b1 = b - 1, and the
 * levels k_1, k_2, ... of R, shared by the grid and grown on demand.  For a
 * real exponent only the real parts are used. */
typedef struct {
    int complex_mode;
    double c, k;
    Cx A, B, a1, b1;
    Cx *ks;
    long len, cap;
} Fraction;

/* Make sure the levels k_1 .. k_{2 half} exist */
static int
grow_levels(Fraction *f, long half)
{
    long i;
    if (2 * half > f->cap) {
        long cap = PYMAX(2 * half, 2 * f->cap);
        Cx *ks = PyMem_Realloc(f->ks, cap * sizeof(Cx));
        if (ks == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        f->ks = ks;
        f->cap = cap;
    }
    for (i = f->len / 2 + 1; i <= half; i++) {
        double x = f->c + 2.0 * i;
        double d1 = (x - 2.0) * (x - 1.0), d2 = (x - 1.0) * x;
        if (f->complex_mode) {
            f->ks[f->len++] = cdiv(cmul(cadd(f->A, cx(i)), cadd(f->a1, cx(i))), cx(d1));
            f->ks[f->len++] = cdiv(cmul(cadd(f->B, cx(i)), cadd(f->b1, cx(i))), cx(d2));
        }
        else {
            f->ks[f->len++] = cx((f->A.re + i) * (f->a1.re + i) / d1);
            f->ks[f->len++] = cx((f->B.re + i) * (f->b1.re + i) / d2);
        }
    }
    return 0;
}

/* L cut at depth 2 half, its absolute value and the absolute value of its
 * first-order change if cut at half, for a real exponent */
static int
cut_real(Fraction *f, double s, long half, Cx *L, double *absL, double *change)
{
    const Cx *ks = f->ks;
    const double c = f->c, k = f->k, A = f->A.re, B = f->B.re;
    double u, w, gap, slope = 1.0; /* slope: du / du(level half + 1), down to level 2 */
    long j;
    u = w = 2.0 * (1.0 - sqrt(1.0 - s)) / s;
    for (j = 2 * half - 1; j > half - 1; j--) {
        double d = 1.0 - s * ks[j].re * u;
        u = 1.0 / (d != 0.0 ? d : TINY);
    }
    gap = u - w;
    for (j = half - 1; j > 0; j--) {
        double kz = s * ks[j].re;
        double d = 1.0 - kz * u;
        u = 1.0 / (d != 0.0 ? d : TINY);
        slope *= kz * u * u;
    }
    double den = c * (1.0 - s * ks[0].re * u) - s * B;
    if (den == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    double x = 2.0 * (1.0 - s) * s * A * B / den;
    *L = cx((k - 1.0) - k * s + x);
    *absL = fabs(L->re);
    *change = fabs(gap * slope * x * c * s * ks[0].re / den);
    return 0;
}

/* The same for the conjugate pair, operation for operation as the mirror
 * runs it on Python complex and float objects */
static int
cut_complex(Fraction *f, double s, long half, Cx *L, double *absL, double *change)
{
    const Cx *ks = f->ks;
    const double c = f->c, k = f->k;
    const double w = 2.0 * (1.0 - sqrt(1.0 - s)) / s;
    Cx u = cx(w), gap, slope = cx(1.0);
    long j;
    for (j = 2 * half - 1; j > half - 1; j--) {
        Cx d = csub(cx(1.0), cmul(cmul(cx(s), ks[j]), u));
        u = (d.re != 0.0 || d.im != 0.0) ? cdiv(cx(1.0), d) : cx(1.0 / TINY);
    }
    gap = csub(u, cx(w));
    for (j = half - 1; j > 0; j--) {
        Cx kz = cmul(cx(s), ks[j]);
        Cx d = csub(cx(1.0), cmul(kz, u));
        u = (d.re != 0.0 || d.im != 0.0) ? cdiv(cx(1.0), d) : cx(1.0 / TINY);
        slope = cmul(slope, cmul(cmul(kz, u), u));
    }
    Cx den = csub(cmul(cx(c), csub(cx(1.0), cmul(cmul(cx(s), ks[0]), u))),
                  cmul(cx(s), f->B));
    if (den.re == 0.0 && den.im == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "complex division by zero");
        return -1;
    }
    Cx x = cdiv(cmul(cmul(cx(2.0 * (1.0 - s) * s), f->A), f->B), den);
    *L = cadd(cx((k - 1.0) - k * s), x);
    Cx dL = cdiv(cmul(cmul(cmul(cmul(cmul(gap, slope), x), cx(c)), cx(s)), ks[0]), den);
    *change = hypot(dL.re, dL.im); /* abs() of a complex */
    *absL = hypot(L->re, L->im);
    return 0;
}

PyDoc_STRVAR(L_fraction_doc,
"L_fraction(A, B, c, k, ss, cf_tol, max_terms)\n\n"
"L = (k-1) - ks + 2(1-s) sAB / (c/R - sB) at each s of the grid ss, with\n"
"R = 1/(1 - k1 s/(1 - k2 s/...)) Gauss's continued fraction for\n"
"F(A+1, B+1; c+1; s) / F(A+1, B; c; s) (DLMF 15.7.5).  A and B are both\n"
"floats or both complex (the conjugate pair; the real part of L is\n"
"returned); the levels k_j are shared by the grid.\n\n"
"Evaluated backward from a depth 2N, with the fixed point of the levels'\n"
"limit as tail; L at 2N is taken once its first-order change from a cut\n"
"at N is at most cf_tol max(1, |L|), else N grows as the limit\n"
"contraction asks, by half at least.  s = 0 gives L = k-1 exactly.\n\n"
"Needs c > 0, cf_tol > 0 and every s in [0, 1), as cone.L_direct ensures.\n"
"Returns (Ls, None), or (Ls so far, (s, L, levels)) at the first point\n"
"whose fraction would need more than max_terms levels.");

/* Read a float, or with as_complex a complex, as float() and complex() do */
static int
parse_number(PyObject *obj, int as_complex, Cx *z)
{
    if (as_complex) {
        Py_complex v = PyComplex_AsCComplex(obj);
        z->re = v.real;
        z->im = v.imag;
    }
    else {
        z->re = PyFloat_AsDouble(obj);
        z->im = 0.0;
    }
    return z->re == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
L_fraction(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Fraction f = {0};
    PyObject *ss = NULL, *out = NULL, *result = NULL;
    Cx c, k, cf_tol;
    Py_ssize_t i, n;
    long max_terms;
    int overflow;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "L_fraction() takes exactly 7 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    f.complex_mode = PyComplex_Check(args[0]) || PyComplex_Check(args[1]);
    if (parse_number(args[0], f.complex_mode, &f.A) < 0
            || parse_number(args[1], f.complex_mode, &f.B) < 0
            || parse_number(args[2], 0, &c) < 0 || parse_number(args[3], 0, &k) < 0
            || parse_number(args[5], 0, &cf_tol) < 0)
        return NULL;
    max_terms = PyLong_AsLongAndOverflow(args[6], &overflow);
    if (max_terms == -1 && PyErr_Occurred())
        return NULL;
    /* a budget this large could not be allocated; the cap keeps the depth
     * arithmetic below from overflowing */
    if (overflow > 0 || max_terms > LONG_MAX / 4)
        max_terms = LONG_MAX / 4;
    else if (overflow < 0)
        max_terms = LONG_MIN;
    ss = PySequence_Tuple(args[4]);
    if (ss == NULL)
        return NULL;
    f.c = c.re;
    f.k = k.re;
    /* the real parts round as c - B - 1.0 and c - A - 1.0 do in floats */
    f.a1 = csub(csub(cx(f.c), f.B), cx(1.0));
    f.b1 = csub(csub(cx(f.c), f.A), cx(1.0));
    n = PyTuple_GET_SIZE(ss);
    out = PyList_New(n);
    if (out == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        double s = PyFloat_AsDouble(PyTuple_GET_ITEM(ss, i));
        if (s == -1.0 && PyErr_Occurred())
            goto done;
        Cx L = cx(f.k - 1.0);
        double absL, change;
        long half = 4;
        double q = sqrt(1.0 - s);
        while (s > 0.0) { /* L(0) = k-1 exactly */
            if (grow_levels(&f, half) < 0
                    || (f.complex_mode ? cut_complex : cut_real)(&f, s, half, &L, &absL,
                                                                 &change) < 0)
                goto done;
            double target = cf_tol.re * PYMAX(1.0, absL);
            if (change <= target)
                break;
            double more = log(change / target) / -log(PYMAX((1.0 - q) / (1.0 + q), TINY));
            half = PYMAX(half + half / 2,
                         half + 1 + (more < (double)max_terms ? (long)more : max_terms));
            if (2 * half > max_terms) {
                result = Py_BuildValue("(N(ddl))", PyList_GetSlice(out, 0, i), s, L.re,
                                       2 * half);
                goto done;
            }
        }
        PyObject *value = PyFloat_FromDouble(L.re);
        if (value == NULL)
            goto done;
        PyList_SET_ITEM(out, i, value);
    }
    result = PyTuple_Pack(2, out, Py_None);
done:
    PyMem_Free(f.ks);
    Py_XDECREF(out);
    Py_DECREF(ss);
    return result;
}

/* The checks CPython's math module makes around one libm call r = f(x): a
 * NaN from a non-NaN x is a ValueError, an infinity from a finite x an
 * OverflowError where f can overflow, else a ValueError */
static int
math_check(double x, double r, int can_overflow)
{
    if (isnan(r) && !isnan(x))
        PyErr_SetString(PyExc_ValueError, "math domain error");
    else if (isinf(r) && isfinite(x))
        PyErr_SetString(can_overflow ? PyExc_OverflowError : PyExc_ValueError,
                        can_overflow ? "math range error" : "math domain error");
    else
        return 0;
    return -1;
}

/* r = f(x) as math.f(x) computes it, or leave through done */
#define MATH(r, f, x, can_overflow)                         \
    do {                                                    \
        double arg_ = (x);                                  \
        r = f(arg_);                                        \
        if (math_check(arg_, r, can_overflow) < 0)          \
            goto done;                                      \
    } while (0)

PyDoc_STRVAR(ts_terms_doc,
"ts_terms(a, b, cb, s, xs)\n\n"
"Tanh-sinh terms of the Euler integral of 2F1(a, b; b + cb; s) at the\n"
"nodes -x and +x of each x >= 0 in xs, where u = (1 + tanh(pi/2 sinh x))/2\n"
"is w and 1 - w, w = 1/(1 + exp(pi sinh x)): the integrand\n"
"pi cosh x u^b (1-u)^cb (1-us)^(-a) at both, taken through logarithms so\n"
"neither end cancels.\n\n"
"Returns (values, weights): per x the sum of both terms, and the sum of\n"
"|term| (|log term| + 8), which bounds their rounding in units of 2^-53.\n"
"Raises as the math module does where a libm call leaves its range.");

static PyObject *
ts_terms(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[4];
    PyObject *xs, *values = NULL, *weights = NULL, *result = NULL;
    Py_ssize_t i, n;
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "ts_terms() takes exactly 5 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    for (i = 0; i < 4; i++) {
        p[i] = PyFloat_AsDouble(args[i]);
        if (p[i] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    const double a = p[0], b = p[1], cb = p[2], s = p[3], one_ms = 1.0 - s;
    xs = PySequence_Fast(args[4], "ts_terms() needs a sequence of nodes");
    if (xs == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(xs);
    values = PyList_New(n);
    weights = PyList_New(n);
    if (values == NULL || weights == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        double x = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(xs, i));
        double q, e, log_1mw, ch, jac, l1, l2, v_left, v_right;
        PyObject *v, *r;
        if (x == -1.0 && PyErr_Occurred())
            goto done;
        MATH(q, sinh, x, 1);
        q = Py_MATH_PI * q;
        MATH(e, exp, -q, 1);
        MATH(log_1mw, log1p, e, 0);
        log_1mw = -log_1mw;
        const double log_w = log_1mw - q;
        const double w = e / (1.0 + e);
        MATH(ch, cosh, x, 1);
        MATH(jac, log, Py_MATH_PI * ch, 0);
        MATH(l1, log1p, -s * w, 0);
        const double left = jac + b * log_w + cb * log_1mw - a * l1;
        MATH(l2, log, one_ms + s * w, 0);
        const double right = jac + b * log_1mw + cb * log_w - a * l2;
        MATH(v_left, exp, left, 1);
        MATH(v_right, exp, right, 1);
        v = PyFloat_FromDouble(v_left + v_right);
        r = PyFloat_FromDouble(v_left * (fabs(left) + 8.0) + v_right * (fabs(right) + 8.0));
        if (v == NULL || r == NULL) {
            Py_XDECREF(v);
            Py_XDECREF(r);
            goto done;
        }
        PyList_SET_ITEM(values, i, v);
        PyList_SET_ITEM(weights, i, r);
    }
    result = PyTuple_Pack(2, values, weights);
done:
    Py_XDECREF(values);
    Py_XDECREF(weights);
    Py_DECREF(xs);
    return result;
}

PyDoc_STRVAR(barrier_residual_doc,
"barrier_residual(n, k, s_star, r_minus, r_plus, delta, s_end, grid)\n\n"
"Largest R[phi] = (ns - k - B) phi(s) + P(s) - C over the grid-point\n"
"Chebyshev grid of [k/n, s_end], for the curved piece of the comparison\n"
"barrier at alpha = 4 - n: B = -(r- + r+) and C = r- r+, the\n"
"P(s) = (n-2k) s + ahat s (1-s) + (k-1) of ahat = 2(4-n), and\n"
"phi = r+ r- (Q - 1) / (r+ Q - r-), Q = (q0 (1-s)/s)^(sqrt(delta)/2),\n"
"q0 = s_star / (1 - s_star).  Needs 0 < k/n <= s_end < s_star < 1, as\n"
"checks.verify_barrier ensures, and grid >= 2 (else ValueError).");

static PyObject *
barrier_residual(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[7];
    long grid, j;
    if (parse_args("barrier_residual", args, nargs, 7, p, &grid) < 0)
        return NULL;
    const double n = p[0], k = p[1], s_star = p[2], r_minus = p[3], r_plus = p[4];
    const double delta = p[5], s_end = p[6];
    if (grid < 2) {
        PyErr_Format(PyExc_ValueError, "barrier grid needs 2 points or more, got %ld", grid);
        return NULL;
    }
    const double B = -(r_minus + r_plus), C = r_minus * r_plus;
    const double q0 = s_star / (1.0 - s_star), expo = 0.5 * sqrt(delta);
    const double ahat = 2.0 * (4.0 - n), lo = k / n;
    double best = 0.0;
    for (j = 0; j < grid; j++) {
        double s = lo + (s_end - lo) * 0.5 * (1.0 - cos(Py_MATH_PI * j / (double)(grid - 1)));
        double base = q0 * (1.0 - s) / s;
        /* float ** float: pow() for the positive base, with its overflow
         * an OverflowError */
        double qs = pow(base, expo);
        if (isinf(qs) && isfinite(base) && isfinite(expo)) {
            errno = ERANGE;
            return PyErr_SetFromErrno(PyExc_OverflowError);
        }
        double den = r_plus * qs - r_minus;
        if (den == 0.0) {
            PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
            return NULL;
        }
        double phi = r_plus * r_minus * (qs - 1.0) / den;
        double res = (n * s - k - B) * phi + ((n - 2.0 * k) * s + ahat * s * (1.0 - s)
                                              + (k - 1.0)) - C;
        if (j == 0 || res > best)
            best = res;
    }
    return PyFloat_FromDouble(best);
}

#define ROOT_F_TOL 1e-12 /* end |f| at which illinois stops instead of bisecting */

/* math.ulp(x) */
static double
py_ulp(double x)
{
    if (isnan(x))
        return x;
    x = fabs(x);
    if (isinf(x))
        return x;
    double x2 = nextafter(x, INFINITY);
    if (isinf(x2))
        return x - nextafter(x, -INFINITY);
    return x2 - x;
}

PyDoc_STRVAR(illinois_doc,
"illinois(f, lo, f_lo, hi, f_hi, series=None)\n\n"
"Shrink a bracket lo < hi of a root of the scalar function f, where\n"
"f_lo = f(lo) > 0 >= f_hi = f(hi): regula falsi of Illinois type with\n"
"Anderson & Bjoerck's weight, which bisects a step not strictly inside\n"
"the bracket unless an end's |f| is at most ROOT_F_TOL, and the fifth\n"
"step since the bracket last halved its width.  Returns (x, |f(x)|, lo,\n"
"hi): the final end with the smaller |f|, its |f|, and the final bracket.\n\n"
"series, when given, is specfun.series_span(a, b, c) of f = 2F1(a, b; c; .),\n"
"the tuple (a, b, c, s_full, s_cut, rel_tol, abs_tol, full_terms,\n"
"cut_terms): at a step x with -1 < x <= s_cut the kernel sums the Gauss\n"
"series itself, with full_terms terms up to s_full and cut_terms beyond,\n"
"and calls f only where that sum does not converge.  f is called at\n"
"every other step.  What f raises passes through.");

static PyObject *
illinois(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[4];
    double a = 0.0, b = 0.0, c = 0.0, s_full = 0.0, s_cut = 0.0, rel_tol = 0.0, abs_tol = 0.0;
    long full_terms = 0, cut_terms = 0;
    int have_series = 0;
    Py_ssize_t i;
    if (nargs != 5 && nargs != 6) {
        PyErr_Format(PyExc_TypeError, "illinois() takes 5 or 6 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *f = args[0];
    for (i = 0; i < 4; i++) {
        p[i] = PyFloat_AsDouble(args[i + 1]);
        if (p[i] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (nargs == 6 && args[5] != Py_None) {
        PyObject *span = PySequence_Tuple(args[5]);
        if (span == NULL)
            return NULL;
        int ok = PyArg_ParseTuple(span, "dddddddll;illinois() needs a series span of 9 fields",
                                  &a, &b, &c, &s_full, &s_cut, &rel_tol, &abs_tol,
                                  &full_terms, &cut_terms);
        Py_DECREF(span);
        if (!ok)
            return NULL;
        have_series = 1;
    }
    double lo = p[0], f_lo = p[1], hi = p[2], f_hi = p[3];
    double w_lo = 1.0, w_hi = 1.0;
    double f_prev = 0.0; /* f at the previous step's point, an end; 0.0 before the first step */
    double width = hi - lo; /* the width when the bracket last halved */
    long slow = 0;          /* steps since */
    while (f_hi < 0.0 && hi - lo > 4.0 * PYMAX(py_ulp(lo), py_ulp(hi))) {
        double g_lo = w_lo * f_lo, g_hi = w_hi * f_hi;
        double den = g_hi - g_lo;
        if (den == 0.0) {
            PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
            return NULL;
        }
        double x = hi - g_hi * (hi - lo) / den;
        if (!(lo < x && x < hi)) {
            if (PYMIN(f_lo, -f_hi) <= ROOT_F_TOL)
                break;
            x = 0.5 * (lo + hi);
        }
        else if (slow == 4) {
            x = 0.5 * (lo + hi);
        }
        double f_x = 0.0;
        int ok = 0;
        if (have_series && -1.0 < x && x <= s_cut) {
            SeriesSum r = series_sum(a, b, c, x, rel_tol, abs_tol,
                                     x <= s_full ? full_terms : cut_terms);
            f_x = r.value;
            ok = r.converged;
        }
        if (!ok) {
            PyObject *arg = PyFloat_FromDouble(x), *res;
            if (arg == NULL)
                return NULL;
            res = PyObject_CallOneArg(f, arg);
            Py_DECREF(arg);
            if (res == NULL)
                return NULL;
            f_x = PyFloat_AsDouble(res);
            Py_DECREF(res);
            if (f_x == -1.0 && PyErr_Occurred())
                return NULL;
        }
        double m = 1.0;
        if (f_prev != 0.0 && (f_x > 0.0) == (f_prev > 0.0)) { /* the same end replaced again */
            m = 1.0 - f_x / f_prev;
            m = m > 0.0 ? m : 0.5;
        }
        if (f_x > 0.0) {
            lo = x;
            f_lo = f_x;
            w_lo = 1.0;
            w_hi = w_hi * m;
        }
        else {
            hi = x;
            f_hi = f_x;
            w_hi = 1.0;
            w_lo = w_lo * m;
        }
        f_prev = f_x;
        slow += 1;
        if (hi - lo <= 0.5 * width) {
            width = hi - lo;
            slow = 0;
        }
    }
    if (f_lo < -f_hi)
        return Py_BuildValue("(dddd)", lo, f_lo, lo, hi);
    return Py_BuildValue("(dddd)", hi, -f_hi, lo, hi);
}

static PyMethodDef kernel_methods[] = {
    {"hyp2f1_series", (PyCFunction)(void (*)(void))hyp2f1_series, METH_FASTCALL,
     hyp2f1_series_doc},
    {"robin_shoot", (PyCFunction)(void (*)(void))robin_shoot, METH_FASTCALL,
     robin_shoot_doc},
    {"L_fraction", (PyCFunction)(void (*)(void))L_fraction, METH_FASTCALL,
     L_fraction_doc},
    {"ts_terms", (PyCFunction)(void (*)(void))ts_terms, METH_FASTCALL, ts_terms_doc},
    {"barrier_residual", (PyCFunction)(void (*)(void))barrier_residual, METH_FASTCALL,
     barrier_residual_doc},
    {"illinois", (PyCFunction)(void (*)(void))illinois, METH_FASTCALL, illinois_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "conelab._kernels",
    "Compiled hot kernels; conelab._pykernels is the statement-identical mirror.",
    -1, kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *mod = PyModule_Create(&kernel_module);
    if (mod == NULL)
        return NULL;
    PyObject *tol = PyFloat_FromDouble(ROOT_F_TOL);
    /* PyModule_AddObjectRef takes no reference, and fails on a NULL tol */
    int err = PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0
              || PyModule_AddObjectRef(mod, "ROOT_F_TOL", tol) < 0;
    Py_XDECREF(tol);
    if (err)
        Py_CLEAR(mod);
    return mod;
}

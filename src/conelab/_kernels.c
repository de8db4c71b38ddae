/* Compiled hot kernels: hypergeometric series summation and the Robin
 * shooting integrator.  conelab._pykernels mirrors this file statement for
 * statement, so the two backends produce the same floating-point results;
 * keep the two in sync.  Build with -ffp-contract=off: a fused multiply-add
 * rounds differently from the Python mirror. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
 * j >= i.  Infinite when no such q below 1 is found. */
static double
tail_bound(double a, double b, double c, double s, double i, double nxt)
{
    if (c + i <= 0.0)
        return INFINITY;
    double q = fabs(s) * PYMIN(ratio_sup(a, c, i) * ratio_sup(b, 1.0, i),
                               ratio_sup(a, 1.0, i) * ratio_sup(b, c, i));
    if (q >= 1.0)
        return INFINITY;
    return nxt / (1.0 - q);
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
    long max_terms, m;
    if (parse_args("hyp2f1_series", args, nargs, 6, p, &max_terms) < 0)
        return NULL;
    const double a = p[0], b = p[1], c = p[2], s = p[3];
    const double rel_tol = p[4], abs_tol = p[5];
    double term = 1.0;
    double total = 1.0;
    double comp = 0.0;
    /* sum of |term| times its rounding count (8 per step, 2 in the sum),
     * in units of 2^-53; 1.12e-16 leaves 1% for higher orders */
    double rounds = 2.0;
    if (s == 0.0)
        return Py_BuildValue("(ddiO)", 1.0, 0.0, 0, Py_True);
    for (m = 0; m < max_terms; m++) {
        term = term * ((a + m) * (b + m) / ((c + m) * (m + 1.0)) * s);
        double y = term - comp;
        double tnew = total + y;
        comp = (tnew - total) - y;
        total = tnew;
        rounds += (8.0 * m + 10.0) * fabs(term);
        if (term == 0.0)
            /* terminating series (a or b a nonpositive integer) */
            return Py_BuildValue("(ddlO)", total, 1.12e-16 * rounds, m + 1,
                                 isfinite(total) ? Py_True : Py_False);
        /* an infinite total clears every tolerance, so both exits report
         * a total that is not finite as not converged */
        double tol = PYMAX(abs_tol, rel_tol * fabs(total));
        if (fabs(term) <= tol) {
            double ratio_next = (a + m + 1.0) * (b + m + 1.0) / ((c + m + 1.0) * (m + 2.0)) * s;
            double nxt = fabs(term * ratio_next);
            if (nxt <= tol)
                return Py_BuildValue("(ddlO)", total,
                                     tail_bound(a, b, c, s, m + 2.0, nxt) + 1.12e-16 * rounds,
                                     m + 1, isfinite(total) ? Py_True : Py_False);
        }
    }
    return Py_BuildValue("(ddlO)", total, fabs(term) + 1.12e-16 * rounds, max_terms,
                         Py_False);
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

static PyMethodDef kernel_methods[] = {
    {"hyp2f1_series", (PyCFunction)(void (*)(void))hyp2f1_series, METH_FASTCALL,
     hyp2f1_series_doc},
    {"robin_shoot", (PyCFunction)(void (*)(void))robin_shoot, METH_FASTCALL,
     robin_shoot_doc},
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
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}

/* Compiled stream loops; bit-identical to frgc._pure (see its contract).
 * Arrays come in through the buffer protocol (y*), the decoders' out as a
 * bytearray: no Python object is made per symbol.  The encoders return
 * (payload, nbits), the decoders the bytearray; no loop reports its m, which
 * frgc.codec derives from the symbols when asked for a trace.
 *
 * Bits are MSB-first.  A codeword for a mapped residual v under parameter m
 * is the unary quotient v / m (that many ones, then a zero) followed by the
 * remainder in minimal binary, as in frgc.bitcoder.  The adaptive m follows
 * frgc._estcore's one rule: it holds while ln theta_hat, the same two-cast
 * double quotient, stays in m's interval, and elsewhere select_m's closed-form
 * guess and one compare choose it, with the constants and the boundary table
 * read from _estcore at import and no libm call; build with -ffp-contract=off
 * so no float expression is fused.  The stream limits are frgc.bitcoder's
 * MAX_RUN, M_MAX and TAU_MAX, read at import (check_limits).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define N_BOUNDS 64  /* entries of the m table, so the largest adaptive m */

static PyObject *CorruptStreamError;  /* frgc.bitcoder.CorruptStreamError */
static long long est_saturation;      /* frgc._estcore.EST_SATURATION */
static long long max_run, m_max, tau_max;  /* frgc.bitcoder.MAX_RUN, M_MAX, TAU_MAX */
static double guess_c, guess_lo, guess_hi;  /* frgc._estcore.GUESS_C, GUESS_LO, GUESS_HI */
/* frgc._estcore.BOUNDS: m's interval is (bounds[m - 1], bounds[m]], from
 * LOG_BOUNDARIES between -inf and +inf */
static double bounds[N_BOUNDS + 1];

#define VALUE_LIMIT (1LL << 62)  /* bounds decoding's numbers: see check_limits */
#define FIELD_BITS 32            /* the most bits put_bits appends at once */

/* A Golomb parameter m with b = ceil(lg m): remainders below u = 2**b - m
 * take b-1 bits, the others b. */
typedef struct { long long m, u; int b; } Code;

/* Set *out to the int value if it is in [1, top]; else ValueError, for any
 * int, 64-bit or not, with the message frgc._pure gives. */
static int in_range(const char *name, PyObject *value, long long top, long long *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow && v >= 1 && v <= top) {
        *out = v;
        return 0;
    }
    PyErr_Format(PyExc_ValueError, "%s must be in [1, %lld], got %S", name, top, value);
    return -1;
}

static void code_set(Code *c, long long m)
{
    c->m = m;
    for (c->b = 0; (1LL << c->b) < m; c->b++)
        ;
    c->u = (1LL << c->b) - m;
}

typedef struct {
    unsigned char *buf;
    Py_ssize_t len, cap;
    unsigned long long acc;  /* pending bits, fewer than 8 between calls */
    int nacc;
    long long nbits;         /* bits written */
} Writer;

/* Append the low nbits (at most FIELD_BITS) of value. */
static int put_bits(Writer *w, unsigned long long value, int nbits)
{
    if (w->len + 5 > w->cap) {
        Py_ssize_t cap = w->cap ? 2 * w->cap : 1024;
        unsigned char *grown = PyMem_Realloc(w->buf, (size_t)cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->buf = grown;
        w->cap = cap;
    }
    w->acc = (w->acc << nbits) | value;
    w->nacc += nbits;
    w->nbits += nbits;
    while (w->nacc >= 8) {
        w->nacc -= 8;
        w->buf[w->len++] = (unsigned char)(w->acc >> w->nacc);
    }
    w->acc &= (1ULL << w->nacc) - 1;
    return 0;
}

static int put_codeword(Writer *w, long long v, const Code *c)
{
    long long j, k;
    if (v < 0) {
        PyErr_Format(PyExc_ValueError, "mapped residual must be non-negative, got %lld", v);
        return -1;
    }
    j = v / c->m;
    k = v - j * c->m;
    if (j > max_run) {
        PyErr_Format(PyExc_ValueError, "quotient %lld exceeds the %lld-bit unary limit",
                     j, max_run);
        return -1;
    }
    for (; j >= 32; j -= 32)
        if (put_bits(w, 0xFFFFFFFFULL, 32) < 0)
            return -1;
    if (put_bits(w, ((1ULL << j) - 1) << 1, (int)j + 1) < 0)
        return -1;
    if (c->b == 0)
        return 0;
    return k < c->u ? put_bits(w, (unsigned long long)k, c->b - 1)
                    : put_bits(w, (unsigned long long)(k + c->u), c->b);
}

/* (payload, nbits); pads the payload with zeros to a whole byte and frees
 * the buffer. */
static PyObject *writer_result(Writer *w)
{
    long long nbits = w->nbits;
    PyObject *payload = NULL;
    if (w->nacc == 0 || put_bits(w, 0, 8 - w->nacc) == 0)
        payload = PyBytes_FromStringAndSize((char *)w->buf, w->len);
    PyMem_Free(w->buf);
    w->buf = NULL;
    return Py_BuildValue("(NL)", payload, nbits);
}

typedef struct { const unsigned char *data; Py_ssize_t pos, nbits; } Reader;

static long long end_of_stream(void)
{
    PyErr_SetString(CorruptStreamError, "unexpected end of stream");
    return -1;
}

static long long get_unary(Reader *r)
{
    long long count = 0;
    while (r->pos < r->nbits) {
        /* a whole byte of ones in one step */
        int step = (r->pos & 7) == 0 && r->data[r->pos >> 3] == 0xFF ? 8 : 1;
        int bit = (r->data[r->pos >> 3] >> (7 - (r->pos & 7))) & 1;
        r->pos += step;
        if (!bit)
            return count;
        if ((count += step) > max_run) {
            PyErr_Format(CorruptStreamError, "unary run exceeds %lld bits", max_run);
            return -1;
        }
    }
    return end_of_stream();
}

/* Read n (at most 32) bits as an unsigned number. */
static long long get_bits(Reader *r, int n)
{
    unsigned long long v = 0;
    if (r->pos + n > r->nbits)
        return end_of_stream();
    while (n > 0) {
        int avail = 8 - (int)(r->pos & 7);
        int take = avail < n ? avail : n;
        v = (v << take)
            | (((unsigned)r->data[r->pos >> 3] >> (avail - take)) & ((1u << take) - 1));
        r->pos += take;
        n -= take;
    }
    return (long long)v;
}

/* The mapped residual of the next codeword, or -1 with an exception set. */
static long long get_codeword(Reader *r, const Code *c)
{
    long long j = get_unary(r), k, bit;
    if (j < 0)
        return -1;
    if (c->b == 0)
        return j * c->m;
    if ((k = get_bits(r, c->b - 1)) < 0)
        return -1;
    if (k >= c->u) {
        if ((bit = get_bits(r, 1)) < 0)
            return -1;
        k = ((k << 1) | bit) - c->u;
    }
    return j * c->m + k;
}

typedef struct {
    long long m;     /* the m in force, which holds while lo < ln theta_hat <= hi */
    double lo, hi;
    int raw;         /* sums raw |x - xhat| as a double, else |numerators| */
    long long tau, t, s_int;
    double s_raw;
} Est;

/* m for the next symbol: the m held, or select_m's guess and compare. */
static long long est_m(Est *e)
{
    double lt, y, z;
    long long g;
    if (e->raw ? e->s_raw <= 0.0 : e->s_int <= 0)
        return 1;  /* only before the first nonzero increment, while m is 1 */
    lt = e->raw ? -((double)e->t) / e->s_raw
                : -((double)(e->t * e->tau)) / ((double)e->s_int);
    if (e->lo < lt && lt <= e->hi)
        return e->m;
    y = lt > guess_lo ? lt : guess_lo;  /* -inf and NaN take the bound */
    if (y > guess_hi)
        y = guess_hi;
    z = -guess_c / y - 0.5;  /* in (0, N_BOUNDS]: check_guess */
    g = (long long)z;
    g += g < z;              /* ceil */
    g += lt > bounds[g];
    e->m = g;
    e->lo = bounds[g - 1];
    e->hi = bounds[g];
    return g;
}

/* Count a symbol by its |residual numerator| a >= 0 (the sum saturates), or
 * raw |x - xhat| d. */
static void est_add(Est *e, long long a, double d)
{
    e->t++;
    if (e->raw)
        e->s_raw += d;
    else
        e->s_int = a > est_saturation - e->s_int ? est_saturation : e->s_int + a;
}

/* The number of 8-byte values in b, or -1 with ValueError unless it holds a
 * whole number of them, at least need; so no loop reads past its end. */
static Py_ssize_t values_in(const Py_buffer *b, Py_ssize_t need, const char *name)
{
    if (b->len % 8 == 0 && b->len / 8 >= need)
        return b->len / 8;
    PyErr_Format(PyExc_ValueError, "%s holds %zd bytes, needs %zd 8-byte values",
                 name, b->len, need);
    return -1;
}

/* Value i of a buffer of int64 (.i) or double (.d) values; memcpy, as a
 * buffer need not be aligned. */
typedef union { long long i; double d; } Item;

static Item item_at(const Py_buffer *b, Py_ssize_t i)
{
    Item v;
    memcpy(&v, (const char *)b->buf + 8 * i, sizeof v);
    return v;
}

/* A bytearray for the decoded int64 values (its storage is malloc-aligned).
 * Every codeword takes at least one bit, so a count over the payload's bits
 * fails before it fills more slots than there are bits. */
static PyObject *new_output(Py_ssize_t count, Py_ssize_t nbits)
{
    Py_ssize_t n = count < nbits ? count : nbits;
    return PyByteArray_FromStringAndSize(NULL, n < 0 ? 0 : 8 * n);
}

#define OUT_VALUES(out) ((long long *)PyByteArray_AS_STRING(out))

/* The symbol whose residual numerator against n folds to v, as qmap.unmap:
 * with c = ceil(2n / tau) and s = v + c it is s / 2 for even s, else
 * (c - v - 1) / 2, floored.  Needs 0 <= v < 2**62, |n| < 2**62 and tau >= 1;
 * c is split as 2h + q so that no intermediate leaves 64 bits. */
static long long unfold(long long v, long long n, long long tau)
{
    long long c = 2 * n / tau + (2 * n % tau > 0), h = c >> 1, q = c & 1;
    return ((v + q) & 1) == 0 ? h + ((v + q) >> 1) : h - ((v + 2 - q) >> 1);
}

static PyObject *golomb_encode(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer ms;
    PyObject *m_arg, *result = NULL;
    long long m;
    Writer w = {0};
    Code code;
    Py_ssize_t i, n;
    if (!PyArg_ParseTuple(args, "y*O", &ms, &m_arg))
        return NULL;
    if (in_range("golomb parameter", m_arg, m_max, &m) == 0
            && (n = values_in(&ms, 0, "ms")) >= 0) {
        code_set(&code, m);
        for (i = 0; i < n; i++)
            if (put_codeword(&w, item_at(&ms, i).i, &code) < 0)
                break;
        if (i == n)
            result = writer_result(&w);
    }
    PyMem_Free(w.buf);
    PyBuffer_Release(&ms);
    return result;
}

static PyObject *golomb_decode(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer payload;
    Py_ssize_t count, i;
    long long m, v;
    PyObject *m_arg, *out = NULL;
    Code code;
    if (!PyArg_ParseTuple(args, "y*nO", &payload, &count, &m_arg))
        return NULL;
    Reader r = {payload.buf, 0, 8 * payload.len};
    if (in_range("golomb parameter", m_arg, m_max, &m) == 0) {
        code_set(&code, m);
        out = new_output(count, r.nbits);
    }
    for (i = 0; out && i < count; i++)
        if ((v = get_codeword(&r, &code)) < 0)
            Py_CLEAR(out);
        else
            OUT_VALUES(out)[i] = v;
    PyBuffer_Release(&payload);
    return out;
}

static PyObject *adaptive_encode(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer ms, inc;
    PyObject *tau_arg, *result = NULL;
    long long m;
    int raw;
    Writer w = {0};
    Code code = {0, 0, 0};
    Py_ssize_t i, n;
    if (!PyArg_ParseTuple(args, "y*y*pO", &ms, &inc, &raw, &tau_arg))
        return NULL;
    Est e = {1, bounds[0], bounds[1], raw, 0, 0, 0, 0.0};
    if ((n = values_in(&ms, 0, "ms")) < 0
            || values_in(&inc, n, "increments") < 0
            || in_range("tau", tau_arg, tau_max, &e.tau) < 0)
        goto done;
    for (i = 0; i < n; i++) {
        if ((m = est_m(&e)) != code.m)
            code_set(&code, m);
        if (put_codeword(&w, item_at(&ms, i).i, &code) < 0)
            goto done;
        est_add(&e, item_at(&inc, i).i, item_at(&inc, i).d);
    }
    result = writer_result(&w);
done:
    PyMem_Free(w.buf);
    PyBuffer_Release(&ms);
    PyBuffer_Release(&inc);
    return result;
}

static PyObject *adaptive_decode(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer payload, pred_n, pred_x;
    Py_ssize_t count, i;
    PyObject *tau_arg, *out = NULL, *result = NULL;
    long long lo, hi, m, v, n, x, d;
    double dx;
    int raw;
    Code code = {0, 0, 0};
    if (!PyArg_ParseTuple(args, "y*ny*y*OpLL", &payload, &count, &pred_n, &pred_x,
                          &tau_arg, &raw, &lo, &hi))
        return NULL;
    Reader r = {payload.buf, 0, 8 * payload.len};
    Est e = {1, bounds[0], bounds[1], raw, 0, 0, 0, 0.0};
    if (in_range("tau", tau_arg, tau_max, &e.tau) < 0
            || values_in(&pred_n, count, "pred_n") < 0
            || values_in(&pred_x, count, "pred_x") < 0
            || (out = new_output(count, r.nbits)) == NULL)
        goto done;
    for (i = 0; i < count; i++)  /* every numerator before any codeword: unfold needs them */
        if ((n = item_at(&pred_n, i).i) <= -VALUE_LIMIT || n >= VALUE_LIMIT) {
            PyErr_SetString(PyExc_ValueError, "prediction numerator out of range");
            goto done;
        }
    for (i = 0; i < count; i++) {
        if ((m = est_m(&e)) != code.m)
            code_set(&code, m);
        if ((v = get_codeword(&r, &code)) < 0)
            goto done;
        n = item_at(&pred_n, i).i;
        x = unfold(v, n, e.tau);
        if (x < lo || x > hi) {
            PyErr_Format(CorruptStreamError, "symbol %zd decodes to %lld, outside [%lld, %lld]",
                         i, x, lo, hi);
            goto done;
        }
        OUT_VALUES(out)[i] = x;
        d = e.tau * x - n;  /* |d| < 2**61, see check_limits */
        dx = (double)x - item_at(&pred_x, i).d;
        est_add(&e, d < 0 ? -d : d, dx < 0 ? -dx : dx);
    }
    result = out;
    out = NULL;
done:
    PyBuffer_Release(&payload);
    PyBuffer_Release(&pred_n);
    PyBuffer_Release(&pred_x);
    Py_XDECREF(out);
    return result;
}

#define ENTRY(name) {#name, name, METH_VARARGS, NULL}

static PyMethodDef methods[] = {ENTRY(golomb_encode), ENTRY(golomb_decode),
                                 ENTRY(adaptive_encode), ENTRY(adaptive_decode),
                                 {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "frgc._kernels",
    "Compiled stream loops; bit-identical to frgc._pure (see its contract).",
    -1, methods, NULL, NULL, NULL, NULL,
};

static PyObject *import_attr(const char *module_name, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module_name), *attr;
    if (mod == NULL)
        return NULL;
    attr = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return attr;
}

/* Copy frgc._estcore.LOG_BOUNDARIES into bounds[1..N_BOUNDS - 1], between
 * -inf and +inf, as _estcore.BOUNDS; it must have N_BOUNDS entries, the last of
 * which the cap leaves unread. */
static int load_bounds(void)
{
    PyObject *table = import_attr("frgc._estcore", "LOG_BOUNDARIES"), *item;
    Py_ssize_t i, size;
    if (table == NULL)
        return -1;
    if ((size = PySequence_Size(table)) != N_BOUNDS && !PyErr_Occurred())
        PyErr_Format(PyExc_ImportError, "LOG_BOUNDARIES must have %d entries, got %zd",
                     N_BOUNDS, size);
    for (i = 1; i < N_BOUNDS && !PyErr_Occurred(); i++) {
        if ((item = PySequence_GetItem(table, i - 1)) == NULL)
            break;
        bounds[i] = PyFloat_AsDouble(item);
        Py_DECREF(item);
    }
    Py_DECREF(table);
    bounds[0] = -HUGE_VAL;
    bounds[N_BOUNDS] = HUGE_VAL;
    return PyErr_Occurred() ? -1 : 0;
}

/* Set *value to the float module_name.name; -1 with an exception if it fails. */
static int import_double(const char *module_name, const char *name, double *value)
{
    PyObject *attr = import_attr(module_name, name);
    *value = attr == NULL ? -1.0 : PyFloat_AsDouble(attr);
    Py_XDECREF(attr);
    return PyErr_Occurred() ? -1 : 0;
}

/* Set *value to the integer module_name.name; -1 with an exception if it fails. */
static int import_int(const char *module_name, const char *name, long long *value)
{
    PyObject *attr = import_attr(module_name, name);
    *value = attr == NULL ? -1 : PyLong_AsLongLong(attr);
    Py_XDECREF(attr);
    return PyErr_Occurred() ? -1 : 0;
}

/* est_m's guess, ceil(-guess_c / y - 1/2) for y in [guess_lo, guess_hi], must lie
 * in [1, N_BOUNDS]: z = -guess_c / y - 1/2 rises with y, so it is checked at the
 * two ends, where it must lie in (0, N_BOUNDS], which also keeps the cast of z to
 * long long defined. */
static int check_guess(void)
{
    if (guess_c > 0 && guess_lo <= guess_hi && guess_hi < 0
            && -guess_c / guess_lo - 0.5 > 0 && -guess_c / guess_hi - 0.5 <= N_BOUNDS)
        return 0;
    PyErr_Format(PyExc_ImportError, "GUESS_C, GUESS_LO and GUESS_HI must keep the guess "
                 "of m in [1, %d]", N_BOUNDS);
    return -1;
}

/* (MAX_RUN + 1) * M_MAX * TAU_MAX <= 2**62 keeps a decoded mapped value v below 2**62 / tau
 * and its residual numerator, |r| <= tau * (v + 1) / 2, below 2**61, so with |numerator| <
 * 2**62 the unfold stays within 64 bits; and put_bits must write every remainder. */
static int check_limits(void)
{
    if (max_run >= 0 && m_max >= 1 && tau_max >= 1 && (m_max - 1) >> FIELD_BITS == 0
            && max_run < VALUE_LIMIT / m_max / tau_max)
        return 0;
    PyErr_Format(PyExc_ImportError, "stream limits do not fit the 64-bit loops: MAX_RUN=%lld, "
                 "M_MAX=%lld, TAU_MAX=%lld", max_run, m_max, tau_max);
    return -1;
}

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *mod;
    if (import_int("frgc._estcore", "EST_SATURATION", &est_saturation) < 0
            || import_int("frgc.bitcoder", "MAX_RUN", &max_run) < 0
            || import_int("frgc.bitcoder", "M_MAX", &m_max) < 0
            || import_int("frgc.bitcoder", "TAU_MAX", &tau_max) < 0
            || check_limits() < 0 || load_bounds() < 0
            || import_double("frgc._estcore", "GUESS_C", &guess_c) < 0
            || import_double("frgc._estcore", "GUESS_LO", &guess_lo) < 0
            || import_double("frgc._estcore", "GUESS_HI", &guess_hi) < 0
            || check_guess() < 0
            || (CorruptStreamError = import_attr("frgc.bitcoder", "CorruptStreamError")) == NULL
            || (mod = PyModule_Create(&module)) == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}

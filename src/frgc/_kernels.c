/* Compiled stream loops; bit-identical to frgc._pure (see its contract).
 *
 * Bits are MSB-first.  A codeword for a mapped residual v under parameter m
 * is the unary quotient v / m (that many ones, then a zero) followed by the
 * remainder in minimal binary, as in frgc.bitcoder.  The adaptive m is chosen
 * as in _estcore.select_m, over a copy of its table taken at import, by the
 * same two-cast double expression and no libm call; build with
 * -ffp-contract=off so no float expression is fused.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define N_BOUNDS 64  /* entries of the m table, so the largest adaptive m */

static PyObject *CorruptStreamError;  /* frgc.bitcoder.CorruptStreamError */
static long long est_saturation;      /* frgc._estcore.EST_SATURATION */
static double log_bounds[N_BOUNDS];   /* frgc._estcore.LOG_BOUNDARIES: ln b_k, ascending */

#define VALUE_LIMIT (1LL << 62)  /* bounds decoding's numbers: see check_max_run */

/* A Golomb parameter m with b = ceil(lg m): remainders below u = 2**b - m
 * take b-1 bits, the others b. */
typedef struct { long long m, u; int b; } Code;

static int code_set(Code *c, long long m)
{
    if (m < 1 || m > (1LL << 32)) {  /* so every remainder fits in 32 bits */
        PyErr_Format(PyExc_ValueError, "golomb parameter must be in [1, 2**32], got %lld", m);
        return -1;
    }
    c->m = m;
    for (c->b = 0; (1LL << c->b) < m; c->b++)
        ;
    c->u = (1LL << c->b) - m;
    return 0;
}

typedef struct {
    unsigned char *buf;
    Py_ssize_t len, cap;
    unsigned long long acc;  /* pending bits, fewer than 8 between calls */
    int nacc;
    long long nbits;         /* bits written */
} Writer;

/* Append the low nbits (at most 32) of value. */
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

static int put_codeword(Writer *w, long long v, const Code *c, long long max_run)
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

/* (payload, nbits), or (payload, nbits, trace) unless trace is NULL; pads
 * the payload with zeros to a whole byte and frees the buffer. */
static PyObject *writer_result(Writer *w, PyObject *trace)
{
    long long nbits = w->nbits;
    PyObject *payload = NULL;
    if (w->nacc == 0 || put_bits(w, 0, 8 - w->nacc) == 0)
        payload = PyBytes_FromStringAndSize((char *)w->buf, w->len);
    PyMem_Free(w->buf);
    w->buf = NULL;
    if (trace)
        return Py_BuildValue("(NLO)", payload, nbits, trace);
    return Py_BuildValue("(NL)", payload, nbits);
}

typedef struct { const unsigned char *data; Py_ssize_t pos, nbits; } Reader;

static long long end_of_stream(void)
{
    PyErr_SetString(CorruptStreamError, "unexpected end of stream");
    return -1;
}

static long long get_unary(Reader *r, long long max_run)
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
        v = (v << take) | ((r->data[r->pos >> 3] >> (avail - take)) & ((1u << take) - 1));
        r->pos += take;
        n -= take;
    }
    return (long long)v;
}

/* The mapped residual of the next codeword, or -1 with an exception set. */
static long long get_codeword(Reader *r, const Code *c, long long max_run)
{
    long long j = get_unary(r, max_run), k, bit;
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

/* (max_run + 1) * m_max * tau <= 2**62 keeps a decoded mapped value v below
 * 2**62 / tau, and its residual numerator, |r| <= tau * (v + 1) / 2, below
 * 2**61; with |numerator| < 2**62 the unfold then stays within 64 bits. */
static int check_max_run(long long max_run, long long m_max, long long tau)
{
    if (max_run >= VALUE_LIMIT / m_max / tau) {
        PyErr_Format(PyExc_ValueError,
                     "max_run %lld too large for m up to %lld and tau %lld",
                     max_run, m_max, tau);
        return -1;
    }
    return 0;
}

typedef struct {
    int k;        /* the last index est_m found */
    int raw;      /* sums raw |x - xhat| as a double, else |numerators| */
    long long tau, t, s_int;
    double s_raw;
} Est;

static int est_init(Est *e, long long tau, int raw)
{
    e->raw = raw;
    e->tau = tau;
    if (tau < 1) {
        PyErr_SetString(PyExc_ValueError, "need tau >= 1");
        return -1;
    }
    return 0;
}

/* m for the next symbol: select_m's bisect_left index, stepped to from the last. */
static long long est_m(Est *e)
{
    double log_theta;
    if (e->raw ? e->s_raw <= 0.0 : e->s_int <= 0)
        return 1;
    log_theta = e->raw ? -((double)e->t) / e->s_raw
                       : -((double)(e->t * e->tau)) / ((double)e->s_int);
    while (e->k > 0 && !(log_bounds[e->k - 1] < log_theta))
        e->k--;
    while (e->k < N_BOUNDS && log_bounds[e->k] < log_theta)
        e->k++;
    return e->k < N_BOUNDS ? e->k + 1 : N_BOUNDS;
}

/* Count a symbol coded with m by its |residual numerator| a >= 0 (the sum
 * saturates), or raw |x - xhat| d; append (m, t, S) to trace if not NULL. */
static int est_add(Est *e, long long a, double d, PyObject *trace, long long m)
{
    PyObject *item;
    int rc;
    e->t++;
    if (e->raw)
        e->s_raw += d;
    else
        e->s_int = a > est_saturation - e->s_int ? est_saturation : e->s_int + a;
    if (trace == NULL)
        return 0;
    item = e->raw ? Py_BuildValue("(LLd)", m, e->t, e->s_raw)
                  : Py_BuildValue("(LLL)", m, e->t, e->s_int);
    rc = item ? PyList_Append(trace, item) : -1;
    Py_XDECREF(item);
    return rc;
}

/* seq[i] of a fast sequence as a C integer into *a, or as a double into *d
 * when a is NULL; IndexError past the end, as Python indexing. */
static int get_item(PyObject *seq, Py_ssize_t i, long long *a, double *d)
{
    PyObject *item;
    if (i >= PySequence_Fast_GET_SIZE(seq)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    item = PySequence_Fast_GET_ITEM(seq, i);
    if (a ? (*a = PyLong_AsLongLong(item)) == -1 : (*d = PyFloat_AsDouble(item)) == -1.0)
        return PyErr_Occurred() ? -1 : 0;
    return 0;
}

/* The output list.  Every codeword takes at least one bit, so a count over
 * the payload's bits fails before it fills more slots than there are bits. */
static PyObject *new_output(Py_ssize_t count, Py_ssize_t nbits)
{
    return PyList_New(count < 0 ? 0 : count < nbits ? count : nbits);
}

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
    PyObject *ms, *seq;
    long long m, max_run, v;
    Writer w = {0};
    Code code;
    Py_ssize_t i, n;
    if (!PyArg_ParseTuple(args, "OLL", &ms, &m, &max_run)
            || code_set(&code, m) < 0
            || (seq = PySequence_Fast(ms, "ms must be a sequence")) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < n; i++)
        if (get_item(seq, i, &v, NULL) < 0 || put_codeword(&w, v, &code, max_run) < 0)
            break;
    Py_DECREF(seq);
    if (i == n)
        return writer_result(&w, NULL);
    PyMem_Free(w.buf);
    return NULL;
}

static PyObject *golomb_decode(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer payload;
    Py_ssize_t count, i;
    long long m, max_run, v;
    PyObject *out = NULL, *item;
    Code code;
    if (!PyArg_ParseTuple(args, "y*nLL", &payload, &count, &m, &max_run))
        return NULL;
    Reader r = {payload.buf, 0, 8 * payload.len};
    if (code_set(&code, m) == 0 && check_max_run(max_run, m, 1) == 0)
        out = new_output(count, r.nbits);
    for (i = 0; out && i < count; i++)
        if ((v = get_codeword(&r, &code, max_run)) < 0
                || (item = PyLong_FromLongLong(v)) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    PyBuffer_Release(&payload);
    return out;
}

static PyObject *adaptive_encode(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *ms, *est_int, *est_raw, *seq = NULL, *inc = NULL;
    PyObject *trace = NULL, *result = NULL;
    long long tau, max_run, m, v, a = 0;
    double d = 0.0;
    int collect;
    Writer w = {0};
    Code code = {0, 0, 0};
    Est e = {0};
    Py_ssize_t i, n = 0;
    if (!PyArg_ParseTuple(args, "OOOLLp", &ms, &est_int, &est_raw, &tau,
                          &max_run, &collect))
        return NULL;
    if ((seq = PySequence_Fast(ms, "ms must be a sequence")) == NULL
            || est_init(&e, tau, est_raw != Py_None) < 0
            || ((n = PySequence_Fast_GET_SIZE(seq))
                && (inc = PySequence_Fast(e.raw ? est_raw : est_int,
                                          "increments must be a sequence")) == NULL)
            || (collect && (trace = PyList_New(0)) == NULL))
        goto done;
    for (i = 0; i < n; i++) {
        m = est_m(&e);
        if ((m != code.m && code_set(&code, m) < 0)
                || get_item(seq, i, &v, NULL) < 0
                || put_codeword(&w, v, &code, max_run) < 0
                || get_item(inc, i, e.raw ? NULL : &a, &d) < 0
                || est_add(&e, a, d, trace, m) < 0)
            goto done;
    }
    result = writer_result(&w, trace ? trace : Py_None);
done:
    PyMem_Free(w.buf);
    Py_XDECREF(seq);
    Py_XDECREF(inc);
    Py_XDECREF(trace);
    return result;
}

static PyObject *adaptive_decode(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer payload;
    Py_ssize_t count, i;
    PyObject *pred_n, *pred_x, *preds = NULL, *raw_preds = NULL;
    PyObject *out = NULL, *trace = NULL, *result = NULL, *item;
    long long tau, max_run, m, v, n, x, d;
    double px = 0.0;
    int raw, collect;
    Code code = {0, 0, 0};
    Est e = {0};
    if (!PyArg_ParseTuple(args, "y*nOOLpLp", &payload, &count, &pred_n, &pred_x,
                          &tau, &raw, &max_run, &collect))
        return NULL;
    Reader r = {payload.buf, 0, 8 * payload.len};
    if (est_init(&e, tau, raw) < 0
            || check_max_run(max_run, N_BOUNDS, tau) < 0
            || (preds = PySequence_Fast(pred_n, "pred_n must be a sequence")) == NULL
            || (raw && (raw_preds = PySequence_Fast(
                    pred_x, "pred_x must be a sequence")) == NULL)
            || (out = new_output(count, r.nbits)) == NULL
            || (collect && (trace = PyList_New(0)) == NULL))
        goto done;
    for (i = 0; i < count; i++) {
        m = est_m(&e);
        if ((m != code.m && code_set(&code, m) < 0)
                || (v = get_codeword(&r, &code, max_run)) < 0
                || get_item(preds, i, &n, NULL) < 0
                || (raw && get_item(raw_preds, i, NULL, &px) < 0))
            goto done;
        if (n <= -VALUE_LIMIT || n >= VALUE_LIMIT) {
            PyErr_SetString(PyExc_ValueError, "prediction numerator out of range");
            goto done;
        }
        x = unfold(v, n, tau);
        if ((item = PyLong_FromLongLong(x)) == NULL)
            goto done;
        PyList_SET_ITEM(out, i, item);
        d = tau * x - n;  /* |d| < 2**61, see check_max_run */
        if (est_add(&e, d < 0 ? -d : d, fabs((double)x - px), trace, m) < 0)
            goto done;
    }
    result = Py_BuildValue("(OO)", out, trace ? trace : Py_None);
done:
    PyBuffer_Release(&payload);
    Py_XDECREF(preds);
    Py_XDECREF(raw_preds);
    Py_XDECREF(out);
    Py_XDECREF(trace);
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

/* Copy frgc._estcore.LOG_BOUNDARIES into log_bounds; it must have N_BOUNDS entries. */
static int load_bounds(void)
{
    PyObject *table = import_attr("frgc._estcore", "LOG_BOUNDARIES"), *seq;
    Py_ssize_t i;
    if (table == NULL)
        return -1;
    seq = PySequence_Fast(table, "LOG_BOUNDARIES must be a sequence");
    Py_DECREF(table);
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != N_BOUNDS)
        PyErr_Format(PyExc_ImportError, "LOG_BOUNDARIES must have %d entries, got %zd",
                     N_BOUNDS, PySequence_Fast_GET_SIZE(seq));
    for (i = 0; i < N_BOUNDS && !PyErr_Occurred(); i++)
        log_bounds[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
    Py_DECREF(seq);
    return PyErr_Occurred() ? -1 : 0;
}

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *mod, *sat = import_attr("frgc._estcore", "EST_SATURATION");
    if (sat == NULL)
        return NULL;
    est_saturation = PyLong_AsLongLong(sat);
    Py_DECREF(sat);
    CorruptStreamError = PyErr_Occurred() || load_bounds() < 0 ? NULL
                         : import_attr("frgc.bitcoder", "CorruptStreamError");
    if (CorruptStreamError == NULL || (mod = PyModule_Create(&module)) == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}

# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled stream loops; bit-identical to frgc._pure (see its contract).

The estimator accumulator is an int64 saturated at the shared constant so
it can never overflow.  m is chosen as in _estcore.select_m: ln theta,
computed with the same two-cast double expression as the pure code, is
bisected against the ascending log-boundaries, with no libm call.
"""

from cpython.bytes cimport PyBytes_FromStringAndSize
from cpython.mem cimport PyMem_Free, PyMem_Malloc, PyMem_Realloc
from libc.math cimport INFINITY, fabs

from frgc import _estcore
from frgc.bitcoder import CorruptStreamError

BACKEND_NAME = "compiled"

cdef long long SAT = _estcore.EST_SATURATION


cdef inline long long _fdiv(long long a, long long b):
    # floor division (C / truncates toward zero)
    cdef long long q = a / b
    if a % b != 0 and (a ^ b) < 0:
        q -= 1
    return q


cdef class _Writer:
    cdef unsigned char* buf
    cdef Py_ssize_t cap
    cdef Py_ssize_t n
    cdef unsigned long long acc
    cdef int nacc  # bits currently in acc (0..7 between calls)
    cdef long long total

    def __cinit__(self):
        self.cap = 1024
        self.buf = <unsigned char*> PyMem_Malloc(self.cap)
        if self.buf == NULL:
            raise MemoryError()
        self.n = 0
        self.acc = 0
        self.nacc = 0
        self.total = 0

    def __dealloc__(self):
        if self.buf != NULL:
            PyMem_Free(self.buf)

    cdef int _ensure(self, Py_ssize_t extra) except -1:
        cdef Py_ssize_t need = self.n + extra
        cdef Py_ssize_t cap = self.cap
        cdef unsigned char* nb
        if need <= cap:
            return 0
        while cap < need:
            cap <<= 1
        nb = <unsigned char*> PyMem_Realloc(self.buf, cap)
        if nb == NULL:
            raise MemoryError()
        self.buf = nb
        self.cap = cap
        return 0

    cdef int put(self, unsigned long long value, int nbits) except -1:
        # nbits <= 33, so acc never holds more than 40 bits
        self.acc = (self.acc << nbits) | value
        self.nacc += nbits
        self.total += nbits
        self._ensure(self.nacc >> 3)
        while self.nacc >= 8:
            self.nacc -= 8
            self.buf[self.n] = <unsigned char> ((self.acc >> self.nacc) & 0xFF)
            self.n += 1
        self.acc &= (<unsigned long long> 1 << self.nacc) - 1
        return 0

    cdef int put_unary(self, long long j) except -1:
        while j >= 32:
            self.put(<unsigned long long> 0xFFFFFFFF, 32)
            j -= 32
        self.put(((<unsigned long long> 1 << j) - 1) << 1, <int> (j + 1))
        return 0

    cdef bytes finish(self):
        if self.nacc:
            self._ensure(1)
            self.buf[self.n] = <unsigned char> ((self.acc << (8 - self.nacc)) & 0xFF)
            self.n += 1
            self.acc = 0
            self.nacc = 0
        return PyBytes_FromStringAndSize(<char*> self.buf, self.n)


cdef long long _read_unary(const unsigned char* data, Py_ssize_t* ppos,
                           Py_ssize_t nbits, long long max_run) except -1:
    cdef Py_ssize_t pos = ppos[0]
    cdef long long count = 0
    while True:
        if pos >= nbits:
            raise CorruptStreamError("unexpected end of stream")
        if (pos & 7) == 0:
            while pos + 8 <= nbits and data[pos >> 3] == 0xFF:
                pos += 8
                count += 8
                if count > max_run:
                    raise CorruptStreamError(f"unary run exceeds {max_run} bits")
            if pos >= nbits:
                raise CorruptStreamError("unexpected end of stream")
        if (data[pos >> 3] >> (7 - (pos & 7))) & 1:
            pos += 1
            count += 1
            if count > max_run:
                raise CorruptStreamError(f"unary run exceeds {max_run} bits")
        else:
            pos += 1
            break
    ppos[0] = pos
    return count


cdef long long _read_bits(const unsigned char* data, Py_ssize_t* ppos,
                          Py_ssize_t nbits, int n) except -1:
    cdef Py_ssize_t pos = ppos[0]
    cdef long long result = 0
    cdef int avail, take
    if pos + n > nbits:
        raise CorruptStreamError("unexpected end of stream")
    while n > 0:
        avail = 8 - <int> (pos & 7)
        take = avail if avail < n else n
        result = (result << take) | \
            ((data[pos >> 3] >> (avail - take)) & ((1 << take) - 1))
        pos += take
        n -= take
    ppos[0] = pos
    return result


cdef long long _read_minbin(const unsigned char* data, Py_ssize_t* ppos,
                            Py_ssize_t nbits, int b, long long u) except -1:
    cdef long long v
    if b == 0:
        return 0
    v = _read_bits(data, ppos, nbits, b - 1)
    if v < u:
        return v
    return ((v << 1) | _read_bits(data, ppos, nbits, 1)) - u


cdef inline int _ceil_lg(long long m):
    cdef int b = 0
    while (<long long> 1 << b) < m:
        b += 1
    return b


def golomb_encode(ms, long long m):
    cdef list values = ms if type(ms) is list else list(ms)
    cdef _Writer w = _Writer()
    cdef int b = _ceil_lg(m)
    cdef long long u = (<long long> 1 << b) - m
    cdef Py_ssize_t i, n = len(values)
    cdef long long mv, j, k
    if m < 1:
        raise ValueError(f"golomb parameter must be >= 1, got {m}")
    for i in range(n):
        mv = values[i]
        if mv < 0:
            raise ValueError(f"mapped residual must be non-negative, got {mv}")
        j = mv / m
        k = mv - j * m
        w.put_unary(j)
        if b:
            if k < u:
                w.put(<unsigned long long> k, b - 1)
            else:
                w.put(<unsigned long long> (k + u), b)
    return w.finish(), w.total


def golomb_decode(bytes payload, Py_ssize_t count, long long m, long long max_run):
    cdef const unsigned char* d = payload
    cdef Py_ssize_t nbits = 8 * len(payload)
    cdef Py_ssize_t pos = 0
    cdef int b = _ceil_lg(m)
    cdef long long u = (<long long> 1 << b) - m
    cdef list out = []
    cdef Py_ssize_t i
    cdef long long j, k
    if m < 1:
        raise ValueError(f"golomb parameter must be >= 1, got {m}")
    for i in range(count):
        j = _read_unary(d, &pos, nbits, max_run)
        k = _read_minbin(d, &pos, nbits, b, u)
        out.append(j * m + k)
    return out


cdef inline double _theta_rounded(long long t, long long s_int, long long tau):
    # ln theta; -inf (so m = 1) while the residual sum is 0
    if s_int <= 0:
        return -INFINITY
    return -(<double> (t * tau)) / (<double> s_int)


cdef inline double _theta_raw(long long t, double s_raw):
    if s_raw <= 0.0:
        return -INFINITY
    return -(<double> t) / s_raw


cdef inline long long _select(double theta, const double* bnd, Py_ssize_t nb):
    # bisect_left, in lockstep with _estcore.select_m
    cdef Py_ssize_t lo = 0, hi = nb, mid
    while lo < hi:
        mid = (lo + hi) >> 1
        if bnd[mid] < theta:
            lo = mid + 1
        else:
            hi = mid
    return lo + 1 if lo < nb else nb


cdef double* _copy_bounds(boundaries, Py_ssize_t* pnb) except NULL:
    cdef Py_ssize_t nb = len(boundaries)
    cdef double* bnd = <double*> PyMem_Malloc(nb * sizeof(double))
    cdef Py_ssize_t i
    if bnd == NULL:
        raise MemoryError()
    for i in range(nb):
        bnd[i] = boundaries[i]
    pnb[0] = nb
    return bnd


def adaptive_encode(ms, est_int, est_raw, long long tau, boundaries,
                    bint collect_trace):
    cdef list values = ms if type(ms) is list else list(ms)
    cdef bint raw = est_raw is not None
    cdef list inc_int = None
    cdef list inc_raw = None
    cdef Py_ssize_t nb = 0
    cdef double* bnd = _copy_bounds(boundaries, &nb)
    cdef _Writer w = _Writer()
    cdef list trace = [] if collect_trace else None
    cdef Py_ssize_t i, n = len(values)
    cdef long long t = 0, s_int = 0, m, mv, j, k, u
    cdef double s_raw = 0.0
    cdef int b
    if raw:
        inc_raw = est_raw if type(est_raw) is list else list(est_raw)
    else:
        inc_int = est_int if type(est_int) is list else list(est_int)
    try:
        for i in range(n):
            if t == 0:
                m = 1
            elif raw:
                m = _select(_theta_raw(t, s_raw), bnd, nb)
            else:
                m = _select(_theta_rounded(t, s_int, tau), bnd, nb)
            b = _ceil_lg(m)
            u = (<long long> 1 << b) - m
            mv = values[i]
            if mv < 0:
                raise ValueError(f"mapped residual must be non-negative, got {mv}")
            j = mv / m
            k = mv - j * m
            w.put_unary(j)
            if b:
                if k < u:
                    w.put(<unsigned long long> k, b - 1)
                else:
                    w.put(<unsigned long long> (k + u), b)
            t += 1
            if raw:
                s_raw += <double> inc_raw[i]
            else:
                s_int += <long long> inc_int[i]
                if s_int > SAT:
                    s_int = SAT
            if collect_trace:
                if raw:
                    trace.append((m, t, s_raw))
                else:
                    trace.append((m, t, s_int))
        return w.finish(), w.total, trace
    finally:
        PyMem_Free(bnd)


def adaptive_decode(bytes payload, Py_ssize_t count, pred_n, pred_x,
                    long long rho, long long tau, boundaries,
                    bint raw_estimator, long long max_run, bint collect_trace):
    cdef const unsigned char* d = payload
    cdef Py_ssize_t nbits = 8 * len(payload)
    cdef Py_ssize_t pos = 0
    cdef list preds_n = pred_n if type(pred_n) is list else list(pred_n)
    cdef list preds_x = None
    cdef Py_ssize_t nb = 0
    cdef double* bnd = _copy_bounds(boundaries, &nb)
    cdef list out = []
    cdef list trace = [] if collect_trace else None
    cdef Py_ssize_t i
    cdef long long t = 0, s_int = 0, m, mv, j, k, u, n_num, c, s, x, r
    cdef double s_raw = 0.0
    cdef int b
    if raw_estimator:
        preds_x = pred_x if type(pred_x) is list else list(pred_x)
    try:
        for i in range(count):
            if t == 0:
                m = 1
            elif raw_estimator:
                m = _select(_theta_raw(t, s_raw), bnd, nb)
            else:
                m = _select(_theta_rounded(t, s_int, tau), bnd, nb)
            b = _ceil_lg(m)
            u = (<long long> 1 << b) - m
            j = _read_unary(d, &pos, nbits, max_run)
            k = _read_minbin(d, &pos, nbits, b, u)
            mv = j * m + k
            n_num = preds_n[i]
            c = -_fdiv(-2 * n_num, tau)
            s = mv + c
            if (s & 1) == 0:
                x = s >> 1
            else:
                x = (c - mv - 1) >> 1
            out.append(x)
            t += 1
            if raw_estimator:
                s_raw += fabs((<double> x) - (<double> preds_x[i]))
            else:
                r = tau * x - n_num
                s_int += r if r >= 0 else -r
                if s_int > SAT:
                    s_int = SAT
            if collect_trace:
                if raw_estimator:
                    trace.append((m, t, s_raw))
                else:
                    trace.append((m, t, s_int))
        return out, trace
    finally:
        PyMem_Free(bnd)

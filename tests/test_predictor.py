"""Windowed least-squares predictor: sliding exact sums against oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import codec, predictor
from frgc.predictor import (
    LpcConfig,
    identity_coefficients,
    predict_at,
)

from lpcloop import LoopState, loop_predictions


def sse(history, coeffs, cfg, t):
    total = 0.0
    for i in range(1, cfg.window + 1):
        err = history[t - i] - predict_at(history, coeffs, t - i)
        total += err * err
    return total


def fit_history(history, cfg, previous=None):
    """Coefficients LpcState fits after pushing all of history, where a
    refit falls after it and the coefficients before were previous."""
    state = LoopState(cfg)
    for x in history:
        state.push(x)
    state.coeffs = previous
    state._next_fit = len(history)
    return state.span()[0]


# --- oracles: the normal equations summed from scratch at every refit -------

def float_fit(history, cfg, t, previous):
    """O(window * order**2) float sums over the history, as frgc once did."""
    order = cfg.order
    a = [[0.0] * order for _ in range(order)]
    b = [0.0] * order
    for i in range(1, cfg.window + 1):
        target = float(history[t - i])
        base = t - i - 1
        for j in range(order):
            xj = float(history[base - j])
            b[j] += target * xj
            for l in range(j, order):
                a[j][l] += xj * float(history[base - l])
    for j in range(order):
        for l in range(j):
            a[j][l] = a[l][j]
    return solved(a, b, previous, order)


def exact_fit(history, cfg, t, previous):
    """The same normal equations summed in Python integers."""
    order = cfg.order
    b = [0] * order
    a = [[0] * order for _ in range(order)]
    for i in range(1, cfg.window + 1):
        base = t - i - 1
        for j in range(order):
            b[j] += history[t - i] * history[base - j]
            for l in range(order):
                a[j][l] += history[base - j] * history[base - l]
    return solved([[float(v) for v in row] for row in a],
                  [float(v) for v in b], previous, order)


def solved(a, b, previous, order):
    coeffs = predictor._solve(a, b)
    if coeffs is None:
        return list(previous) if previous is not None else identity_coefficients(order)
    return coeffs


def oracle_run(xs, cfg, fit_fn):
    """(predictions, coefficients after each refit) by the LPC schedule."""
    preds, fits, coeffs = [], [], None
    for t in range(len(xs)):
        if t == 0:
            preds.append(0.0)
            continue
        if t < cfg.warmup:
            preds.append(float(xs[t - 1]))
            continue
        if (t - cfg.warmup) % cfg.refit_interval == 0:
            coeffs = fit_fn(xs, cfg, t, coeffs)
            fits.append((t, coeffs))
        s = 0.0
        for j, c in enumerate(coeffs):
            s += c * xs[t - 1 - j]
        preds.append(s)
    return preds, fits


def state_run(xs, cfg):
    preds, fits, state = [], [], LoopState(cfg)
    for t, x in enumerate(xs):
        before = state.coeffs
        preds.append(state.predict())
        if state.coeffs is not before:
            fits.append((t, state.coeffs))
        state.push(x)
    return preds, fits


@pytest.mark.parametrize("cfg", [
    LpcConfig(2, 32, 1),     # refit every symbol
    LpcConfig(1, 1, 1),      # one-sample window
    LpcConfig(3, 1, 2),
    LpcConfig(8, 3, 5),      # window shorter than the order: singular
    LpcConfig(8, 256, 64),
    LpcConfig(16, 40, 7),
    LpcConfig(255, 4, 60),   # deep history behind a short window
], ids=str)
def test_sliding_sums_bit_equal_to_float_oracle_on_16_bit_input(cfg):
    # Products and window sums of 16-bit samples are exact in a double, so
    # the float oracle sums exactly too and everything must match bit for bit.
    rng = np.random.default_rng(cfg.order * 1000 + cfg.window)
    n = cfg.warmup + 3 * cfg.refit_interval + 5
    walk = np.cumsum(rng.integers(-900, 901, size=n))
    xs = np.clip(walk, -(1 << 15), 1 << 15).tolist()
    want_preds, want_fits = oracle_run(xs, cfg, float_fit)
    got_preds, got_fits = state_run(xs, cfg)
    assert [t for t, _ in got_fits] == [t for t, _ in want_fits]
    assert got_fits == want_fits
    assert got_preds == want_preds


@given(order=st.integers(1, 6), window=st.integers(1, 24),
       refit=st.integers(1, 7), data=st.data())
@settings(max_examples=60, deadline=None)
def test_sliding_sums_match_exact_oracle_on_32_bit_input(order, window, refit, data):
    # Window sums of 32-bit products reach far past 2**53, where float sums
    # depend on their order; the integer sums must still equal a from-scratch
    # integer sum at every refit.
    cfg = LpcConfig(order, window, refit)
    xs = data.draw(st.lists(st.integers(-(1 << 31), (1 << 31) - 1),
                            min_size=cfg.warmup, max_size=cfg.warmup + 40))
    want_preds, want_fits = oracle_run(xs, cfg, exact_fit)
    got_preds, got_fits = state_run(xs, cfg)
    assert got_fits == want_fits
    assert got_preds == want_preds


# --- LpcState._jump on both sides of its int64 rule ------------------------

def edge_histories(gap, n, seed):
    """{name: n symbols} whose largest |x| puts gap * peak**2 at the
    largest product below 2**62 that gap allows (_jump sums in int64), and
    at the smallest one from 2**62 on (on Python integers; 2**62 itself
    where gap is a power of 4), and 32-bit noise.  Half the symbols are
    +-peak, so each stretch a jump reads holds it."""
    rng = np.random.default_rng(seed)
    below = math.isqrt(((1 << 62) - 1) // gap)
    out = {}
    for name, peak in (("int64", below), ("object", below + 1)):
        xs = rng.integers(-peak, peak + 1, n)
        edge = rng.random(n) < 0.5
        xs[edge] = rng.choice([-peak, peak], int(edge.sum()))
        out[name] = xs.tolist()
    out["noise"] = rng.integers(-(1 << 31), 1 << 31, n).tolist()
    return out


@pytest.fixture(params=["int64", "int32"])
def default_integer(request, monkeypatch):
    """numpy's default integer: 64-bit, or 32-bit as on Windows with numpy
    1.x, where a list of ints that all fit int32, made an array without a
    dtype, is int32."""
    if request.param == "int32":
        array = np.array

        def int32_default(obj, *args, **kwargs):
            if (not args and "dtype" not in kwargs and isinstance(obj, list)
                    and all(-(1 << 31) <= v < 1 << 31 for v in obj)):
                kwargs["dtype"] = np.int32
            return array(obj, *args, **kwargs)

        monkeypatch.setattr(np, "array", int32_default)
    return request.param


@pytest.mark.parametrize("cfg", [
    LpcConfig(2, 16, 16), LpcConfig(4, 64, 32), LpcConfig(8, 256, 256),
    LpcConfig(2, 32, 1), LpcConfig(32, 300, 1), LpcConfig(255, 4, 60),
], ids=str)
def test_jumps_match_exact_sums_across_the_int64_rule(cfg, default_integer, monkeypatch):
    # a refit that follows the one before by gap + order + 1 positions
    # crosses gap of them in one jump; the coefficients must be those of
    # the normal equations summed from scratch, whichever dtype it took
    # and whatever numpy's default integer
    dtypes = []
    correlate = np.correlate
    monkeypatch.setattr(np, "correlate", lambda a, v: dtypes.append(a.dtype) or correlate(a, v))
    order = cfg.order
    gaps = [order + 2, cfg.window + 5]
    if cfg.refit_interval > order + 1:
        gaps.append(cfg.refit_interval - order - 1)  # the gap of the schedule
    for gap in gaps:
        at = [cfg.warmup, cfg.warmup + gap + order + 1]
        for name, xs in edge_histories(gap, at[-1], gap).items():
            state = LoopState(cfg)
            for t in at:
                while len(state.history) - state._pad < t:
                    state.push(xs[len(state.history) - state._pad])
                want = exact_fit(xs, cfg, t, state.coeffs)
                state._next_fit = t
                dtypes.clear()
                assert state.span()[0] == want, (gap, name, t)
            dtype = np.dtype(np.int64 if name == "int64" else object)
            assert dtypes == [dtype, dtype], (gap, name)


# --- config -----------------------------------------------------------------

def test_config_validation():
    LpcConfig(1, 1, 1)
    LpcConfig(255, 65535, 65535)
    for bad in ((0, 8, 8), (256, 8, 8), (2, 0, 8), (2, 8, 0), (2, 65536, 8)):
        with pytest.raises(ValueError):
            LpcConfig(*bad)


def test_warmup():
    assert LpcConfig(2, 16, 16).warmup == 18
    assert LpcConfig(4, 32, 8).warmup == 36


def test_identity_coefficients():
    assert identity_coefficients(1) == [1.0]
    assert identity_coefficients(3) == [1.0, 0.0, 0.0]


# --- prediction -------------------------------------------------------------

def test_predict_examples():
    assert predict_at([2, 9, 5], [1.0], 3) == 5.0
    assert predict_at([1, 2, 3, 4], [2.0, -1.0], 4) == pytest.approx(5.0)
    assert predict_at([3, 7], [0.5], 2) == pytest.approx(3.5)


def test_predict_at_indexes_history():
    history = [10, 20, 30, 40]
    assert predict_at(history, [1.0], 2) == 20.0
    assert predict_at(history, [0.0, 1.0], 3) == 20.0
    with pytest.raises(ValueError):
        predict_at(history, [1.0, 0.0], 1)


def test_state_warms_up_on_the_previous_sample():
    state = LoopState(LpcConfig(2, 3, 4))
    assert state.predict() == 0.0
    for x in (7, -2, 5, 9):
        state.push(x)
        assert state.predict() == float(x)
        assert state.coeffs is None
    state.push(4)  # fifth sample: the first full window
    state.predict()
    assert state.coeffs is not None


# --- fitting ----------------------------------------------------------------

def test_constant_history_fits_identity_like():
    cfg = LpcConfig(1, 8, 8)
    history = [5] * 16
    coeffs = fit_history(history, cfg)
    assert coeffs == pytest.approx([1.0], abs=1e-9)


def test_ramp_fits_second_order_recurrence():
    # x_t = 2 x_{t-1} - x_{t-2} holds exactly on a ramp
    cfg = LpcConfig(2, 16, 16)
    history = list(range(1, 40))
    coeffs = fit_history(history, cfg)
    assert coeffs == pytest.approx([2.0, -1.0], abs=1e-8)
    assert predict_at(history, coeffs, len(history)) == pytest.approx(history[-1] + 1,
                                                                      abs=1e-6)


def test_all_zero_window_is_singular():
    cfg = LpcConfig(2, 8, 8)
    history = [0] * 16
    assert fit_history(history, cfg) == identity_coefficients(2)
    assert fit_history(history, cfg, previous=[0.25, 0.5]) == [0.25, 0.5]


def test_fit_requires_enough_history():
    # the first fit waits for a full window: order + window samples
    cfg = LpcConfig(2, 8, 8)
    state = LoopState(cfg)
    for x in [1] * 9:
        state.push(x)
    assert state.predict() == 1.0 and state.coeffs is None
    state.push(1)
    state.predict()
    assert state.coeffs == pytest.approx([1.0, 0.0], abs=1e-9)
    assert fit_history([1] * 10, cfg) == state.coeffs


def test_exact_recurrence_recovered():
    # x_t = x_{t-1} - x_{t-2} cycles with period 6 and fits with zero error
    xs = [1, 5]
    for _ in range(40):
        xs.append(xs[-1] - xs[-2])
    cfg = LpcConfig(2, 18, 18)
    coeffs = fit_history(xs, cfg)
    assert coeffs == pytest.approx([1.0, -1.0], abs=1e-9)
    assert predict_at(xs, coeffs, len(xs)) == pytest.approx(xs[-1] - xs[-2], abs=1e-9)


def test_fit_is_local_minimum():
    rng = np.random.default_rng(17)
    history = [int(v) for v in rng.integers(-50, 50, size=40)]
    cfg = LpcConfig(3, 20, 20)
    t = len(history)
    coeffs = fit_history(history[:t], cfg)
    base = sse(history, coeffs, cfg, t)
    for j in range(cfg.order):
        for d in (-1e-3, 1e-3):
            tweaked = list(coeffs)
            tweaked[j] += d
            assert sse(history, tweaked, cfg, t) >= base - 1e-9


def test_fit_deterministic():
    rng = np.random.default_rng(23)
    history = [int(v) for v in rng.integers(0, 1000, size=64)]
    cfg = LpcConfig(4, 32, 8)
    a = fit_history(history, cfg)
    b = fit_history(history, cfg)
    assert a == b


def test_fit_uses_only_window():
    # samples before the window must not influence the coefficients
    rng = np.random.default_rng(31)
    tail = [int(v) for v in rng.integers(-100, 100, size=24)]
    cfg = LpcConfig(2, 16, 16)
    # the sliding sums must drop them exactly, not merely approximately
    a = fit_history([999999, -999999] + tail, cfg)
    b = fit_history([0, 0] + tail, cfg)
    assert a == b
    assert a == float_fit([0, 0] + tail, cfg, 26, None)


# --- _solve against the elimination it replaced ------------------------------

def oracle_solve(a, b):
    """predictor._solve before its pivot search and row updates were
    rewritten; the coefficients of a stream must not change by one bit."""
    n = len(b)
    scale = max((abs(v) for row in a for v in row), default=0.0)
    tol = 1e-10 * max(1.0, scale)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) <= tol:
            return None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f != 0.0:
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    out = [0.0] * n
    for col in range(n - 1, -1, -1):
        s = m[col][n]
        for c in range(col + 1, n):
            s -= m[col][c] * out[c]
        out[col] = s / m[col][col]
    return out


def solve_bits(solve, a, b):
    """solve's result as float.hex strings, or None; the inputs stay as given."""
    a_before, b_before = [row[:] for row in a], b[:]
    out = solve(a, b)
    assert a == a_before and b == b_before
    return None if out is None else [float.hex(v) for v in out]


def stacked_bits(systems):
    """predictor._solve_stacked on every (a, b) of systems in one stack, as
    solve_bits gives each: None where the stack says singular."""
    count, n = len(systems), len(systems[0][1])
    a = np.array([a for a, _ in systems], dtype=np.float64).reshape(count, n, n)
    b = np.array([b for _, b in systems], dtype=np.float64).reshape(count, n)
    out, singular = predictor._solve_stacked(a, b)
    return [None if bad else [float.hex(v) for v in row]
            for row, bad in zip(out.tolist(), singular)]


def stacked_solve(a, b):
    """predictor._solve_stacked on a stack of one, None where singular."""
    got = stacked_bits([(a, b)])[0]
    return None if got is None else [float.fromhex(v) for v in got]


def unrolled_solve(a, b):
    """predictor._solve2, the unrolled 2x2 solve that fit uses at order 2."""
    (a00, a01), (a10, a11) = a
    return predictor._solve2(a00, a01, a10, a11, *b)


def assert_solves_alike(a, b):
    got = solve_bits(predictor._solve, a, b)
    assert got == solve_bits(oracle_solve, a, b)
    assert got == solve_bits(stacked_solve, a, b)
    if len(b) == 2:
        assert got == solve_bits(unrolled_solve, a, b)
    return got


@pytest.mark.parametrize("order", range(1, 9))
def test_solve_bit_identical_on_random_symmetric_matrices(order):
    rng = np.random.default_rng(order)
    systems, want = [], []
    for _ in range(60):
        # normal equations of integer samples, as fit builds them
        x = rng.integers(-(1 << 15), 1 << 15, (order + 20, order))
        a = (x.T @ x).astype(float).tolist()
        b = rng.integers(-(1 << 40), 1 << 40, order).astype(float).tolist()
        systems.append((a, b))
        want.append(assert_solves_alike(a, b))
        assert want[-1] is not None
        # symmetric but indefinite, so rows are swapped all through
        g = rng.standard_normal((order, order)) * 10.0 ** rng.integers(-3, 4)
        a = (g + g.T).tolist()
        systems.append((a, rng.standard_normal(order).tolist()))
        want.append(assert_solves_alike(*systems[-1]))
    # singular systems among them, each pivoting on its own rows
    systems[5:5] = [([[0.0] * order] * order, [1.0] * order),
                    ([[1.0] * order] * order, [2.0] * order)]
    want[5:5] = [assert_solves_alike(a, b) for a, b in systems[5:7]]
    assert want[5] is None and (want[6] is None) == (order > 1)
    assert stacked_bits(systems) == want


def test_solve_bit_identical_on_row_swaps_and_pivot_ties():
    cases = [
        ([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0]),  # swap at the first column
        ([[4.0, 4.0], [4.0, 7.0]], [-2.0, 5.0]),  # a tie: the first row stays
        ([[1.0, 2.0, 3.0], [3.0, 1.0, 0.0], [-3.0, 5.0, 1.0]], [1.0, 2.0, 3.0]),
        ([[0.0, 1.0, 1.0], [2.0, 2.0, 1.0], [2.0, 1.0, 3.0]], [3.0, 1.0, 4.0]),
        ([[0.0, 4.0], [4.0, 0.0]], [1.0, -1.0]),  # a zero pivot swaps
        ([[5.0, 5.0, 5.0], [5.0, 6.0, 7.0], [5.0, 7.0, 9.5]], [1.0, 0.0, -1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [-1.0, -0.0]),  # a zero factor updates nothing
    ]
    swapped = [assert_solves_alike(a, b) for a, b in cases]
    assert None not in swapped
    # pivoting on the second row of the tie would end in another last bit
    assert swapped[1] == [float.hex(-2.8333333333333335), float.hex(2.3333333333333335)]
    # -0.0 - 0.0 * -1.0 would be +0.0
    assert swapped[-1] == [float.hex(-1.0), float.hex(-0.0)]


def test_solve_refuses_singular_and_near_tol_matrices():
    tol = 1e-10
    for a, b in [
        ([[0.0]], [1.0]),
        ([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]),  # exactly singular
        ([[1.0, 0.0], [0.0, tol]], [1.0, 1.0]),  # a pivot at tol
        ([[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 1.0]], [1.0, 1.0, 1.0]),
        ([[3.0e6, 0.0], [0.0, 3.0e6 * tol]], [1.0, 1.0]),  # tol scales with the matrix
        ([[1e-11, 0.0], [0.0, 1e-11]], [1.0, 1.0]),  # but is never below 1e-10
    ]:
        assert assert_solves_alike(a, b) is None
    above = np.nextafter(tol, 1.0)
    assert assert_solves_alike([[1.0, 0.0], [0.0, above]], [1.0, 1.0]) is not None
    # tol scales with the matrix, not with b
    assert assert_solves_alike([[1.0, 0.0], [0.0, 1e-9]], [1e3, 1.0]) is not None
    assert assert_solves_alike([], []) == []


# --- batch_predictions against the LpcState loop ------------------------------

def assert_batch_matches_loop(xs, cfg):
    xs = np.asarray(xs, dtype=np.int64)
    got = predictor.batch_predictions(xs, cfg)
    want = loop_predictions(xs, cfg)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def walk(seed, n, step=900):
    rng = np.random.default_rng(seed)
    return np.clip(np.cumsum(rng.integers(-step, step + 1, n)), -(1 << 15), 1 << 15)


@pytest.fixture(params=["default", "one fit"])
def blocks(request, monkeypatch):
    """Blocks as batch_predictions sizes them, or of a single fit each."""
    if request.param == "one fit":
        monkeypatch.setattr(predictor, "_BLOCK_BYTES", 1)
    return request.param


@pytest.mark.parametrize("order", range(1, 33))
def test_batch_matches_loop_at_window_1(order, blocks):
    n = order + 70
    for refit in (1, 3, n + 7):  # one-fit blocks are shorter than 3
        cfg = LpcConfig(order, 1, refit)
        assert (predictor._block_span(cfg, np.int64) < refit) == (blocks == "one fit" and refit > 1)
        assert_batch_matches_loop(walk(order, n), cfg)


@pytest.mark.parametrize("cfg", [
    LpcConfig(1, 1, 1), LpcConfig(2, 16, 16), LpcConfig(4, 64, 32),
    LpcConfig(8, 3, 5), LpcConfig(3, 40, 1000),
], ids=str)
def test_batch_matches_loop_around_warmup(cfg, blocks):
    for n in (0, 1, cfg.warmup - 1, cfg.warmup, cfg.warmup + 1, cfg.warmup + 40):
        assert_batch_matches_loop(walk(n, n), cfg)


def test_batch_fits_on_a_blocks_last_position(monkeypatch):
    monkeypatch.setattr(predictor, "_BLOCK_BYTES", 48)  # one 2x2 system
    cfg = LpcConfig(2, 3, 2)
    span = predictor._block_span(cfg, np.int64)
    assert span == 2  # blocks [0, 2), [2, 4), ...: fits at 5, 7, ... end one
    assert all((t + 1) % span == 0 for t in range(cfg.warmup, 60, cfg.refit_interval))
    assert_batch_matches_loop(walk(5, 60), cfg)


def test_batch_keeps_coefficients_through_all_zero_windows(blocks):
    # zeros before the first fit (the identity), then a signal (good fits),
    # then zeros for many windows and blocks (singular: the last good fit)
    cfg = LpcConfig(3, 8, 2)
    xs = np.concatenate((np.zeros(30, dtype=np.int64), walk(9, 40),
                         np.zeros(700, dtype=np.int64), walk(10, 30)))
    assert_batch_matches_loop(xs, cfg)
    state = LoopState(cfg)
    for x in xs[:cfg.warmup].tolist():
        state.push(x)
    assert state.span()[0] == identity_coefficients(3)


@given(order=st.integers(1, 10), window=st.integers(1, 40),
       refit=st.integers(1, 60), n=st.integers(0, 400),
       bits=st.sampled_from([3, 16, 24, 32, 40]),
       seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 2048, 1 << 20]))
@settings(max_examples=120, deadline=None)
def test_batch_matches_loop_on_random_configs(order, window, refit, n, bits, seed, block):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), n)
    xs[rng.random(n) < 0.3] = 0
    old = predictor._BLOCK_BYTES
    predictor._BLOCK_BYTES = block
    try:
        assert_batch_matches_loop(xs, LpcConfig(order, window, refit))
    finally:
        predictor._BLOCK_BYTES = old


def test_int64_rule_at_its_edge():
    top = 3037000499  # the largest x with x*x < 2**63
    assert top * top < 1 << 63 <= (top + 1) ** 2
    assert predictor.sums_fit_int64(np.array([top, -top]), 1)
    assert not predictor.sums_fit_int64(np.array([top + 1]), 1)
    assert not predictor.sums_fit_int64(np.array([-top - 1]), 1)
    assert predictor.sums_fit_int64(np.array([(1 << 31) - 1]), 2)
    assert not predictor.sums_fit_int64(np.array([-(1 << 31)]), 2)
    assert predictor.sums_fit_int64(np.array([1 << 23]), 65535)
    assert predictor.sums_fit_int64(np.array([], dtype=np.int64), 65535)
    # just inside the rule, products and their differences wrap int64 on
    # the way, and the sums still come out exact
    rng = np.random.default_rng(4)
    assert_batch_matches_loop(rng.choice([-top, top, 0, 1], 300), LpcConfig(3, 1, 1))
    assert_batch_matches_loop(rng.integers(-top, top + 1, 300), LpcConfig(5, 1, 3))
    assert_batch_matches_loop(rng.integers(-(1 << 31) + 1, 1 << 31, 300),
                              LpcConfig(2, 2, 1))


def test_32_bit_input_past_the_int64_rule_matches_exact_sums():
    # past the rule the window sums are Python integers; the predictions
    # are still those of the normal equations summed from scratch
    rng = np.random.default_rng(6)
    xs = rng.choice([-(1 << 31), (1 << 31) - 1, 0, 5], 200)
    for cfg in (LpcConfig(2, 2, 1), LpcConfig(3, 16, 4)):
        assert not predictor.sums_fit_int64(xs, cfg.window)
        got = codec._lpc_predictions(xs, cfg)
        want = np.array(oracle_run(xs.tolist(), cfg, exact_fit)[0])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert_batch_matches_loop(xs, cfg)


def peak_beyond_output(xs, cfg):
    """tracemalloc peak of _lpc_predictions, less its output array."""
    tracemalloc.start()
    try:
        out = codec._lpc_predictions(xs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


@pytest.mark.parametrize("nblocks, window", [(8, 1024), (16, 1024), (8, 2048), (16, 2048)])
def test_batch_memory_does_not_grow_with_length_or_window(nblocks, window):
    # An unblocked stack of order-32 normal equations takes 8.4 KB per fit,
    # 8 to 17 MB at these lengths.
    cfg = LpcConfig(32, window, 1)
    n = cfg.warmup + nblocks * predictor._block_span(cfg, np.int64)
    assert peak_beyond_output(walk(window, n).astype(np.int64), cfg) < 6 << 20


def test_batch_memory_on_32_bit_input_past_the_int64_rule():
    # the same bound where the window sums are Python integers
    cfg = LpcConfig(32, 2048, 1)
    n = cfg.warmup + 8 * predictor._block_span(cfg, np.int64)
    xs = np.random.default_rng(7).integers(-(1 << 31), 1 << 31, n)
    assert not predictor.sums_fit_int64(xs, cfg.window)
    assert peak_beyond_output(xs, cfg) < 6 << 20


def test_batch_memory_on_python_ints_stays_near_the_int64_paths():
    # the Python-int path sizes its blocks by what an entry takes there,
    # the int object beside its pointer; at 8 bytes an entry it peaks at
    # 3.5x the int64 path's working memory at this config
    cfg = LpcConfig(32, 2048, 4096)
    n = cfg.warmup + predictor._block_span(cfg, np.int64)
    rng = np.random.default_rng(7)
    narrow = rng.integers(-(1 << 15), 1 << 15, n)
    wide = rng.integers(-(1 << 31), 1 << 31, n)
    assert predictor.sums_fit_int64(narrow, cfg.window)
    assert not predictor.sums_fit_int64(wide, cfg.window)
    assert peak_beyond_output(wide, cfg) < 1.5 * peak_beyond_output(narrow, cfg)

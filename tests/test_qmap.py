"""Exact-integer residual quantization and fold mapping: qmap's rounding,
and the scalar equations of tests/scalarfold.py that the codec's vector
fold and unfold are held against."""

import doctest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import qmap
from frgc.qmap import ASYMPTOTIC, SYMBOL_MAX, SYMBOL_MIN, Precision, round_prediction

import scalarfold
from scalarfold import map_by_cases, map_residual, residual, unmap


def test_doctests():
    for module in (qmap, scalarfold):
        result = doctest.testmod(module)
        assert result.failed == 0
        assert result.attempted > 0


# --- Precision -------------------------------------------------------------

def test_precision_str_and_fields():
    p = Precision(1, 4)
    assert (p.rho, p.tau) == (1, 4)
    assert str(p) == "1/4"
    assert Precision(4, 5).half_shift == pytest.approx(0.4)
    assert p.half_shift == pytest.approx(0.125)


def test_asymptotic_sentinel():
    assert ASYMPTOTIC.is_asymptotic
    assert not Precision(1, 1).is_asymptotic


@pytest.mark.parametrize("rho,tau", [(0, 4), (-1, 4), (5, 4), (1, 0), (1, -3)])
def test_precision_rejects_bad_ratio(rho, tau):
    # 1 <= rho <= tau, or the asymptotic Precision(0, 1)
    with pytest.raises(ValueError):
        Precision(rho, tau)


def test_precision_accepts_a_ratio_tau_does_not_divide():
    # tau % rho == 0 is not required
    p = Precision(2, 3)
    assert (p.rho, p.tau) == (2, 3)
    assert p.half_shift == pytest.approx(1 / 3)


# --- round_prediction ------------------------------------------------------

def test_round_prediction_examples():
    assert round_prediction(0.70, Precision(1, 4)) == 3
    assert round_prediction(2.0, Precision(1, 1)) == 2
    # tie 0.625 * 4 = 2.5 rounds up
    assert round_prediction(0.625, Precision(1, 4)) == 3


def test_round_prediction_negative_tie():
    # -0.375 * 4 = -1.5 rounds toward +inf to -1
    assert round_prediction(-0.375, Precision(1, 4)) == -1


def test_round_prediction_rho_grid():
    n = round_prediction(0.9, Precision(4, 5))
    assert n % 4 == 0
    assert n == 4  # 5*0.9/4 = 1.125 -> 1 -> times rho


def test_round_prediction_rejects_asymptotic_and_nonfinite():
    with pytest.raises(ValueError):
        round_prediction(0.5, ASYMPTOTIC)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            round_prediction(bad, Precision(1, 4))


@given(
    k=st.integers(-(2**30), 2**30),
    rho=st.integers(1, 64),
    mult=st.integers(1, 8),
)
def test_round_prediction_fixes_grid_points(k, rho, mult):
    # a prediction already on the rho-grid rounds to itself
    tau = rho * mult
    p = Precision(rho, tau)
    xhat = (k * rho) / tau
    assert round_prediction(xhat, p) == k * rho


# --- residual --------------------------------------------------------------

def test_residual_examples():
    assert residual(1, 3, 4) == 1
    assert residual(0, 3, 4) == -3
    assert residual(5, 5, 1) == 0


def test_residual_symbol_range():
    assert residual(SYMBOL_MAX, 0, 1) == SYMBOL_MAX
    assert residual(SYMBOL_MIN, 0, 1) == SYMBOL_MIN
    with pytest.raises(OverflowError):
        residual(SYMBOL_MAX + 1, 0, 1)
    with pytest.raises(OverflowError):
        residual(SYMBOL_MIN - 1, 0, 1)


# --- map_residual and the case-law oracle ----------------------------------

def test_map_residual_examples():
    assert map_residual(1, 4) == 0
    assert map_residual(-3, 4) == 1
    assert map_residual(-1, 1) == 1
    assert map_residual(1, 1) == 2


def test_gamma_delta_examples():
    # the oracle's split (gamma, delta) is divmod(r, tau), 0 <= delta < tau
    for r, split, code in ((1, (0, 1), 0), (-3, (-1, 1), 1), (-7, (-2, 1), 3)):
        assert divmod(r, 4) == split
        assert map_by_cases(*split, 4) == map_residual(r, 4) == code


def test_map_by_cases_examples():
    assert map_by_cases(0, 1, 4) == 0
    assert map_by_cases(-1, 1, 4) == 1
    assert map_by_cases(0, 2, 4) == 1
    assert map_by_cases(-2, 1, 4) == 3
    assert map_by_cases(-2, 1, 4) == map_residual(-7, 4)


def test_map_by_cases_rejects_bad_delta():
    with pytest.raises(ValueError):
        map_by_cases(0, 4, 4)
    with pytest.raises(ValueError):
        map_by_cases(0, -1, 4)


@given(r=st.integers(-(2**40), 2**40), tau=st.integers(1, 2**16))
@settings(max_examples=300)
def test_map_matches_case_form(r, tau):
    assert map_residual(r, tau) == map_by_cases(*divmod(r, tau), tau)


# --- unmap -------------------------------------------------------------------

def test_unmap_examples():
    assert unmap(0, 3, 4) == 1
    assert unmap(1, 3, 4) == 0
    assert unmap(2, 2, 1) == 3


def test_unmap_rejects_negative():
    with pytest.raises(ValueError):
        unmap(-1, 0, 1)


# --- round-trip and structural properties ----------------------------------

def _precisions():
    return st.integers(1, 64).flatmap(
        lambda tau: st.tuples(st.integers(1, tau), st.just(tau))
    )


@given(
    x=st.integers(SYMBOL_MIN, SYMBOL_MAX),
    rt=_precisions(),
    k=st.integers(-(2**33), 2**33),
)
@settings(max_examples=500)
def test_roundtrip_identity(x, rt, k):
    rho, tau = rt
    n = k * rho
    m_value = map_residual(residual(x, n, tau), tau)
    assert m_value >= 0
    assert unmap(m_value, n, tau) == x


@given(
    x=st.integers(SYMBOL_MIN, SYMBOL_MAX),
    rt=_precisions(),
    xhat=st.floats(-(2.0**31), 2.0**31, allow_nan=False),
)
@settings(max_examples=500)
def test_roundtrip_through_rounding(x, rt, xhat):
    rho, tau = rt
    p = Precision(rho, tau)
    n = round_prediction(xhat, p)
    assert n % rho == 0
    assert unmap(map_residual(residual(x, n, tau), tau), n, tau) == x


@given(
    rt=_precisions(),
    k=st.integers(-(2**20), 2**20),
    x0=st.integers(-(2**24), 2**24),
    width=st.integers(2, 40),
)
@settings(max_examples=200)
def test_window_values_distinct(rt, k, x0, width):
    # consecutive symbols never collide under one quantized prediction
    rho, tau = rt
    ms = [map_residual(residual(x, k * rho, tau), tau)
          for x in range(x0, x0 + width)]
    assert len(set(ms)) == width


@given(rt=_precisions(), k=st.integers(-(2**20), 2**20), half=st.integers(1, 30))
@settings(max_examples=200)
def test_centered_window_fills_low_ranks(rt, k, half):
    # the 2*half symbols nearest the prediction take ranks 0..2*half-1
    rho, tau = rt
    n = k * rho
    center = n // tau
    xs = range(center - half - 1, center + half + 2)
    ranked = sorted(xs, key=lambda x: (abs(2 * (tau * x - n)), tau * x - n >= 0))
    ms = [map_residual(residual(x, n, tau), tau) for x in ranked]
    assert ms[: 2 * half] == list(range(2 * half))


def test_parity_selects_branch():
    # M + C even exactly when the nonnegative-residual branch applied
    rng = np.random.default_rng(7)
    for _ in range(2000):
        tau = int(rng.integers(1, 65))
        n = int(rng.integers(-(2**20), 2**20))
        x = int(rng.integers(-(2**20), 2**20))
        r = residual(x, n, tau)
        c = scalarfold.ceildiv(2 * n, tau)
        assert ((map_residual(r, tau) + c) % 2 == 0) == (r >= 0)


def test_unit_precision_reduces_to_rice_fold():
    # rho = tau = 1 with integer predictions: even codes for x >= xhat
    xs = np.arange(-(10**6), 10**6 + 1, dtype=np.int64)
    expected = np.where(xs >= 0, 2 * xs, -2 * xs - 1)
    got = np.array([map_residual(residual(int(x), 0, 1), 1) for x in xs[:: 10**4]])
    assert np.array_equal(got, expected[:: 10**4])
    # dense check through the vectorized twin
    from frgc import harness

    dense = harness.mapped_values(xs, np.zeros(len(xs)), Precision(1, 1))
    assert np.array_equal(dense, expected)


@given(x=st.integers(-(2**20), 2**20), shift=st.integers(-(2**20), 2**20))
@settings(max_examples=200)
def test_rice_fold_with_integer_prediction(x, shift):
    d = x - shift
    assert map_residual(residual(x, shift, 1), 1) == (2 * d if d >= 0 else -2 * d - 1)


# --- helper division -------------------------------------------------------

@given(a=st.integers(-(2**50), 2**50), b=st.integers(1, 2**20))
def test_floor_ceil_div(a, b):
    q = scalarfold.ceildiv(a, b)
    assert q == -((-a) // b)
    assert (q - 1) * b < a <= q * b

"""Analytic Laplace model: densities, code lengths, optimal parameters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgc import analysis, bitcoder, qmap
from frgc.analysis import (
    ASYMPTOTIC,
    LaplaceModel,
    Precision,
    M_BOUNDARIES,
    avg_code_length,
    golomb_mstar,
    interval_code_length,
    laplace_cdf,
    laplace_pdf,
    laplace_sample,
    lookup_m,
    phi_root,
    redundancy,
    redundancy_percent,
)

from bitsink import code_length


# --- density ----------------------------------------------------------------

def test_pdf_peak_example():
    assert laplace_pdf(LaplaceModel(0.5), 0.0) == pytest.approx(0.34657, abs=5e-6)


def test_pdf_symmetry_and_shape():
    model = LaplaceModel(0.3)
    for eps in (0.1, 1.7, 5.0):
        assert laplace_pdf(model, eps) == pytest.approx(laplace_pdf(model, -eps))
    assert laplace_pdf(model, 0.0) > laplace_pdf(model, 1.0) > laplace_pdf(model, 2.0)


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_pdf_integrates_to_one(theta):
    # Simpson on the positive half line, doubled
    model = LaplaceModel(theta)
    span = 40.0 / -math.log(theta)
    xs = np.linspace(0.0, span, 20001)
    ys = np.array([laplace_pdf(model, float(x)) for x in xs])
    h = xs[1] - xs[0]
    total = 2.0 * h / 3.0 * (ys[0] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum() + ys[-1])
    assert total == pytest.approx(1.0, abs=1e-6)


def test_cdf_matches_pdf():
    model = LaplaceModel(0.4)
    assert laplace_cdf(model, 0.0) == pytest.approx(0.5)
    for x in (-3.0, -0.5, 0.25, 2.0):
        assert laplace_cdf(model, x) + laplace_cdf(model, -x) == pytest.approx(1.0)
    # numerical derivative recovers the density
    for x in (0.5, 1.5, 4.0):
        h = 1e-6
        deriv = (laplace_cdf(model, x + h) - laplace_cdf(model, x - h)) / (2 * h)
        assert deriv == pytest.approx(laplace_pdf(model, x), rel=1e-4)


def test_model_rejects_bad_theta():
    for theta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            LaplaceModel(theta)


# --- sampling ---------------------------------------------------------------

def test_sample_deterministic_and_scaled():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    model = LaplaceModel(0.5)
    a = laplace_sample(model, rng1, size=1000)
    b = laplace_sample(model, rng2, size=1000)
    assert np.array_equal(a, b)


def test_sample_moments():
    rng = np.random.default_rng(11)
    model = LaplaceModel(0.5)
    eps = laplace_sample(model, rng, size=1_000_000)
    b = -1.0 / math.log(0.5)
    assert abs(np.mean(np.abs(eps)) - b) / b < 0.01
    assert abs(np.mean(eps >= 0) - 0.5) < 0.005


def test_sample_scalar_form():
    rng = np.random.default_rng(3)
    value = laplace_sample(LaplaceModel(0.2), rng)
    assert isinstance(value, float)


# --- interval code length ----------------------------------------------------

def bit_level_length(eps: float, m: int, tau: int) -> int:
    # independent oracle: push the residual through the real fold and coder
    # at rho = 1 with the prediction pinned to the origin, so the residual
    # numerator is exactly round(eps * tau)
    r = round(eps * tau)
    assert abs(r - eps * tau) < 1e-9, "oracle needs lattice-aligned eps"
    value = qmap.map_by_cases(*divmod(r, tau), tau)
    assert value == qmap.map_residual(r, tau)
    return code_length(value, bitcoder.GolombParam(m))


def test_interval_examples_against_bit_oracle():
    tau = 1 << 20
    cases = [(0.1, 2, 2), (1.6, 3, 3), (-0.7, 1, 2)]
    for eps, m, expected in cases:
        # lattice-align eps at tau = 2**20 so the oracle is exact
        r = round(eps * tau)
        eps_lattice = r / tau
        assert interval_code_length(eps_lattice, m, Precision(1, tau)) == expected
        assert bit_level_length(eps_lattice, m, tau) == expected
        # the asymptotic form agrees at fine precision for these points
        assert interval_code_length(eps, m, ASYMPTOTIC) == expected


def test_interval_asymptotic_symmetry():
    for m in (1, 2, 3, 5, 8):
        for eps in (0.0, 0.3, 0.9, 1.5, 4.2):
            assert interval_code_length(eps, m, ASYMPTOTIC) == interval_code_length(
                -eps, m, ASYMPTOTIC
            )


def test_interval_monotone_in_magnitude():
    for m in (1, 3, 4, 7):
        lengths = [interval_code_length(u / 4, m, ASYMPTOTIC) for u in range(0, 200)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))


@given(
    r=st.integers(-4000, 4000),
    m=st.integers(1, 32),
    tau=st.sampled_from([2, 4, 16, 1024]),
)
@settings(max_examples=400)
def test_interval_matches_real_coder(r, m, tau):
    # at rho = 1 and even tau the model length is the emitted length, exactly
    eps = r / tau
    model_bits = interval_code_length(eps, m, Precision(1, tau))
    assert model_bits == bit_level_length(eps, m, tau)


def test_interval_rejects_nonfinite():
    with pytest.raises(ValueError):
        interval_code_length(float("nan"), 3, ASYMPTOTIC)


# --- average code length ------------------------------------------------------

def test_avg_examples():
    assert avg_code_length(1, 0.1, ASYMPTOTIC) == pytest.approx(1.46248, abs=5e-6)
    assert avg_code_length(2, 0.5, ASYMPTOTIC) == pytest.approx(3.0, abs=1e-12)
    assert avg_code_length(3, 0.6, ASYMPTOTIC) == pytest.approx(3.44719, abs=5e-6)


def test_avg_finite_dominates_asymptotic():
    # the finite-precision factor cosh(s ln theta) never shrinks the average
    for theta in (0.1, 0.4, 0.8):
        for m in (1, 2, 3, 6, 8):
            base = avg_code_length(m, theta, ASYMPTOTIC)
            for p in (Precision(1, 2), Precision(1, 16), Precision(4, 5)):
                assert avg_code_length(m, theta, p) >= base


def test_avg_converges_to_asymptotic():
    for theta in (0.2, 0.6):
        for m in (1, 3, 4):
            base = avg_code_length(m, theta, ASYMPTOTIC)
            diffs = [
                avg_code_length(m, theta, Precision(1, 1 << k)) - base
                for k in (2, 6, 10, 16)
            ]
            assert all(d >= -1e-12 for d in diffs)
            assert diffs[-1] < 1e-7
            assert all(a >= b for a, b in zip(diffs, diffs[1:]))


def test_avg_rejects_bad_args():
    with pytest.raises(ValueError):
        avg_code_length(0, 0.5, ASYMPTOTIC)
    with pytest.raises(ValueError):
        avg_code_length(2, 0.0, ASYMPTOTIC)
    with pytest.raises(ValueError):
        avg_code_length(2, 1.0, ASYMPTOTIC)


# --- roots and the optimal-m table --------------------------------------------

def test_phi_root_residuals():
    for m in range(1, 65):
        phi = phi_root(m)
        assert 0.0 < phi < 1.0
        assert abs(phi ** (m + 1) + phi**m - 1.0) < 1e-12


def test_phi1_is_inverse_golden_ratio():
    assert phi_root(1) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)


def test_boundaries_strictly_increase():
    bounds = M_BOUNDARIES
    assert len(bounds) == 64
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    # boundary for m is the squared root, to the last bit
    for m in range(1, 65):
        assert bounds[m - 1] == phi_root(m) ** 2


def test_lookup_examples():
    assert lookup_m(0.3) == 1
    assert lookup_m(0.5) == 2
    # past the last boundary the table clamps at its 64 entries
    assert M_BOUNDARIES[-1] < 0.985
    assert lookup_m(0.985) == 64


def test_lookup_boundary_prefers_smaller_m():
    for m in range(1, 65):
        assert lookup_m(M_BOUNDARIES[m - 1]) == m


def test_lookup_boundaries_do_not_round_trip_through_log():
    # why lookup_m searches M_BOUNDARIES in the theta domain instead of
    # taking the codec's guess and compare on log(theta)
    log_boundaries = analysis.LOG_BOUNDARIES
    assert sum(math.log(b) != lb for b, lb in zip(M_BOUNDARIES, log_boundaries)) == 55


def test_lookup_monotone_in_theta():
    prev = 0
    for k in range(1, 1000):
        m = lookup_m(k / 1000.0)
        assert m >= prev
        prev = m


# --- redundancy ----------------------------------------------------------------

def test_redundancy_vanishes_at_fine_precision():
    for theta in (0.1, 0.5, 0.9):
        assert 0.0 <= redundancy(theta, Precision(1, 1 << 30)) < 1e-12


def test_redundancy_percent_normalizes():
    p = Precision(1, 2)
    for theta in (0.2, 0.7):
        base = avg_code_length(lookup_m(theta), theta, ASYMPTOTIC)
        assert redundancy_percent(theta, p) == pytest.approx(
            100.0 * redundancy(theta, p) / base
        )


def test_redundancy_nonnegative_across_grid():
    for k in range(1, 98):
        theta = k / 100.0
        assert redundancy(theta, Precision(1, 16)) >= 0.0


# --- classic integer-optimal m ---------------------------------------------------

def test_golomb_mstar_examples():
    assert golomb_mstar(0.5) == 1
    assert golomb_mstar(1e-9) == 1
    assert golomb_mstar(0.9) == 7


def test_golomb_mstar_minimizes_expected_length():
    # exhaustive oracle over the one-sided geometric source
    for theta in [k / 20 for k in range(1, 20)]:
        horizon = max(64, int(36.0 / -math.log(theta)) + 64)
        probs = (1 - theta) * theta ** np.arange(horizon)
        best = None
        lengths = {}
        for m in range(1, 65):
            g = bitcoder.GolombParam(m)
            expected = float(
                np.dot(probs, [code_length(n, g) for n in range(horizon)])
            )
            lengths[m] = expected
            if best is None or expected < lengths[best] - 1e-12:
                best = m
        mstar = golomb_mstar(theta)
        assert lengths[mstar] <= lengths[best] + 1e-9

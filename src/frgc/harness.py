"""Experiment runner: synthetic streams and the redundancy/length sweeps.

The sweeps work on mapped residuals directly and total up per-symbol code
lengths instead of materializing container bytes; payload size equals that
total plus under a byte of flush padding, so the shortcut is exact for
mean-bits purposes and permits the huge-tau stand-in for the asymptotic
column, which does not fit the header's u16.

Reproducibility: one Philox stream per theta cell, spawned from the
experiment seed, with the draw shared across precisions so
cross-precision comparisons are paired.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from frgc import analysis
from frgc.bitcoder import codeword_fields
from frgc.codec import _map_vector, _round_predictions
from frgc.qmap import ASYMPTOTIC, Precision

DEFAULT_SEED = 1234
DEFAULT_N = 100_000
DEFAULT_ALPHABET_Q = 128

EXHAUSTIVE_MAX_M = 64

# Stand-in for the rho/tau -> 0 limit in sampled sweeps; analytic columns
# use the true limit instead.
ASYMPTOTIC_SURROGATE = Precision(1, 1 << 40)

TABLE3_THETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
TABLE3_PRECISIONS = (
    Precision(1, 1), Precision(4, 5), Precision(1, 2), Precision(1, 4),
    Precision(1, 5), Precision(1, 8), Precision(1, 16), ASYMPTOTIC_SURROGATE,
)

FIG6_THETAS = tuple(k / 100 for k in range(1, 98))
FIG6_PRECISIONS = TABLE3_PRECISIONS[:-1]

TABLE2_THETAS = FIG6_THETAS
TABLE2_PRECISIONS = (
    Precision(4, 5), Precision(1, 2), Precision(1, 4), Precision(1, 8),
    Precision(1, 16), Precision(1, 32),
)

TABLE2_FIELDS = ("precision", "max_redundancy_pct")
TABLE3_FIELDS = ("theta", "precision", "bits_per_symbol", "analytic")
FIG6_FIELDS = ("theta", "precision", "redundancy_pct")


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a theta grid crossed with a precision list."""

    theta_grid: tuple
    precisions: tuple
    n_samples: int = DEFAULT_N
    alphabet_q: int = DEFAULT_ALPHABET_Q
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for theta in self.theta_grid:
            if not 0.0 < theta < 1.0:
                raise ValueError(f"theta must be in (0,1), got {theta}")
        check_sampling(self.n_samples, self.seed)
        if self.alphabet_q < 1:
            raise ValueError(f"alphabet_q must be >= 1, got {self.alphabet_q}")


def check_sampling(n_samples: int, seed: int) -> None:
    """ValueError unless n_samples >= 1 and seed is a 64-bit integer."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit integer, got {seed}")


def table3_spec(seed: int = DEFAULT_SEED, n: int = DEFAULT_N) -> ExperimentSpec:
    return ExperimentSpec(TABLE3_THETAS, TABLE3_PRECISIONS, n_samples=n,
                          seed=seed)


def fig6_spec(seed: int = DEFAULT_SEED, n: int = DEFAULT_N) -> ExperimentSpec:
    return ExperimentSpec(FIG6_THETAS, FIG6_PRECISIONS, n_samples=n, seed=seed)


def gen_synthetic(theta: float, n: int, q: int = DEFAULT_ALPHABET_Q,
                  seed: int = DEFAULT_SEED, stream: int = 0):
    """Uniform integers on [0, q) with predictions x - eps, eps ~ Laplace.

    Deterministic in (seed, stream): each cell draws from its own
    counter-based stream, so sweeps can run cells in any order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    rng = np.random.Generator(np.random.Philox(ss))
    xs = rng.integers(0, q, size=n, dtype=np.int64)
    eps = analysis.laplace_sample(analysis.LaplaceModel(theta), rng, size=n)
    return xs, xs - eps


def mapped_values(xs, predictions, precision: Precision) -> np.ndarray:
    """Mapped residuals for a whole stream at once."""
    if precision.is_asymptotic:
        raise ValueError("sampled sweeps need a concrete precision; "
                         "use ASYMPTOTIC_SURROGATE")
    pred = np.asarray(predictions, dtype=np.float64)
    numerators = _round_predictions(pred, precision.rho, precision.tau)
    return _map_vector(np.asarray(xs, dtype=np.int64), numerators, precision.tau)


def symbol_code_lengths(values, m: int) -> np.ndarray:
    """Golomb codeword length of each mapped residual."""
    q, _, width = codeword_fields(np.asarray(values, dtype=np.int64), m)
    return q + 1 + width


def mean_code_bits(values, m: int) -> float:
    return float(symbol_code_lengths(values, m).mean())


def exhaustive_best_m(values, max_m: int = EXHAUSTIVE_MAX_M):
    """(m, mean bits) minimizing total bits; ties go to the smaller m."""
    vals, counts = np.unique(np.asarray(values, dtype=np.int64),
                             return_counts=True)
    n = int(counts.sum())
    best_m, best_total = 1, None
    for m in range(1, max_m + 1):
        total = int((symbol_code_lengths(vals, m) * counts).sum())
        if best_total is None or total < best_total:
            best_m, best_total = m, total
    return best_m, best_total / n


def _cell_bits(mapped: np.ndarray, theta: float, precision: Precision) -> float:
    """Mean bits/symbol for one (theta, precision) cell.

    Unit precision searches m exhaustively; every other precision reuses
    the asymptotically optimal lookup parameter.
    """
    if (precision.rho, precision.tau) == (1, 1):
        _, bits = exhaustive_best_m(mapped)
        return bits
    return mean_code_bits(mapped, analysis.lookup_m(theta))


def run_table2() -> list[tuple]:
    """Analytic worst-case redundancy per precision over the theta grid."""
    rows = []
    for precision in TABLE2_PRECISIONS:
        worst = max(analysis.redundancy_percent(theta, precision)
                    for theta in TABLE2_THETAS)
        rows.append((str(precision), worst))
    return rows


def _sampled_cells(spec: ExperimentSpec, first_stream: int):
    """(theta, precision, mean bits, analytic bits at lookup_m) per cell.

    Theta i draws from stream first_stream + i; its draw is shared by
    every precision.
    """
    for i, theta in enumerate(spec.theta_grid):
        xs, preds = gen_synthetic(theta, spec.n_samples, spec.alphabet_q,
                                  spec.seed, stream=first_stream + i)
        analytic = analysis.avg_code_length(analysis.lookup_m(theta), theta,
                                            ASYMPTOTIC)
        for precision in spec.precisions:
            concrete = (ASYMPTOTIC_SURROGATE if precision.is_asymptotic
                        else precision)
            bits = _cell_bits(mapped_values(xs, preds, concrete), theta,
                              concrete)
            yield theta, precision, bits, analytic


def run_table3(spec: ExperimentSpec | None = None) -> list[tuple]:
    """Sampled mean code lengths per (theta, precision), plus the analytic
    length at the looked-up m."""
    return [(theta, str(p), bits, analytic)
            for theta, p, bits, analytic in _sampled_cells(spec or table3_spec(), 0)]


def run_fig6(spec: ExperimentSpec | None = None) -> list[tuple]:
    """Sampled redundancy (percent over the analytic length) per cell.

    Streams are numbered from 1 here so the curves are not paired with
    the table sweep's draws.
    """
    return [(theta, str(p), 100.0 * (bits - base) / base)
            for theta, p, bits, base in _sampled_cells(spec or fig6_spec(), 1)]


def write_csv(path, fieldnames, rows) -> None:
    """Plain CSV; floats keep full repr so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)

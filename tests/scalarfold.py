"""The paper's residual equations one integer at a time: the oracles the
tests hold the codec's vector fold and unfold against.

The codec rounds a prediction to a numerator n over tau
(frgc.qmap.round_prediction), folds the residuals e = x - n/tau of a whole
array onto 0, 1, 2, ... (frgc.codec._map_vector) and unfolds them again
(frgc.qmap.unmap_array, the compiled kernels' ``unfold``).  Here each
equation is written for one symbol on Python ints, and ``map_by_cases``
is the fold by its case split, a second route to the same values.
"""

from frgc.qmap import SYMBOL_MAX, SYMBOL_MIN


def ceildiv(a: int, b: int) -> int:
    """Quotient rounded toward plus infinity.

    >>> ceildiv(6, 4), ceildiv(-6, 4), ceildiv(8, 4)
    (2, -1, 2)
    """
    return -((-a) // b)


def residual(x: int, n: int, tau: int) -> int:
    """Exact residual of symbol ``x`` against the prediction ``n/tau``,
    scaled by tau: tau*x - n.

    >>> residual(1, 3, 4), residual(0, 3, 4)
    (1, -3)
    """
    if not SYMBOL_MIN <= x <= SYMBOL_MAX:
        raise OverflowError(f"symbol {x} outside signed 32-bit range")
    return tau * x - n


def map_residual(r: int, tau: int) -> int:
    """Fold the lattice residual ``r/tau`` onto 0, 1, 2, ... by magnitude.

    With ebar = r/tau this is floor(2*ebar) for ebar >= 0 and
    -floor(2*ebar) - 1 otherwise, computed without leaving the integers.

    >>> [map_residual(r, 4) for r in (1, -3, 5, -7)]
    [0, 1, 2, 3]
    >>> [map_residual(r, 1) for r in (0, -1, 1, -2)]
    [0, 1, 2, 3]
    """
    if r >= 0:
        return 2 * r // tau
    return -(2 * r // tau) - 1


def map_by_cases(gamma: int, delta: int, tau: int) -> int:
    """Case-split form of the fold, an independent route to its values.

    (gamma, delta) = divmod(r, tau).  Lattice points closer than half a
    unit to their integer part (delta below tau/2) land on even/odd codes
    2g / -2g-1; the far half lands one slot later.
    """
    if not 0 <= delta < tau:
        raise ValueError(f"need 0 <= delta < tau, got delta={delta}, tau={tau}")
    if 2 * delta < tau:
        return 2 * gamma if gamma >= 0 else -2 * gamma - 1
    return 2 * gamma + 1 if gamma >= 0 else -2 * gamma - 2


def unmap(v: int, n: int, tau: int) -> int:
    """Invert map_residual given the same prediction ``n/tau``.

    The fold leaves exactly one integer consistent with each code: the
    parity of ``v + ceil(2n/tau)`` says which side of the prediction the
    symbol sat on.

    >>> [unmap(v, 3, 4) for v in (0, 1, 2, 3)]
    [1, 0, 2, -1]
    """
    if v < 0:
        raise ValueError(f"mapped residual must be non-negative, got {v}")
    c = ceildiv(2 * n, tau)
    s = v + c
    if s % 2 == 0:
        return s // 2
    return (c - v - 1) // 2

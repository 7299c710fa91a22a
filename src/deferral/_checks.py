"""The input contract: each public scalar parameter is checked here, once."""

import numpy as np


def integer(name, value, lo: int, hi: int = None) -> int:
    """``value`` as an int in ``[lo, hi)``, unbounded above if ``hi`` is None."""
    value = int(value) if isinstance(value, np.integer) else value
    if type(value) is int and lo <= value and (hi is None or value < hi):
        return value
    span = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi})"
    if type(value) is int and lo == 0 and hi is None:
        span = "a non-negative integer"
    raise ValueError(f"{name} must be {span}, got {value!r}")


def real(name, value, lo=-np.inf, hi=np.inf, *, open_lo=False, open_hi=False, whole=False) -> float:
    """``value`` as a finite float from ``lo`` to ``hi``, an end included
    unless open.  A refusal names the interval if both ends are finite and
    not ``whole``, else the first test failed: the lower bound (failed by NaN
    if open), then finiteness (joined to the lower bound if ``whole``), then
    the upper one."""
    if type(value) is float and lo < value < hi:  # strictly inside, so finite: most calls
        return value
    if type(value) is not float:  # numpy's float64 is a float; a bool is not an int here
        if type(value) is int or isinstance(value, (float, np.integer, np.floating)):
            try:
                value = float(value)
            except OverflowError:  # an int past the float range, as in a JSON file
                value = np.inf if value > 0 else -np.inf
    number = type(value) is float
    finite = number and value - value == 0.0  # neither NaN nor infinite
    if finite and (lo < value < hi or value == lo and not open_lo or value == hi and not open_hi):
        return value
    lower = "positive" if open_lo and lo == 0 else f">= {lo:g}"
    below = not number or (not lo < value if open_lo else value < lo)
    if lo > -np.inf and hi < np.inf and not whole:
        what = f"lie in {'[('[open_lo]}{lo:g}, {hi:g}{'])'[open_hi]}"
    elif lo > -np.inf and (below or whole and not finite):
        what = f"be {lower} and finite" if whole or not number else f"be {lower}"
    elif not finite:
        what = "be finite"
    else:  # the upper end of a half-bounded range, as 1e18 rather than 1e+18
        what = f"be {'below' if open_hi else 'at most'} {hi:g}".replace("e+", "e")
    raise ValueError(f"{name} must {what}, got {value!r}")


def finite_array(name, values) -> np.ndarray:
    """``values`` as a float array, refused unless of int, uint or float kind
    or if an entry is NaN or infinite."""
    if np.asarray(values).dtype.kind not in "iuf":
        raise ValueError(f"{name} must be finite numbers, got {values!r}")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)]
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    return values

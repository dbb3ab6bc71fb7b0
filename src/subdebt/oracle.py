"""Independent verification engines for the closed-form results.

Three routes that do not share code with the formulas they check:
Monte-Carlo pricing from simulated terminal asset values, a numeric
one-dimensional argmax (coarse grid plus golden-section refinement), and
central finite differences for the junior-debt vega.

Randomness contract
-------------------
Terminal draws use numpy's Philox 4x64 counter-based generator (10
rounds) keyed by the seed.  The i-th raw 64-bit output is a pure
function of (seed, i), so an estimate depends only on (seed,
path_count) and never on scheduling or partitioning.  Raw outputs map
to uniforms by u = ((raw >> 11) + 0.5) * 2**-53 in float64, and to
normals through the inverse normal CDF (``scipy.special.ndtri``, the
Cephes ndtri routine) rather than Box-Muller.  The sum k + 0.5 is exact
for k = raw >> 11 below 2**52 and rounds half to even above, so u lies
in (0, 1], not strictly inside: u = 1.0 only at k = 2**53 - 1, where
ndtri gives inf and ``mc_claim_values`` refuses the run with
``ValidationError``.  Every draw Z is used twice, at Z and at -Z
(antithetic pairing, the only sampling scheme), and the pair mean is the
sampling unit; numpy's ``exp`` loop, chosen per CPU, can change the last
bits.

Draws are streamed in chunks of ``_CHUNK_DRAWS`` normals taken in order
from one Philox stream, so the terminal values do not depend on the
chunk size.  ``mc_claim_values`` reduces each chunk to per-claim (count,
mean, M2) and merges it before drawing the next, so its memory is
O(chunk) whatever the path count.  The merged sums depend on where the
chunks end, so the fixed chunk size is part of the estimate's contract:
an estimate is a pure function of (seed, path_count) and this constant.

numpy and scipy are imported inside the functions that build arrays, so
that importing the package, and the closed-form CLI commands, do not
load them.

``ndtri`` is resolved once per process.  If ``scipy.special`` is already
loaded, its ``ndtri`` is used.  Otherwise it is taken from the compiled
``scipy.special._ufuncs`` module, imported under a bare package module
that stands in for ``scipy.special`` only while that import runs.  The
package ``__init__`` also loads ``numpy.f2py`` and scipy's array-API
backends: with numpy loaded, ``from scipy.special import ndtri`` took
270-410 ms on a 2-vCPU Xeon (scipy 1.17.1), ``_ufuncs`` alone 24-30 ms.
It is the same C ufunc, so a later ``import scipy.special`` works and
yields the same object.  That module layout is private to scipy, so on
any failure the route falls back to ``from scipy.special import ndtri``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator

from .claims import CapitalStructure, junior_debt_value
from .errors import ValidationError, check, check_range, checked_exp
from .scenario import MCConfig

if TYPE_CHECKING:
    import numpy as np

_COARSE_POINTS = 64
# A coarse peak must beat its grid neighbours by more than this many ulps of
# V e^{-q tau}, the scale of the two calls whose difference is the junior value.
_PEAK_ULPS = 8
# Normals drawn per chunk of the Monte-Carlo stream (about 7 MB of live
# arrays).  Estimates depend on it through the order of the final sums.
_CHUNK_DRAWS = 1 << 16
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo price with its standard error and path count."""

    mean: float
    std_error: float
    path_count: int


@dataclass(frozen=True)
class GridSpec:
    """Search interval and convergence tolerance for the numeric argmax."""

    lower: float
    upper: float
    tolerance: float

    def __post_init__(self) -> None:
        check("grid.lower", self.lower, "finite and > 0")
        check_range("search interval", self.lower, self.upper)
        check("tolerance", self.tolerance, "finite and > 0")


def simulate_terminal_values(cs: CapitalStructure, mc: MCConfig) -> np.ndarray:
    """Draw terminal asset values in a single exact step.

    V_T = V exp((r - q - sigma^2/2) tau + sigma sqrt(tau) Z).  The output
    interleaves antithetic pairs (Z_i, -Z_i): element 2i uses Z_i and
    element 2i+1 uses -Z_i.  The values are the streamed chunks joined
    into one array.
    """
    import numpy as np

    return np.concatenate(
        [np.column_stack(chunk).ravel() for chunk in _terminal_chunks(cs, mc)]
    )


def mc_claim_values(
    cs: CapitalStructure, mc: MCConfig
) -> tuple[MCEstimate, MCEstimate, MCEstimate]:
    """Discounted Monte-Carlo estimates of (senior, junior, equity) values.

    Each mean is e^{-r tau} times the average claim payoff over the
    simulated terminal values, so the three means sum to the discounted
    average terminal value.  The sampling unit for the standard error is
    the average of each antithetic (Z, -Z) pair.  Units are reduced one
    chunk at a time, so memory does not grow with path_count.

    Raises:
        ValidationError: If the discount factor overflows, or a mean or
            standard error is not finite (simulated values or their sums
            leave the float range).
    """
    import numpy as np

    discount = checked_exp(-cs.rate * cs.maturity, "discount factor")
    moments = [(0, 0.0, 0.0)] * 3
    # Overflow turns into inf or NaN moments, refused below as one error.
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _terminal_chunks(cs, mc):
            for claim, units in enumerate(_sampling_units(cs, discount, chunk)):
                moments[claim] = _merge_moments(moments[claim], units)
    estimates = []
    for count, mean, m2 in moments:
        std_error = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(std_error)):
            raise ValidationError(
                "Monte-Carlo claim values leave the float range "
                f"(mean {mean}, standard error {std_error})"
            )
        estimates.append(MCEstimate(mean, std_error, mc.path_count))
    return tuple(estimates)


def claim_payoffs(
    terminal: np.ndarray, senior_face: float, junior_face: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split terminal asset values across the three claims at maturity.

    senior = min(V_T, F_S); junior = clamp(V_T - F_S, 0, F_J);
    equity = max(V_T - F_S - F_J, 0).  The single-branch clamp form of
    the junior payoff equals both rearrangements
    max(min(V_T - F_S, F_J), 0) and
    max(V_T - F_S, 0) - max(V_T - F_S - F_J, 0).
    """
    import numpy as np

    senior = np.minimum(terminal, senior_face)
    excess = terminal - senior_face
    junior = np.clip(excess, 0.0, junior_face)
    equity = np.maximum(excess - junior_face, 0.0)
    return senior, junior, equity


def _terminal_chunks(
    cs: CapitalStructure, mc: MCConfig
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield terminal values for up to _CHUNK_DRAWS normals at a time.

    Each chunk is (up, down), the values at Z and -Z.  All chunks come
    from one Philox stream, so draw i is the same whatever the chunk size.
    """
    import numpy as np

    ndtri = _ndtri()
    n_draws = mc.path_count // 2
    bit_generator = np.random.Philox(key=mc.seed)
    drift = (
        cs.rate - cs.dividend_yield - 0.5 * cs.volatility * cs.volatility
    ) * cs.maturity
    shock = cs.volatility * math.sqrt(cs.maturity)
    for start in range(0, n_draws, _CHUNK_DRAWS):
        raw = bit_generator.random_raw(min(_CHUNK_DRAWS, n_draws - start))
        z = ndtri(((raw >> 11).astype(np.float64) + 0.5) * 2.0**-53)
        up = cs.asset_value * np.exp(drift + shock * z)
        # drift + shock * (-z) == drift - shock * z exactly in IEEE arithmetic.
        yield up, cs.asset_value * np.exp(drift - shock * z)


@functools.cache
def _ndtri() -> np.ufunc:
    """scipy's ``ndtri`` ufunc, by the route the module docstring describes."""
    # Reading scipy.special as an attribute would import it through scipy's
    # module __getattr__, so only sys.modules is consulted.
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri
    try:
        return _compiled_ndtri()
    except Exception:  # any change to scipy's private layout
        from scipy.special import ndtri

        return ndtri


def _compiled_ndtri() -> np.ufunc:
    """Import ``scipy.special._ufuncs`` without running the package ``__init__``.

    The stub is in ``sys.modules`` only while this import runs; an import
    of ``scipy.special`` from another thread in that window would get it.
    """
    import importlib
    import os
    import types

    import scipy

    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module("scipy.special._ufuncs").ndtri
    finally:
        sys.modules.pop("scipy.special", None)


def _sampling_units(
    cs: CapitalStructure, discount: float, chunk: tuple[np.ndarray, np.ndarray]
) -> list[np.ndarray]:
    """Per claim, a chunk's discounted payoffs averaged over each (Z, -Z) pair.

    Each unit takes the same operations, in the same order, as one formed
    from the joined ``simulate_terminal_values`` array.  Returning from a
    function frees the payoff arrays before the next chunk is drawn.
    """
    split = [claim_payoffs(t, cs.senior_face, cs.junior_face) for t in chunk]
    return [0.5 * (discount * up + discount * down) for up, down in zip(*split)]


def _merge_moments(
    moments: tuple[int, float, float], units: np.ndarray
) -> tuple[int, float, float]:
    """Merge a chunk of sampling units into (count, mean, M2).

    M2 is the sum of squared deviations from the mean.  The chunk's own
    mean and M2 are combined by Chan, Golub and LeVeque's pairwise update.
    Both sums are numpy's pairwise sum: a BLAS dot would follow the thread count.
    """
    count, mean, m2 = moments
    size = units.size
    chunk_mean = float(units.mean())
    squares = units - chunk_mean
    squares *= squares
    chunk_m2 = float(squares.sum())
    total = count + size
    delta = chunk_mean - mean
    return (
        total,
        mean + delta * (size / total),
        m2 + chunk_m2 + delta * delta * (count * size / total),
    )


def golden_section_max(
    f: Callable[[float], float], lower: float, upper: float, tolerance: float
) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lower, upper].

    Stops once the bracket is no wider than ``tolerance``, or once a step
    no longer narrows it (a tolerance below the float spacing there).

    Raises:
        ValidationError: If tolerance is not finite and > 0.
    """
    check("tolerance", tolerance, "finite and > 0")
    a, b = lower, upper
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (width := b - a) > tolerance:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        if not b - a < width:
            break
    return float(0.5 * (a + b))


def argmax_sigma_numeric(cs: CapitalStructure, grid: GridSpec) -> float | None:
    """Numerically locate the volatility maximizing the junior-bond value.

    Brackets the peak on a 64-point log-spaced coarse grid over
    [lower, upper] (the value is unimodal in volatility), then refines
    with golden-section search to ``grid.tolerance``.  Returns None when
    the coarse values are nonincreasing from the left edge, i.e. no
    interior peak exists over the grid, or when the coarse peak beats its
    neighbours only by rounding noise, on a plateau flat at float resolution.
    """
    import numpy as np

    sigmas = np.geomspace(grid.lower, grid.upper, _COARSE_POINTS)
    values = [_junior_value_at(cs, s) for s in sigmas]
    peak = int(np.argmax(values))
    if peak == 0:
        return None
    forward = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
    neighbours = values[peak - 1 : peak + 2 : 2]  # only the left at the right end
    if values[peak] - max(neighbours) <= _PEAK_ULPS * math.ulp(forward):
        return None
    lo = sigmas[peak - 1]
    hi = sigmas[peak + 1] if peak + 1 < len(sigmas) else sigmas[-1]
    return golden_section_max(lambda s: _junior_value_at(cs, s), lo, hi, grid.tolerance)


def finite_diff_vega(cs: CapitalStructure, bump: float) -> float:
    """Central-difference junior-debt vega, [B_J(sigma+h) - B_J(sigma-h)] / 2h.

    Raises:
        ValidationError: If bump <= 0 or sigma - bump <= 0.
    """
    check("bump", bump, "finite and > 0")
    if not cs.volatility - bump > 0.0:
        raise ValidationError(
            f"bump {bump} too large for volatility {cs.volatility}"
        )
    up = _junior_value_at(cs, cs.volatility + bump)
    down = _junior_value_at(cs, cs.volatility - bump)
    return (up - down) / (2.0 * bump)


def _junior_value_at(cs: CapitalStructure, sigma: float) -> float:
    return junior_debt_value(replace(cs, volatility=sigma))

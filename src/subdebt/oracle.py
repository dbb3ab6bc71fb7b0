"""Independent verification engines for the closed-form results.

Three routes that do not share code with the formulas they check:
Monte-Carlo pricing from simulated terminal asset values, a numeric
one-dimensional argmax (coarse grid plus golden-section refinement), and
central finite differences for the junior-debt vega.  The argmax and the
finite difference maximize and differentiate the kernel's junior value,
``claims._claims(cs, sigma)[1]``, on the caller's validated structure;
they never read the kernel's vega or the closed-form sigma*, the results
they check.  numpy builds only the coarse grid, so the kernel and
``golden_section_max`` see Python floats.

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

One function, ``_draw``, maps raw outputs to terminal values elementwise,
so a value's bits do not depend on how the stream is cut.
``simulate_terminal_values`` draws the whole stream in one call, so its
memory grows with path_count.  ``mc_claim_values`` cuts the stream into
chunks of ``_CHUNK_DRAWS`` normals.  Chunk i is drawn from a Philox of its
own, keyed by the seed and set to the chunk's start, and reduced to
per-claim (count, mean, M2) in buffers allocated once per call.  With two
or more chunks two threads do this, the caller and one helper, each
claiming the next chunk, so memory is two chunks plus one small result
per chunk.  The per-chunk moments
are merged in chunk order once both threads are done, so an estimate
does not depend on which thread reduced which chunk.  The merged sums
depend on where the chunks end, so the fixed chunk size is part of the
estimate's contract: an estimate is a pure function of (seed,
path_count) and this constant.

numpy and scipy are imported inside the functions that build arrays, so
that importing the package, and the closed-form CLI commands, do not
load them.

``ndtri`` is resolved once per process, by the calling thread before any
helper starts, and handed to ``_draw``.  If ``scipy.special`` is already
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
from typing import TYPE_CHECKING, Callable

from .claims import CapitalStructure, _claims
from .errors import ValidationError, check, check_range, checked_exp
from .record import Record, slot_setters
from .scenario import MCConfig

if TYPE_CHECKING:
    import numpy as np

_COARSE_POINTS = 64
# A coarse peak must beat its grid neighbours by more than this many ulps of
# V e^{-q tau}, the scale of the two calls whose difference is the junior value.
_PEAK_ULPS = 8
# Normals drawn per chunk of the Monte-Carlo stream.  Each of the two threads
# holds four float64 buffers of a chunk and its raw draws, 2.5 MiB; the traced
# peak of a 2M-path call is 5.0 MiB.  Estimates depend on it through the order
# of the final sums.
_CHUNK_DRAWS = 1 << 16
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class MCEstimate(Record):
    """Monte-Carlo price with its standard error and path count."""

    __slots__ = ("mean", "std_error", "path_count")

    def __init__(self, mean: float, std_error: float, path_count: int) -> None:
        _set_mean(self, mean)
        _set_std_error(self, std_error)
        _set_path_count(self, path_count)


_set_mean, _set_std_error, _set_path_count = slot_setters(MCEstimate)


class GridSpec(Record):
    """Search interval and convergence tolerance for the numeric argmax."""

    __slots__ = ("lower", "upper", "tolerance")

    def __init__(self, lower: float, upper: float, tolerance: float) -> None:
        check("grid.lower", lower, "finite and > 0")
        check_range("search interval", lower, upper)
        check("tolerance", tolerance, "finite and > 0")
        _set_lower(self, lower)
        _set_upper(self, upper)
        _set_tolerance(self, tolerance)


_set_lower, _set_upper, _set_tolerance = slot_setters(GridSpec)


def simulate_terminal_values(cs: CapitalStructure, mc: MCConfig) -> np.ndarray:
    """Draw terminal asset values in a single exact step.

    V_T = V exp((r - q - sigma^2/2) tau + sigma sqrt(tau) Z).  The output
    interleaves antithetic pairs (Z_i, -Z_i): element 2i uses Z_i and
    element 2i+1 uses -Z_i.  The whole stream goes through ``_draw``, the
    draw function that ``mc_claim_values`` runs on each chunk.
    """
    import numpy as np

    values = np.empty((mc.path_count // 2, 2))
    # Rows 0 and 1 of values.T are the up and down columns, so values is
    # already interleaved and the peak is the output and the raw draws.
    _draw(cs, np.random.Philox(key=mc.seed).random_raw(len(values)), values.T, _ndtri())
    return values.ravel()


def mc_claim_values(
    cs: CapitalStructure, mc: MCConfig
) -> tuple[MCEstimate, MCEstimate, MCEstimate]:
    """Discounted Monte-Carlo estimates of (senior, junior, equity) values.

    Each mean is e^{-r tau} times the average claim payoff over the
    simulated terminal values, so the three means sum to the discounted
    average terminal value.  The sampling unit for the standard error is
    the average of each antithetic (Z, -Z) pair.  Units are reduced one
    chunk at a time, by two threads when there are two or more chunks, so
    memory does not grow with path_count.

    Raises:
        ValidationError: If the discount factor overflows, or a mean or
            standard error is not finite (simulated values or their sums
            leave the float range).
    """
    discount = checked_exp(-cs.rate * cs.maturity, "discount factor")
    moments = [(0, 0.0, 0.0)] * 3
    for size, claims in _chunk_moments(cs, mc, discount):
        for claim, (chunk_mean, chunk_m2) in enumerate(claims):
            moments[claim] = _merge_moments(moments[claim], size, chunk_mean, chunk_m2)
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


def _draw(
    cs: CapitalStructure, raw: np.ndarray, buffers: np.ndarray, ndtri: np.ufunc
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal values at Z and -Z from the raw Philox outputs ``raw``.

    Shifts ``raw`` in place, maps it to normals with ``ndtri``, writes the
    values at Z and -Z into rows 0 and 1 of ``buffers`` and returns those
    rows cut to ``raw.size``.  Each value takes the operations of
    V exp(drift +- shock z) in their order, so it has the bits of the same
    expression over new arrays, whatever the strides of ``buffers``.
    """
    import numpy as np

    drift = (cs.rate - cs.dividend_yield - 0.5 * cs.volatility * cs.volatility) * cs.maturity
    shock = cs.volatility * math.sqrt(cs.maturity)
    up, down = buffers[0, : raw.size], buffers[1, : raw.size]
    np.right_shift(raw, 11, out=raw)
    # raw >> 11 < 2**53 converts to float64 exactly from either integer
    # type, and numpy's cast from int64 is about ten times faster.
    down[...] = raw.view(np.int64)
    down += 0.5
    down *= 2.0**-53
    ndtri(down, out=down)
    down *= shock
    np.add(drift, down, out=up)
    # drift + shock * (-z) == drift - shock * z exactly in IEEE arithmetic.
    np.subtract(drift, down, out=down)
    for values in (up, down):
        np.exp(values, out=values)
        values *= cs.asset_value
    return up, down


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


def _chunk_moments(
    cs: CapitalStructure, mc: MCConfig, discount: float
) -> list[tuple[int, list[tuple[float, float]]]]:
    """Per chunk, in stream order, its size and each claim's (mean, M2).

    With two or more chunks, two threads run the chunk kernel: the caller
    and one helper.  Each claims the next chunk's index and start, draws
    it from a Philox of its own set to that start, reduces it in its own
    buffers and stores the result at that index.  The first error stops
    both at their next chunk and is raised here.
    """
    import threading

    import numpy as np

    n_draws = mc.path_count // 2
    chunk = min(_CHUNK_DRAWS, n_draws)
    # next() on this C iterator does not release the GIL, so each chunk goes
    # to exactly one thread.
    chunks = enumerate(range(0, n_draws, chunk))
    # Resolved before the helper starts: _ndtri's cache takes no lock, and a
    # thread that resolved it while the other imports _ufuncs would get the
    # stub scipy.special.
    ndtri = _ndtri()
    per_chunk = [None] * -(-n_draws // chunk)
    errors = []

    def reduce(index: int, start: int, buffers: np.ndarray) -> None:
        """Draw and reduce the chunk at ``start``; its raw array is freed on return."""
        # Philox gives four raw outputs per counter step, so draw ``start``
        # is output start % 4 of counter step start // 4.
        philox = np.random.Philox(key=mc.seed, counter=start // 4)
        philox.random_raw(start % 4)
        raw = philox.random_raw(min(chunk, n_draws - start))
        up, down = _draw(cs, raw, buffers, ndtri)
        scratch = buffers[2:, : raw.size]
        per_chunk[index] = raw.size, _claim_moments(cs, discount, up, down, scratch)

    def kernel(buffers: np.ndarray) -> None:
        try:
            # errstate is per thread.  Overflow turns into inf or NaN
            # moments, which mc_claim_values refuses as one error.
            with np.errstate(over="ignore", invalid="ignore"):
                for index, start in chunks:
                    if errors:
                        break
                    reduce(index, start, buffers)
        except BaseException as exc:  # raised again by the caller
            errors.append(exc)

    # The caller allocates the helper's buffers too: allocated in the helper,
    # they would come from a second malloc arena and add to the peak RSS.
    buffers = np.empty((min(len(per_chunk), 2), 4, chunk))
    helper = None
    if len(buffers) > 1:
        helper = threading.Thread(target=kernel, args=(buffers[1],))
        helper.start()
    try:
        kernel(buffers[0])
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return per_chunk


def _claim_moments(
    cs: CapitalStructure,
    discount: float,
    up: np.ndarray,
    down: np.ndarray,
    scratch: np.ndarray,
) -> list[tuple[float, float]]:
    """Per claim, (mean, M2) of a chunk's discounted payoffs averaged over each pair.

    The payoffs take the operations of ``claim_payoffs`` in their order,
    so each unit has the bits of one formed from new arrays.  Overwrites
    ``up``, ``down`` and both rows of ``scratch``.
    """
    import numpy as np

    a, b = scratch
    np.minimum(up, cs.senior_face, out=a)
    np.minimum(down, cs.senior_face, out=b)
    moments = [_unit_moments(a, b, discount)]
    up -= cs.senior_face
    down -= cs.senior_face
    np.clip(up, 0.0, cs.junior_face, out=a)
    np.clip(down, 0.0, cs.junior_face, out=b)
    moments.append(_unit_moments(a, b, discount))
    for excess in (up, down):
        excess -= cs.junior_face
        np.maximum(excess, 0.0, out=excess)
    moments.append(_unit_moments(up, down, discount))
    return moments


def _unit_moments(up: np.ndarray, down: np.ndarray, discount: float) -> tuple[float, float]:
    """(mean, M2) of the units 0.5 * (discount * up + discount * down).

    M2 is the sum of squared deviations from the mean.  Both sums are
    numpy's pairwise sum: a BLAS dot would follow the thread count.
    The units are formed in ``up``, and ``down`` is scaled in place.
    """
    import numpy as np

    up *= discount
    down *= discount
    up += down
    up *= 0.5
    mean = float(np.add.reduce(up)) / up.size
    up -= mean
    up *= up
    return mean, float(np.add.reduce(up))


def _merge_moments(
    moments: tuple[int, float, float], size: int, chunk_mean: float, chunk_m2: float
) -> tuple[int, float, float]:
    """Merge a chunk's (size, mean, M2) into the running (count, mean, M2).

    Chan, Golub and LeVeque's pairwise update.
    """
    count, mean, m2 = moments
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
        ValidationError: If lower < upper fails or either is not finite,
            or if tolerance is not finite and > 0.
    """
    check_range("search interval", lower, upper)
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

    sigmas = np.geomspace(grid.lower, grid.upper, _COARSE_POINTS).tolist()
    values = [_claims(cs, s)[1] for s in sigmas]
    peak = values.index(max(values))  # the first maximum; no junior value is NaN
    if peak == 0:
        return None
    forward = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
    neighbours = values[peak - 1 : peak + 2 : 2]  # only the left at the right end
    if values[peak] - max(neighbours) <= _PEAK_ULPS * math.ulp(forward):
        return None
    lo = sigmas[peak - 1]
    hi = sigmas[peak + 1] if peak + 1 < len(sigmas) else sigmas[-1]
    return golden_section_max(lambda s: _claims(cs, s)[1], lo, hi, grid.tolerance)


def finite_diff_vega(cs: CapitalStructure, bump: float) -> float:
    """Central-difference junior-debt vega, [B_J(sigma+h) - B_J(sigma-h)] / 2h.

    Raises:
        ValidationError: If bump <= 0, sigma - bump <= 0, or
            sigma + bump == sigma - bump in float arithmetic.
    """
    check("bump", bump, "finite and > 0")
    sigma = cs.volatility
    if not sigma - bump > 0.0:
        raise ValidationError(f"bump {bump} too large for volatility {sigma}")
    if sigma + bump == sigma - bump:
        raise ValidationError(f"bump {bump} vanishes against volatility {sigma}")
    return (_claims(cs, sigma + bump)[1] - _claims(cs, sigma - bump)[1]) / (2.0 * bump)

"""Independent verification engines for the closed-form results.

Three routes that do not share code with the formulas they check:
Monte-Carlo pricing from simulated terminal asset values, a numeric
argmax that finds where the junior-debt vega changes sign, and central
finite differences for the junior-debt vega.  The finite difference
differences the kernel's junior value, ``claims._claims(cs, sigma)[1]``,
on the caller's validated structure.  The argmax takes the vega by a
complex step, Im B_J(sigma + ih) / h, with the junior value
B_J = C(F_S) - C(F_S + F_J) written for complex sigma over scipy's
complex ``ndtr`` loop: the imaginary part carries the derivative without
the subtractive cancellation of a real difference.  Neither reads the
kernel's vega or the closed-form sigma*, the results they check.

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
``mc_claim_values`` cuts the stream into chunks of ``_CHUNK_DRAWS``
normals.  Chunk i is drawn from a Philox of its own, keyed by the seed
and set to the chunk's start, and reduced to per-claim (count, mean, M2)
in buffers allocated once per call.  With two or more chunks two threads
do this, the caller and one helper, each claiming the next chunk, so
memory is two chunks plus one small result per chunk, whatever
path_count is.  Each thread holds three float64 rows of a chunk, the values
at Z and two rows of scratch, and the chunk's raw draws, whose memory
then holds the values at -Z: 2 MiB per thread.  Under tracemalloc a
200k-path call peaks at 3.5 MiB and a 2M-path call at 4.0 MiB (4.8 and
5.0 MiB with a fourth row that held a float64 copy of the raw draws).
The per-chunk moments are merged in chunk order once both threads are
done, so an estimate does not depend on which thread reduced which
chunk.  The merged sums depend on where the chunks end, so the fixed
chunk size is part of the estimate's contract: an estimate is a pure
function of (seed, path_count) and this constant.

numpy and scipy are imported inside the functions that build arrays, so
that importing the package, and the closed-form CLI commands, do not
load them.

``ndtri``, ``ndtr`` and the ``Philox`` class are each resolved once per
process, by the calling thread before any helper starts.  They come from
compiled modules of packages whose ``__init__`` loads much more, and one
route serves all three (``_compiled_member``).  If the package
(``scipy.special``, ``numpy.random``) is already loaded, its member is
used.  Otherwise numpy is imported, and the member is taken from the
compiled module (``scipy.special._ufuncs``, ``numpy.random._philox``),
imported while a meta-path finder serves each package under the same
top-level name that is not yet loaded as a bare namespace package (PEP
420) over its own directory: ``scipy``, ``scipy._lib`` and
``scipy.special``, or ``numpy.random``.  No package ``__init__`` runs,
and once the import returns, the finder and the bare packages are gone,
from ``sys.modules`` and from their parents' attributes.
``scipy/__init__`` loads, through ``scipy._lib``, scipy's test utilities
(with ``subprocess``, ``selectors``, ``signal``, ``sysconfig`` and
``locale``), its version parser and its build configuration: with numpy
loaded, ``ndtri`` took a median 6.3 ms (5.6-10.6) to resolve by this
route, against 18.3 ms (13.2-25.1) while the route imported the real
``scipy`` (21 interleaved processes each, on a 2-vCPU Xeon with scipy
1.17.1).  ``scipy.special``'s ``__init__`` also loads ``numpy.f2py`` and
scipy's array-API backends: ``from scipy.special import ndtri`` took
270-410 ms on the same machine.  ``numpy.random``'s loads every
generator, ``RandomState`` and the distributions: 13-17 ms and 5.5 MB of
resident memory with numpy loaded, against 5-8 ms and 4.1 MB for
``_philox`` and the two modules it needs, most of it the ``hashlib``
that ``numpy.random.bit_generator`` loads through ``secrets`` (numpy
2.4, the same machine).  The members are the same objects, so a later
``import scipy.special`` or ``import numpy.random`` works and yields
them.  A module loaded under a bare package is not an attribute of the
real package imported later unless that package's ``__init__`` binds
it: ``numpy.random.bit_generator``, ``scipy._lib._ccallback`` and
``scipy._cyutility`` are then missing as attributes, while ``from
numpy.random import bit_generator`` works.  That module layout is
private to each package, so on any failure the route falls back to
importing the package.
"""

from __future__ import annotations

import functools
import math
import sys
from importlib.machinery import ModuleSpec, PathFinder
from typing import TYPE_CHECKING, Any

from .claims import CapitalStructure, _claims
from .errors import ValidationError, check, check_range, checked_exp
from .record import Record, slot_setters
from .scenario import MCConfig

if TYPE_CHECKING:
    import numpy as np

_GRID_POINTS = 64  # of the argmax's grid, and of each round that shrinks its bracket
_STEP = 1e-10  # the complex step of the argmax's vega, per unit of sigma
# Normals drawn per chunk of the Monte-Carlo stream.  Each of the two threads
# holds three float64 rows of a chunk and its raw draws, 2 MiB; the traced
# peak of a 2M-path call is 4.0 MiB.  Estimates depend on it through the order
# of the final sums.
_CHUNK_DRAWS = 1 << 16


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


def _draw(
    cs: CapitalStructure, raw: np.ndarray, up: np.ndarray, down: np.ndarray, ndtri: np.ufunc
) -> None:
    """Terminal values at Z and -Z, into ``up`` and ``down``, from the raw
    Philox outputs ``raw``.

    Shifts ``raw`` in place and maps it to normals with ``ndtri``.
    ``down`` may be ``raw`` viewed as float64.  Each value takes the
    operations of V exp(drift +- shock z) in their order, so it has the
    bits of the same expression over new arrays, whatever the strides of
    ``up`` and ``down``.
    """
    import numpy as np

    drift = (cs.rate - cs.dividend_yield - 0.5 * cs.volatility * cs.volatility) * cs.maturity
    shock = cs.volatility * math.sqrt(cs.maturity)
    np.right_shift(raw, 11, out=raw)
    # raw >> 11 < 2**53 converts to float64 exactly from either integer
    # type, and numpy's cast from int64 is about ten times faster.  Where
    # down overlays raw, the cast assignment runs in place; a ufunc given
    # the int64 view as input and down as output would first copy raw.
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


@functools.cache
def _ndtri() -> np.ufunc:
    """scipy's ``ndtri`` ufunc, by the route the module docstring describes."""
    return _compiled_member("scipy.special", "_ufuncs", "ndtri")


@functools.cache
def _ndtr() -> np.ufunc:
    """scipy's ``ndtr`` ufunc, whose complex loop the argmax uses, by the same route."""
    return _compiled_member("scipy.special", "_ufuncs", "ndtr")


@functools.cache
def _philox() -> type:
    """numpy's ``Philox`` bit generator, by the route the module docstring describes."""
    return _compiled_member("numpy.random", "_philox", "Philox")


def _compiled_member(package: str, module: str, name: str) -> Any:
    """``name`` from ``package``, imported without any package ``__init__`` if it can be.

    If ``package`` is loaded, its own ``name``.  Otherwise ``name`` from
    the compiled ``package.module``, imported with a ``_BarePackages``
    finder first on ``sys.meta_path``, after numpy, which every compiled
    member links against, has been imported for real.  Afterwards the
    finder comes off ``sys.meta_path``, and each bare package it served
    comes out of ``sys.modules`` and off its parent's attributes.  An
    import of one of those packages from another thread in that window
    would get the bare package.  On any failure, ``name`` from the
    imported ``package``.
    """
    import importlib

    # Reading the package as an attribute would import it through its
    # parent's module __getattr__, so only sys.modules is consulted.
    loaded = sys.modules.get(package)
    if loaded is not None:
        return getattr(loaded, name)
    import numpy  # noqa: F401  (so that the finder never serves numpy itself)

    finder = _BarePackages(package.partition(".")[0])
    try:
        sys.meta_path.insert(0, finder)
        try:
            return getattr(importlib.import_module(f"{package}.{module}"), name)
        finally:
            sys.meta_path.remove(finder)
            for served in finder.served:
                bare = sys.modules.pop(served, None)
                parent, _, child = served.rpartition(".")
                holder = sys.modules.get(parent)
                if bare is not None and holder is not None and vars(holder).get(child) is bare:
                    delattr(holder, child)
    except Exception:  # any change to the package's private layout
        return getattr(importlib.import_module(package), name)


class _BarePackages:
    """A meta-path finder that serves each package under ``top`` as a bare package.

    The import system asks it only for modules not yet loaded.  For a
    package that ``PathFinder`` finds under ``top``, it returns a spec
    with no loader over the same directories, from which the import
    system builds a namespace package (PEP 420): no ``__init__`` runs,
    and the module has no ``__file__``.  It records the name of each
    package it serves in ``served``.  Modules that are not packages it
    leaves to the rest of ``sys.meta_path``.
    """

    def __init__(self, top: str) -> None:
        self.top = top
        self.served: list[str] = []

    def find_spec(self, fullname: str, path: Any = None, target: Any = None) -> ModuleSpec | None:
        if fullname.partition(".")[0] != self.top:
            return None
        found = PathFinder.find_spec(fullname, path)
        if found is None or found.submodule_search_locations is None:
            return None
        spec = ModuleSpec(fullname, None)
        spec.submodule_search_locations = found.submodule_search_locations
        self.served.append(fullname)
        return spec


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
    # Resolved before the helper starts: the caches take no lock, and a
    # thread that resolved one while the other imports under a stub would
    # get the stub package.
    ndtri, philox = _ndtri(), _philox()
    per_chunk = [None] * -(-n_draws // chunk)
    errors = []

    def reduce(index: int, start: int, buffers: np.ndarray) -> None:
        """Draw and reduce the chunk at ``start``; its raw array is freed on return."""
        # Philox gives four raw outputs per counter step, so draw ``start``
        # is output start % 4 of counter step start // 4.
        generator = philox(key=mc.seed, counter=start // 4)
        generator.random_raw(start % 4)
        raw = generator.random_raw(min(chunk, n_draws - start))
        # The values at -Z overwrite the raw draws they come from.
        up, scratch, down = buffers[0, : raw.size], buffers[1:, : raw.size], raw.view(np.float64)
        _draw(cs, raw, up, down, ndtri)
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
    buffers = np.empty((min(len(per_chunk), 2), 3, chunk))
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

    The payoffs at maturity are senior = min(V_T, F_S), junior =
    clip(V_T - F_S, 0, F_J) and equity = max(V_T - F_S - F_J, 0), each
    formed by those operations in that order, so each unit has the bits of
    one formed from new arrays (the tests' ``claim_payoffs`` forms them
    so).  Overwrites ``up``, ``down`` and both rows of ``scratch``.
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


def argmax_sigma_numeric(cs: CapitalStructure, grid: GridSpec) -> float | None:
    """Numerically locate the volatility maximizing the junior-bond value.

    It is the first + to - sign change of ``_junior_vega`` on a 64-point geometric
    grid over [lower, upper], where a vega counts as positive only above the smallest
    normal float (saturated calls leave subnormal noise).  64-point rounds shrink the
    bracket to ``grid.tolerance``, or until one no longer narrows it, and its midpoint
    is returned; ``grid.upper`` when no vega falls after the first positive one.

    None when no vega at the 64 grid points exceeds the smallest normal float.  That
    is not "no maximizer in [lower, upper]": a coarse grid can step over the band
    where the vega is a normal float.  ``GridSpec(1e-300, 1.5, 1e-6)`` on
    ``CapitalStructure(62, 60, 10, 0.2, 1, 0.01)`` gives None, though sigma* =
    0.2619 lies inside.
    """
    import numpy as np

    points = np.geomspace(grid.lower, grid.upper, _GRID_POINTS).tolist()
    rising = (_junior_vega(cs, points) > sys.float_info.min).tolist()
    if True not in rising:
        return None
    fall = [*rising, False].index(False, rising.index(True))
    lo, hi = points[fall - 1], [*points, grid.upper][fall]
    while (width := hi - lo) > grid.tolerance:
        points = np.linspace(lo, hi, _GRID_POINTS).tolist()
        rising = (_junior_vega(cs, points[1:-1]) > sys.float_info.min).tolist()
        fall = [True, *rising, False].index(False)
        lo, hi = points[fall - 1], points[fall]
        if not hi - lo < width:
            break
    return 0.5 * (lo + hi)


def _junior_vega(cs: CapitalStructure, sigmas: list[float]) -> np.ndarray:
    """Complex-step junior vega Im B_J(sigma + ih) / h, h = _STEP * sigma, at ``sigmas``.

    Each call of B_J is V e^{-q tau} N(d1) - K e^{-r tau} N(d2).  A vega is 0, inf or
    NaN, with no warning, where sigma or h underflows or d1 overflows.  ValidationError
    where the discount factor, the discounted total face or sigma^2 / 2 * tau overflows.
    """
    import numpy as np

    tau, top = cs.maturity, sigmas[-1]
    check("sigma^2 / 2 * tau", 0.5 * top * top * tau, "finite")
    discount = checked_exp(-cs.rate * tau, "discount factor")
    check("discounted total face", cs.total_face * discount, "finite")
    forward = cs.asset_value * math.exp(-cs.dividend_yield * tau)
    step = _STEP * np.array(sigmas)
    with np.errstate(all="ignore"):
        shock = (1j * step + sigmas) * math.sqrt(tau)
        drift = (cs.rate - cs.dividend_yield) * tau + 0.5 * shock * shock
        calls = []
        for face in (cs.senior_face, cs.total_face):  # log V - log K cannot underflow as V / K can
            d1 = (math.log(cs.asset_value) - math.log(face) + drift) / shock
            calls.append(forward * _ndtr()(d1) - face * discount * _ndtr()(d1 - shock))
        return (calls[0] - calls[1]).imag / step


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

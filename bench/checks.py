"""Reference values and per-operation checks for the benchmark.

Everything here is written from the model's formulas, not imported from
`subdebt`, so a check does not pass merely because the program agrees
with itself.  Each check returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Copies of the tolerances `subdebt verify` documents (see src/subdebt/cli.py).
# They are held here so that a change to the program cannot loosen them.
SE_MULTIPLE = 3.0
SE_SLACK = 1e-9
DEGENERATE_SE_SCALE = 1e-12
RULE_OF_THREE = 7.0
ARGMAX_TOL = 1e-4
VEGA_BUMP = 1e-5
VEGA_RELTOL = 1e-6
VEGA_NEAR_ZERO_SCALE = 1e-8
STATIONARY_SCALE = 1e-6

# Tolerances of the benchmark's own invariants, as a share of the firm's
# scale max(V, F_S + F_J) (or of the value compared, for thresholds).
SUM_TOL = 1e-11
BOUND_TOL = 1e-12
THRESHOLD_RELTOL = 1e-12
SIGMA_STAR_TOL = 1e-9
MPMATH_TOL = 1e-11
# The program's MC means may differ from the reference only by summation order.
MC_REFERENCE_TOL = 1e-12
# Junior values this close are equal to rounding at the asset scale.
PLATEAU_RELTOL = 1e-13
# Points this close to a threshold have no meaningful sign or regime.
TIE_RELTOL = 1e-9

MP_DIGITS = 50
MC_CHUNK_PAIRS = 1 << 16
GENERATOR_CONTRACT = "Philox4x64-10 keyed by seed; u = ((raw >> 11) + 0.5) * 2**-53; z = scipy.special.ndtri(u); antithetic (z, -z)"


class Firm(NamedTuple):
    """One capital structure: asset value, faces and market parameters."""

    V: float
    FS: float
    FJ: float
    sigma: float
    tau: float
    r: float
    q: float = 0.0

    @property
    def scale(self) -> float:
        return max(self.V, self.FS + self.FJ)


def shift_threshold(f: Firm, sigma: float) -> float:
    return math.exp(-(f.r - f.q + 0.5 * sigma * sigma) * f.tau) * math.sqrt(
        f.FS * (f.FS + f.FJ)
    )


def hump_threshold(f: Firm) -> float:
    return math.exp(-(f.r - f.q) * f.tau) * math.sqrt(f.FS * (f.FS + f.FJ))


def sigma_star(f: Firm) -> float | None:
    """Closed-form junior-value maximizer, None above the hump threshold."""
    radicand = (
        math.log(f.FS / f.V) + math.log((f.FS + f.FJ) / f.V)
    ) / f.tau - 2.0 * f.r + 2.0 * f.q
    return math.sqrt(radicand) if radicand > 0.0 else None


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_RELTOL * abs(b)


def _ncdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def closed_claims(f: Firm) -> tuple[float, float, float]:
    """(senior, junior, equity) in double precision, for the MC screen."""
    forward = f.V * math.exp(-f.q * f.tau)
    disc = math.exp(-f.r * f.tau)
    if f.sigma == 0.0:
        calls = [max(forward - k * disc, 0.0) for k in (f.FS, f.FS + f.FJ)]
        put = max(f.FS * disc - forward, 0.0)
    else:
        sst = f.sigma * math.sqrt(f.tau)

        def d1(k):
            return (math.log(f.V / k) + (f.r - f.q + 0.5 * f.sigma**2) * f.tau) / sst

        calls = [
            forward * _ncdf(d1(k)) - k * disc * _ncdf(d1(k) - sst)
            for k in (f.FS, f.FS + f.FJ)
        ]
        put = f.FS * disc * _ncdf(sst - d1(f.FS)) - forward * _ncdf(-d1(f.FS))
    return f.FS * disc - put, calls[0] - calls[1], calls[1]


def mp_claims(f: Firm) -> tuple[float, float, float, float | None]:
    """(senior, junior, equity, junior vega) at 50 significant digits."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        V, FS, FJ, s, t, r, q = (mpmath.mpf(x) for x in f)
        forward = V * mpmath.exp(-q * t)
        disc = mpmath.exp(-r * t)
        if s == 0:
            calls = [max(forward - k * disc, 0) for k in (FS, FS + FJ)]
            put = max(FS * disc - forward, 0)
            vega = None
        else:
            sst = s * mpmath.sqrt(t)
            d1 = [(mpmath.log(V / k) + (r - q + s * s / 2) * t) / sst for k in (FS, FS + FJ)]
            calls = [
                forward * mpmath.ncdf(x) - k * disc * mpmath.ncdf(x - sst)
                for x, k in zip(d1, (FS, FS + FJ))
            ]
            put = FS * disc * mpmath.ncdf(sst - d1[0]) - forward * mpmath.ncdf(-d1[0])
            vegas = [forward * mpmath.sqrt(t) * mpmath.npdf(x) for x in d1]
            vega = float(vegas[0] - vegas[1])
        return float(FS * disc - put), float(calls[0] - calls[1]), float(calls[1]), vega


def check_claims(f: Firm, senior: float, junior: float, equity: float, vega) -> list[str]:
    """Claims sum to V e^{-q tau}, tranches lie in [0, F e^{-r tau}], and the
    junior vega's sign agrees with the risk-shift threshold at sigma."""
    problems = []
    scale = f.scale
    forward = f.V * math.exp(-f.q * f.tau)
    disc = math.exp(-f.r * f.tau)
    values = (senior, junior, equity)
    if not all(math.isfinite(x) for x in values):
        return [f"non-finite claim values {values}"]
    if abs(senior + junior + equity - forward) > SUM_TOL * scale:
        problems.append(f"claims sum {senior + junior + equity!r} != V e^(-q tau) {forward!r}")
    slack = BOUND_TOL * scale
    for name, value, upper in (
        ("senior", senior, f.FS * disc),
        ("junior", junior, f.FJ * disc),
        ("equity", equity, forward),
    ):
        if not -slack <= value <= upper + slack:
            problems.append(f"{name} {value!r} outside [0, {upper!r}]")
    if vega is not None:
        threshold = shift_threshold(f, f.sigma)
        tiny = BOUND_TOL * scale
        if not _near(f.V, threshold):
            if f.V < threshold and vega < -tiny:
                problems.append(f"vega {vega!r} < 0 below the shift threshold {threshold!r}")
            if f.V > threshold and vega > tiny:
                problems.append(f"vega {vega!r} > 0 above the shift threshold {threshold!r}")
    return problems


def check_profile(
    f: Firm,
    initial_sigma: float,
    shift: float,
    hump: float,
    best: float | None,
    hump_shaped: bool,
    chosen: float,
) -> list[str]:
    """Thresholds match their formulas, the regime agrees with the hump
    threshold, and the chosen risk follows the shifting rule."""
    problems = []
    want_shift = shift_threshold(f, initial_sigma)
    want_hump = hump_threshold(f)
    if abs(shift - want_shift) > THRESHOLD_RELTOL * want_shift:
        problems.append(f"shift threshold {shift!r} != {want_shift!r}")
    if abs(hump - want_hump) > THRESHOLD_RELTOL * want_hump:
        problems.append(f"hump threshold {hump!r} != {want_hump!r}")
    if _near(f.V, want_hump):
        return problems
    want_best = sigma_star(f)
    if hump_shaped != (f.V < want_hump) or (best is None) != (want_best is None):
        problems.append(f"regime hump={hump_shaped} sigma*={best!r} at V={f.V!r}, H={want_hump!r}")
        return problems
    if best is not None and abs(best - want_best) > SIGMA_STAR_TOL:
        problems.append(f"sigma* {best!r} != {want_best!r}")
    if not _near(f.V, want_shift):
        want_chosen = want_best if f.V < want_shift and want_best is not None else initial_sigma
        if abs(chosen - want_chosen) > SIGMA_STAR_TOL:
            problems.append(f"chosen risk {chosen!r} != {want_chosen!r}")
    return problems


def mpmath_error(f: Firm, senior: float, junior: float, equity: float, vega) -> float:
    """Largest error against the 50-digit reference, as a share of the scale."""
    ref = mp_claims(f)
    errors = [abs(a - b) for a, b in zip((senior, junior, equity), ref[:3])]
    if vega is not None and ref[3] is not None:
        errors.append(abs(vega - ref[3]))
    return max(errors) / f.scale


def check_mc(
    f: Firm, closed: tuple[float, float, float], estimates, paths: int
) -> list[str]:
    """The `verify` rule: 3 SE + 1e-9, or the rule-of-three bound when the
    payoff sample is degenerate.  `estimates` holds (mean, std_error) pairs."""
    disc = math.exp(-f.r * f.tau)
    bounds = (f.FS * disc, f.FJ * disc, f.V * math.exp(-f.q * f.tau))
    problems = []
    for name, value, (mean, se), bound in zip(
        ("senior", "junior", "equity"), closed, estimates, bounds
    ):
        diff = abs(value - mean)
        ok = diff <= SE_MULTIPLE * se + SE_SLACK
        if not ok and se < DEGENERATE_SE_SCALE * bound:
            ok = diff <= RULE_OF_THREE * bound / paths
        if not ok:
            problems.append(f"MC {name} {mean!r} +- {se!r} vs closed {value!r}")
    return problems


def check_argmax(closed: float | None, numeric: float | None) -> list[str]:
    if closed is None or numeric is None:
        ok = closed is None and numeric is None
    else:
        ok = abs(closed - numeric) < ARGMAX_TOL
    return [] if ok else [f"argmax {numeric!r} vs closed {closed!r}"]


def spurious_peak(f: Firm, closed: float | None, numeric: float | None, lower: float) -> bool:
    """The numeric argmax reports a peak where the closed form has none, and
    the junior value at that peak equals its value at the grid's lower end
    to rounding: both calls of the spread are saturated there, so the
    coarse grid compares rounding noise (a known defect of this version)."""
    if closed is not None or numeric is None:
        return False
    at_peak = closed_claims(f._replace(sigma=numeric))[1]
    at_lower = closed_claims(f._replace(sigma=lower))[1]
    return abs(at_peak - at_lower) <= PLATEAU_RELTOL * f.FJ


def vega_below_resolution(f: Firm, analytic: float, numeric: float) -> bool:
    """The finite-difference vega misses the relative tolerance by no more
    than the rounding of the two junior values it differences: a vega this
    small is below what a bump of VEGA_BUMP resolves (a known defect of
    the `verify` tolerance, which only exempts |vega| < 1e-8 V)."""
    rounding = 4.0 * 2.0**-52 * (f.V + f.FS + f.FJ) / (2.0 * VEGA_BUMP)
    return abs(numeric - analytic) <= rounding


def check_vega(f: Firm, analytic: float, numeric: float) -> list[str]:
    if abs(analytic) < VEGA_NEAR_ZERO_SCALE * f.V:
        ok = abs(numeric) < STATIONARY_SCALE * f.V
    else:
        ok = abs(numeric - analytic) / abs(analytic) < VEGA_RELTOL
    return [] if ok else [f"finite-difference vega {numeric!r} vs analytic {analytic!r}"]


def mc_reference(firms: list[Firm], seed: int, paths: int) -> list[list[tuple[float, float]]]:
    """Antithetic MC (mean, std_error) of each claim, for firms sharing one
    (seed, paths), drawn from the frozen generator contract in fixed-size
    chunks so that memory does not grow with `paths`.  numpy and scipy are
    imported here, not at module level, so that the benchmark's own imports
    do not hide a change in what the program imports."""
    import numpy as np
    from scipy.special import ndtri

    bitgen = np.random.Philox(key=seed)
    pairs_left = paths // 2
    n = pairs_left
    sums = np.zeros((len(firms), 3))
    squares = np.zeros((len(firms), 3))
    disc = [math.exp(-f.r * f.tau) for f in firms]
    while pairs_left:
        size = min(MC_CHUNK_PAIRS, pairs_left)
        pairs_left -= size
        z = ndtri(((bitgen.random_raw(size) >> 11).astype(np.float64) + 0.5) * 2.0**-53)
        for i, f in enumerate(firms):
            drift = (f.r - f.q - 0.5 * f.sigma * f.sigma) * f.tau
            shock = f.sigma * math.sqrt(f.tau)
            for k, sign in enumerate((1.0, -1.0)):
                vt = f.V * np.exp(drift + shock * sign * z)
                claims = (
                    np.minimum(vt, f.FS),
                    np.clip(vt - f.FS, 0.0, f.FJ),
                    np.maximum(vt - f.FS - f.FJ, 0.0),
                )
                if k == 0:
                    first = claims
                    continue
                for c, (a, b) in enumerate(zip(first, claims)):
                    units = 0.5 * disc[i] * (a + b)
                    sums[i, c] += units.sum()
                    squares[i, c] += (units * units).sum()
    means = sums / n
    variances = np.maximum(squares / n - means * means, 0.0) * n / (n - 1)
    return [
        [(float(means[i, c]), float(math.sqrt(variances[i, c] / n))) for c in range(3)]
        for i in range(len(firms))
    ]

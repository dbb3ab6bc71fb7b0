"""Tests for the Monte-Carlo, argmax, and finite-difference oracles."""

import functools
import importlib
import json
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    claim_payoffs,
    child_env,
    distressed_structures,
    exp_loop,
    rebuilt,
    structure,
    terminal_values,
    whole_domain_structures,
)
from golden.regenerate import library_structures
import subdebt.oracle as oracle
import subdebt.risk as risk
from subdebt import (
    CapitalStructure,
    GridSpec,
    MCConfig,
    ValidationError,
    argmax_sigma_numeric,
    finite_diff_vega,
    junior_debt_vega,
    mc_claim_values,
    optimal_volatility,
    value_all_claims,
)
from subdebt.verify import ARGMAX_GRID, ARGMAX_TOL, VEGA_BUMP

SEARCH_GRID = GridSpec(lower=0.01, upper=1.5, tolerance=1e-6)

# Library structures (``tests/golden/library.txt``) whose sigma*, about 0.0117
# and 0.0123, lies inside ARGMAX_GRID where the junior vega underflows to 0:
# no vega formed in float64 brackets their maximizer.
UNDECIDED_HUMPS = {27, 171}

# The bundled scenario whose ``verify`` JSON the probes below print.
SCENARIO = str(Path(__file__).resolve().parents[1] / "scenarios" / "distressed.ini")
VERIFY = ["verify", "--scenario", SCENARIO, "--paths", "200000", "--format", "json"]

# Prints the std-error reprs of 200k-path estimates for three structures,
# then the ``verify`` report its arguments ask for.
_STD_ERROR_PROBE = """\
import sys
from subdebt import CapitalStructure, MCConfig, mc_claim_values
from subdebt.cli import main
for v, q in ((62.0, 0.0), (100.0, 0.02), (64.0, 0.0)):
    cs = CapitalStructure(v, 60.0, 10.0, 0.2, 1.0, 0.01, q)
    for estimate in mc_claim_values(cs, MCConfig(200_000, 5)):
        print(repr(estimate.std_error))
sys.exit(main(sys.argv[1:]))
"""

# Runs the frozen-sequence structure at 200k paths, then the ``verify``
# command its remaining arguments name, by one route of the compiled
# members: the default, "import P" (package P imported first), or "break M"
# (the first import of module M made to fail, as a changed layout would,
# whichever module asks for it).  Prints the results; which of scipy,
# scipy._lib, scipy.special and numpy.random are left loaded, each as its
# file or "bare"; and which of numpy's random, and later the real scipy's
# special and _lib, are attributes without a file.
_ROUTE_PROBE = """\
import contextlib, hashlib, importlib, io, json, sys
action, _, name = sys.argv[1].partition(" ")
if action == "import":
    importlib.import_module(name)
if action == "break":

    class Broken:
        @staticmethod
        def find_spec(fullname, path=None, target=None):
            if fullname == name:
                sys.meta_path.remove(Broken)
                raise ImportError(f"{fullname} moved")
            return None

    sys.meta_path.insert(0, Broken)
import numpy as np
import subdebt.oracle as oracle
from subdebt import CapitalStructure, MCConfig, mc_claim_values
from subdebt.cli import main
cs = CapitalStructure(62.0, 60.0, 10.0, 0.262, 1.0, 0.01, 0.0)
mc = MCConfig(200_000, seed=42)
values = np.empty((mc.path_count // 2, 2))
raw = oracle._philox()(key=mc.seed).random_raw(len(values))
oracle._draw(cs, raw, values[:, 0], values[:, 1], oracle._ndtri())
terminal = values.ravel()
estimates = [[e.mean.hex(), e.std_error.hex()] for e in mc_claim_values(cs, mc)]
with contextlib.redirect_stdout(io.StringIO()) as report:
    code = main(sys.argv[2:])
left = {}
for package in ("scipy", "scipy._lib", "scipy.special", "numpy.random"):
    module = sys.modules.get(package)
    left[package] = None if module is None else getattr(module, "__file__", None) or "bare"


def bare(package, children):
    attributes = vars(package)
    return [
        f"{package.__name__}.{child}"
        for child in children
        if child in attributes and getattr(attributes[child], "__file__", None) is None
    ]


bare_attributes = bare(np, ["random"])
import scipy
bare_attributes += bare(scipy, ["special", "_lib"])
print(json.dumps({
    "head": terminal[:8].tolist(),
    "terminal": hashlib.sha256(terminal.tobytes()).hexdigest(),
    "estimates": estimates,
    "verify": [code, report.getvalue()],
    "left": left,
    "bare": bare_attributes,
}))
"""

# Runs a cold two-chunk mc_claim_values and prints each resolution of ndtri
# and Philox, and each stub import, with whether the main thread made it.
_RESOLVE_THREAD_PROBE = """\
import json, threading
import subdebt.oracle as oracle
from subdebt import CapitalStructure, MCConfig
resolved = []

def recording(resolve):
    def wrapper(*args):
        resolved.append([resolve.__name__, threading.current_thread() is threading.main_thread()])
        return resolve(*args)
    return wrapper

for name in ("_ndtri", "_philox", "_compiled_member"):
    setattr(oracle, name, recording(getattr(oracle, name)))
cs = CapitalStructure(62.0, 60.0, 10.0, 0.262, 1.0, 0.01, 0.0)
oracle.mc_claim_values(cs, MCConfig(131_074, seed=42))
print(json.dumps(resolved))
"""


def _bounded(f, limit=1000):
    """f, raising once it has been called more than ``limit`` times."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise RuntimeError(f"more than {limit} evaluations: the search does not end")
        return f(*args)

    return counted


_cs = functools.partial(structure, sigma=0.262)


@functools.cache
def _route(route):
    """What ``_ROUTE_PROBE`` prints for ``route`` and the 200k-path ``verify``."""
    return json.loads(_run_probe(_ROUTE_PROBE, route, *VERIFY))


def _assert_routes_agree(frozen, routes):
    """The default route and each of ``routes`` give the same terminal values,
    estimates and ``verify`` report.

    The default route leaves none of the probed packages loaded, and each of
    ``routes`` at least the packages it maps to.  Every package left loaded
    is the real one, and no route leaves a bare package as an attribute.
    """
    results = {}
    for route, real in {"default": set(), **routes}.items():
        result = dict(_route(route))
        left = {package: file for package, file in result.pop("left").items() if file}
        assert real <= left.keys(), route
        assert all(file.endswith("__init__.py") for file in left.values()), route
        assert result.pop("bare") == [], route
        results[route] = result
    assert not any(_route("default")["left"].values())
    default = results.pop("default")
    assert default["head"] == frozen
    assert default["verify"][0] == 0
    assert json.loads(default["verify"][1])["paths"] == 200_000
    for route, result in results.items():
        assert result == default, route


def _run_probe(probe, *args, **env_vars):
    """stdout of ``probe`` run with ``args`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=child_env(**env_vars),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestSimulation:
    # Philox(key=42) terminals for the distressed structure at sigma=0.262,
    # frozen to pin the documented generator contract.
    FROZEN = [
        76.92538701628185,
        47.5979083387598,
        48.04193731271746,
        76.21440193577192,
        81.04848862440122,
        45.17650584569007,
        56.416077367280025,
        64.90149069187468,
    ]

    def test_fixed_seed_reproduces_frozen_sequence(self):
        terminal = terminal_values(_cs(62.0), MCConfig(8, seed=42))
        assert terminal.tolist() == self.FROZEN

    def test_seed_changes_the_draws(self):
        a = terminal_values(_cs(62.0), MCConfig(8, seed=42))
        b = terminal_values(_cs(62.0), MCConfig(8, seed=43))
        assert not np.array_equal(a, b)

    def test_draw_depends_only_on_path_index(self):
        short = terminal_values(_cs(62.0), MCConfig(8, seed=42))
        long = terminal_values(_cs(62.0), MCConfig(16, seed=42))
        assert np.array_equal(long[:8], short)

    def test_antithetic_pairs_mirror_the_shock(self):
        cs = _cs(62.0)
        terminal = terminal_values(cs, MCConfig(1000, seed=7))
        drift = (cs.rate - 0.5 * cs.volatility**2) * cs.maturity
        z = (np.log(terminal / cs.asset_value) - drift) / (
            cs.volatility * math.sqrt(cs.maturity)
        )
        assert np.allclose(z[1::2], -z[0::2], atol=1e-12)

    def test_zero_volatility_is_deterministic_drift(self):
        cs = _cs(62.0, sigma=0.0, q=0.002)
        terminal = terminal_values(cs, MCConfig(64, seed=5))
        expected = 62.0 * math.exp(0.01 - 0.002)
        assert (terminal == expected).all()

    def test_discounted_terminal_mean_is_martingale(self):
        cs = _cs(62.0, q=0.015)
        terminal = terminal_values(cs, MCConfig(400_000, seed=9))
        discounted = math.exp(-cs.rate * cs.maturity) * terminal
        units = 0.5 * (discounted[0::2] + discounted[1::2])
        std_error = units.std(ddof=1) / math.sqrt(units.size)
        expected = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
        assert abs(units.mean() - expected) <= 3.0 * std_error

    def test_top_raw_value_maps_to_one(self, monkeypatch):
        # raw >> 11 = 2**53 - 1: k + 0.5 rounds half to even up to 2**53, so
        # u = 1.0 and ndtri(u) = inf, the one value outside the open interval.
        class TopRaw:
            def __init__(self, key, counter=None):
                pass

            def random_raw(self, size):
                return np.full(size, 2**64 - 1, dtype=np.uint64)

        ndtri = oracle._ndtri()
        uniforms = []

        def recording_ndtri(u, out=None):
            uniforms.extend(u.tolist())
            return ndtri(u, out=out)

        monkeypatch.setattr(oracle, "_philox", lambda: TopRaw)
        monkeypatch.setattr(oracle, "_ndtri", lambda: recording_ndtri)
        cs = _cs(62.0)
        assert terminal_values(cs, MCConfig(2, seed=1)).tolist() == [math.inf, 0.0]
        assert uniforms == [1.0]
        with pytest.raises(ValidationError, match="leave the float range"):
            mc_claim_values(cs, MCConfig(2, seed=1))

    def test_every_ndtri_route_gives_the_same_bits(self):
        scipy_special = {"scipy", "scipy._lib", "scipy.special"}
        _assert_routes_agree(
            self.FROZEN,
            {
                "import scipy.special": scipy_special,
                # scipy.special is served bare under the real scipy.
                "import scipy": {"scipy", "scipy._lib"},
                "break scipy.special._ufuncs": scipy_special,
                # The ufuncs' own import of a sibling fails mid-route.
                "break scipy._lib._ccallback": scipy_special,
            },
        )

    def test_every_philox_route_gives_the_same_bits(self):
        numpy_random = {"numpy.random"}
        _assert_routes_agree(
            self.FROZEN,
            {"import numpy.random": numpy_random, "break numpy.random._philox": numpy_random},
        )

    def test_only_the_calling_thread_resolves_ndtri(self):
        # The helper thread must not resolve ndtri or Philox: the caches take
        # no lock, and while _compiled_member imports, the package is a bare
        # stub.
        assert json.loads(_run_probe(_RESOLVE_THREAD_PROBE)) == [
            ["_ndtri", True],
            ["_compiled_member", True],
            ["_philox", True],
            ["_compiled_member", True],
        ]


class TestCompiledMember:
    """The route of ``_compiled_member`` on a throwaway package whose
    ``__init__`` files raise, apart from scipy's and numpy's layout."""

    @pytest.fixture(params=["bare", "loaded"])
    def package(self, request, tmp_path, monkeypatch):
        """``top.sub``, whose ``member`` imports a sibling.  ``sub/__init__.py``
        raises, and so does ``top/__init__.py`` unless ``top`` is imported
        first, as numpy is above ``numpy.random``."""
        top = f"throwaway_{request.param}"
        sub = tmp_path / top / "sub"
        sub.mkdir(parents=True)
        raising = "" if request.param == "loaded" else f'raise RuntimeError("{top} ran")\n'
        (tmp_path / top / "__init__.py").write_text(raising)
        (sub / "__init__.py").write_text(f'raise RuntimeError("{top}.sub ran")\n')
        (sub / "sibling.py").write_text("VALUE = 42\n")
        (sub / "member.py").write_text("from .sibling import VALUE\n")
        monkeypatch.syspath_prepend(tmp_path)
        if request.param == "loaded":
            importlib.import_module(top)
        yield f"{top}.sub"
        for name in [name for name in sys.modules if name.partition(".")[0] == top]:
            del sys.modules[name]

    @staticmethod
    def _assert_no_bare_package(package):
        top, _, child = package.partition(".")
        assert package not in sys.modules
        if top in sys.modules:
            assert sys.modules[top].__file__ is not None
            assert child not in vars(sys.modules[top])

    def test_member_is_imported_without_any_init(self, package):
        meta_path = list(sys.meta_path)
        assert oracle._compiled_member(package, "member", "VALUE") == 42
        assert sys.meta_path == meta_path
        self._assert_no_bare_package(package)
        assert f"{package}.sibling" in sys.modules

    def test_missing_module_falls_back_to_the_package_import(self, package):
        meta_path = list(sys.meta_path)
        # The first __init__ that the real import runs raises.
        top = package.partition(".")[0]
        first = package if top in sys.modules else top
        with pytest.raises(RuntimeError, match=f"^{first} ran$"):
            oracle._compiled_member(package, "missing", "VALUE")
        assert sys.meta_path == meta_path
        self._assert_no_bare_package(package)


class TestMCClaimValues:
    def test_zero_volatility_reproduces_deterministic_limits(self):
        cs = _cs(62.0, sigma=0.0)
        closed = value_all_claims(cs)
        estimates = mc_claim_values(cs, MCConfig(100, seed=1))
        for closed_value, estimate in zip(
            (closed.senior_value, closed.junior_value, closed.equity_value), estimates
        ):
            assert estimate.mean == pytest.approx(closed_value, rel=1e-13, abs=1e-13)
            # A constant sample leaves only pairwise-summation noise.
            assert estimate.std_error <= 1e-12

    def test_means_sum_to_discounted_terminal_mean(self):
        cs = _cs(62.0)
        mc = MCConfig(50_000, seed=3)
        estimates = mc_claim_values(cs, mc)
        discounted_mean = float(
            math.exp(-cs.rate * cs.maturity)
            * terminal_values(cs, mc).mean()
        )
        total = sum(estimate.mean for estimate in estimates)
        assert total == pytest.approx(discounted_mean, rel=1e-12)

    def test_estimates_within_three_standard_errors(self):
        cs = _cs(62.0)
        closed = value_all_claims(cs)
        for estimate, closed_value in zip(
            mc_claim_values(cs, MCConfig(1_000_000, seed=1)),
            (closed.senior_value, closed.junior_value, closed.equity_value),
        ):
            assert abs(estimate.mean - closed_value) <= 3.0 * estimate.std_error
            assert estimate.path_count == 1_000_000

    @pytest.mark.parametrize("rate", [800.0, -800.0], ids=["values-overflow", "discount-overflows"])
    def test_out_of_float_range_is_validation_error(self, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                mc_claim_values(_cs(62.0, r=rate), MCConfig(1000, seed=1))

    def test_standard_error_shrinks_with_path_count(self):
        cs = _cs(62.0)
        coarse = mc_claim_values(cs, MCConfig(10_000, seed=21))[1]
        fine = mc_claim_values(cs, MCConfig(1_000_000, seed=21))[1]
        ratio = coarse.std_error / fine.std_error
        assert 10.0 / 1.5 <= ratio <= 10.0 * 1.5

    def test_oracle_agreement_over_standard_grid(self):
        # 3-SE agreement cell by cell at one million paths; when a payoff
        # sample is degenerate (no default/exercise events sampled), the
        # rule-of-three bound on an unobserved event applies instead.
        paths = 1_000_000
        failures = []
        cells = 0
        for v in (40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0):
            for sigma in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
                cells += 1
                cs = _cs(v, sigma=sigma)
                closed = value_all_claims(cs)
                estimates = mc_claim_values(cs, MCConfig(paths, seed=1))
                discount = math.exp(-cs.rate * cs.maturity)
                bounds = (
                    cs.senior_face * discount,
                    cs.junior_face * discount,
                    cs.asset_value,
                )
                for closed_value, estimate, bound in zip(
                    (closed.senior_value, closed.junior_value, closed.equity_value),
                    estimates,
                    bounds,
                ):
                    diff = abs(closed_value - estimate.mean)
                    ok = diff <= 3.0 * estimate.std_error + 1e-9
                    if not ok and estimate.std_error < 1e-12 * bound:
                        ok = diff <= 7.0 * bound / paths
                    if not ok:
                        failures.append((v, sigma))
                        break
        assert len(failures) <= 0.01 * cells, failures


def _chunk_cases(*path_counts):
    """(chunk, paths) cases for chunk sizes 1, 3 and 7.

    Each id ends in ``-True``, the antithetic flag that named these cases when
    the sampling scheme was a parameter, so the case names stay stable.
    """
    return [
        pytest.param(chunk, paths, id=f"{chunk}-{paths}-True")
        for paths in path_counts
        for chunk in (1, 3, 7)
    ]


class TestStreaming:
    """Chunk boundaries change neither the draws nor, beyond rounding, the estimates."""

    @pytest.mark.parametrize(
        "chunk, paths", _chunk_cases(2, 34, 1002) + [pytest.param(None, 131_074, id="default")]
    )
    def test_terminal_values_do_not_depend_on_chunk_size(self, monkeypatch, chunk, paths):
        # Each chunk the kernel draws, placed by its raw draws in the one-call
        # stream, holds the values terminal_values gives there.
        cs = _cs(62.0, sigma=0.3)
        mc = MCConfig(paths, seed=5)
        expected = terminal_values(cs, mc)
        stream = np.random.Philox(key=mc.seed).random_raw(paths // 2)
        start_of = {raw: i for i, raw in enumerate(stream.tolist())}
        assert len(start_of) == stream.size
        draw = oracle._draw
        chunks = []

        def recording_draw(cs, raw, up, down, ndtri):
            # The values at -Z overlay the raw draws, and each thread's
            # buffers hold three rows, the values at Z and two of scratch.
            assert np.shares_memory(raw, down)
            assert up.base.shape[1:] == (3, min(oracle._CHUNK_DRAWS, paths // 2))
            drawn = raw.copy()  # before _draw shifts it
            draw(cs, raw, up, down, ndtri)
            chunks.append((drawn, up.copy(), down.copy()))  # before the reduce overwrites them

        if chunk is not None:
            monkeypatch.setattr(oracle, "_CHUNK_DRAWS", chunk)
        monkeypatch.setattr(oracle, "_draw", recording_draw)
        mc_claim_values(cs, mc)
        assembled = np.full((paths // 2, 2), np.nan)
        for drawn, up, down in chunks:
            start = start_of[int(drawn[0])]
            assert drawn.tobytes() == stream[start : start + drawn.size].tobytes()
            assembled[start : start + drawn.size] = np.column_stack((up, down))
        assert assembled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk, paths", _chunk_cases(34, 1002))
    def test_estimates_match_numpy_over_the_joined_units(self, monkeypatch, chunk, paths):
        cs = _cs(62.0, sigma=0.3)
        mc = MCConfig(paths, seed=11)
        discount = math.exp(-cs.rate * cs.maturity)
        terminal = terminal_values(cs, mc)
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", chunk)
        estimates = mc_claim_values(cs, mc)
        for payoff, estimate in zip(
            claim_payoffs(terminal, cs.senior_face, cs.junior_face), estimates
        ):
            discounted = discount * payoff
            units = 0.5 * (discounted[0::2] + discounted[1::2])
            std_error = units.std(ddof=1) / math.sqrt(units.size)
            assert std_error > 0.0
            assert estimate.mean == pytest.approx(units.mean(), rel=1e-14, abs=0.0)
            assert estimate.std_error == pytest.approx(std_error, rel=1e-14, abs=0.0)
            assert estimate.path_count == paths

    def test_standard_errors_do_not_depend_on_blas_threads(self):
        # A threaded BLAS dot product splits its sum, so its last bits would
        # follow OPENBLAS_NUM_THREADS.  Each run needs a fresh process.
        # The probe also prints the ``verify`` JSON, whose every number must
        # keep its bits too.
        outputs = [
            _run_probe(_STD_ERROR_PROBE, *VERIFY, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")
        ]
        *std_errors, report = outputs[0].split("\n", 9)
        assert all(float(line) > 0 for line in std_errors)
        assert json.loads(report)["paths"] == 200_000
        assert outputs[0] == outputs[1]

    def test_draw_over_the_raw_draws_allocates_no_copy(self):
        # The chunk kernel writes the values at -Z over the raw draws; a
        # conversion that copied them first would add a chunk per thread.
        cs = _cs(62.0, sigma=0.3)
        raw = np.random.Philox(key=5).random_raw(1 << 16)
        expected = terminal_values(cs, MCConfig(2 * raw.size, seed=5))
        up = np.empty(raw.size)
        tracemalloc.start()
        try:
            oracle._draw(cs, raw, up, raw.view(np.float64), oracle._ndtri())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < raw.nbytes // 8
        assert np.column_stack((up, raw.view(np.float64))).tobytes() == expected.tobytes()

    def test_single_pair_has_zero_standard_error(self):
        for estimate in mc_claim_values(_cs(62.0, sigma=0.3), MCConfig(2, seed=1)):
            assert estimate.std_error == 0.0

    def test_traced_peak_does_not_grow_with_path_count(self):
        cs = _cs(62.0, sigma=0.3)
        mc_claim_values(cs, MCConfig(2, seed=1))  # imports outside the trace

        def traced_peak(paths):
            tracemalloc.start()
            try:
                mc_claim_values(cs, MCConfig(paths, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(200_000)
        large = traced_peak(2_000_000)
        assert large <= 1.5 * small
        assert large <= 16 * 2**20
        assert large <= 6 * 2**20


def _estimate_bits(estimates):
    return tuple((e.mean.hex(), e.std_error.hex()) for e in estimates)


# (senior, junior, equity) mean and standard error as float.hex, seed 7, from
# the single-threaded chunk loop that preceded the two-thread kernel, with
# numpy's AVX-512 (X86_V4) exp loop.
PINNED_STRUCTURES = {
    "zero-sigma": (62.0, 60.0, 10.0, 0.0, 1.0, 0.01, 0.0),
    "distressed": (62.0, 60.0, 10.0, 0.262, 1.0, 0.01, 0.0),
    "negative-rate": (70.0, 60.0, 10.0, 0.3, 2.0, -0.02, 0.0),
    "dividend": (100.0, 60.0, 10.0, 0.25, 1.0, 0.01, 0.02),
}
PINNED_BITS = {
    ("zero-sigma", 2): (
        ("0x1.db3952d58e32ep+5", "0x0.0p+0"),
        ("0x1.4c6ad2a71cd1cp+1", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
    ("zero-sigma", 131_074): (
        ("0x1.db3952d58e32fp+5", "0x1.ffffffff00020p-56"),
        ("0x1.4c6ad2a71cd1ep+1", "0x1.ffffffff00020p-59"),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
    ("zero-sigma", 1_000_000): (
        ("0x1.db3952d58e32fp+5", "0x1.a724c6b5ab6d8p-57"),
        ("0x1.4c6ad2a71cd1ep+1", "0x1.7176dcbfd4743p-60"),
        ("0x0.0p+0", "0x0.0p+0"),
    ),
    ("distressed", 2): (
        ("0x1.9f8ba4267acecp+5", "0x0.0p+0"),
        ("0x1.3cd0e1e3b421fp+2", "0x0.0p+0"),
        ("0x1.6c1895358b438p+2", "0x0.0p+0"),
    ),
    ("distressed", 131_074): (
        ("0x1.b2496957a2f94p+5", "0x1.ccc2bd6e93709p-7"),
        ("0x1.f5ba95ad4a288p+1", "0x1.7c7c64a75f9a3p-8"),
        ("0x1.e5b2586afb10dp+1", "0x1.6636b16bad475p-6"),
    ),
    ("distressed", 1_000_000): (
        ("0x1.b253335035213p+5", "0x1.4e464f9309dc2p-8"),
        ("0x1.f515722c3f93bp+1", "0x1.1468b07c989d5p-9"),
        ("0x1.e5c84dd5d9f5cp+1", "0x1.03581ab6ab854p-7"),
    ),
    ("negative-rate", 2): (
        ("0x1.97d07f6acad34p+5", "0x0.0p+0"),
        ("0x1.4d0f37f799d6ep+2", "0x0.0p+0"),
        ("0x1.ebefb58aabefbp+3", "0x0.0p+0"),
    ),
    ("negative-rate", 131_074): (
        ("0x1.b591acbdc7f00p+5", "0x1.553bb51e7f28bp-6"),
        ("0x1.2b575f94ab166p+2", "0x1.1a7164d39bebcp-8"),
        ("0x1.5415c967931b0p+3", "0x1.aa41ff983f1bap-5"),
    ),
    ("negative-rate", 1_000_000): (
        ("0x1.b5a238a2f31d9p+5", "0x1.ef20e31954f8fp-8"),
        ("0x1.2afe747751be6p+2", "0x1.9b620e9afaac4p-10"),
        ("0x1.540579ff026e6p+3", "0x1.34386f0a97d12p-6"),
    ),
    ("dividend", 2): (
        ("0x1.db3952d58e32ep+5", "0x0.0p+0"),
        ("0x1.3cd0e1e3b421fp+3", "0x0.0p+0"),
        ("0x1.d8f38e976796fp+4", "0x0.0p+0"),
    ),
    ("dividend", 131_074): (
        ("0x1.d9f7a2e8ec879p+5", "0x1.ac993086ffecep-9"),
        ("0x1.2922bf16b192bp+3", "0x1.6f5462337eedbp-8"),
        ("0x1.d7d14b453f91ap+4", "0x1.934ccec181690p-6"),
    ),
    ("dividend", 1_000_000): (
        ("0x1.d9f2da8841d89p+5", "0x1.34d12efd99bb3p-10"),
        ("0x1.291e377a27655p+3", "0x1.0ab739da95051p-9"),
        ("0x1.d7df99364ebfep+4", "0x1.23d57f38ef6cfp-7"),
    ),
}
# The AVX2 (X86_V3) and baseline exp loops differ in these last bits, keyed by
# (claim, 0 for the mean or 1 for the standard error).
PINNED_AVX2_BITS = {
    ("distressed", 1_000_000): {(0, 1): "0x1.4e464f9309dc1p-8", (1, 1): "0x1.1468b07c989d4p-9"},
    ("negative-rate", 1_000_000): {(1, 1): "0x1.9b620e9afaac3p-10"},
    ("dividend", 131_074): {
        (0, 1): "0x1.ac993086ffecdp-9",
        (2, 0): "0x1.d7d14b453f91bp+4",
        (2, 1): "0x1.934ccec18168fp-6",
    },
    ("dividend", 1_000_000): {(2, 0): "0x1.d7df99364ebffp+4"},
}


class TestPinnedBits:
    """Estimates keep their bits whichever thread reduces which chunk."""

    @pytest.mark.parametrize("name, paths", list(PINNED_BITS))
    def test_estimates_have_the_pinned_bits(self, name, paths):
        loop = exp_loop()
        if loop not in ("X86_V4", "X86_V3", "baseline(X86_V2)"):
            pytest.skip(f"bits pinned for x86 exp loops only, not {loop}")
        expected = [list(pair) for pair in PINNED_BITS[name, paths]]
        if loop != "X86_V4":
            for (claim, field), bits in PINNED_AVX2_BITS.get((name, paths), {}).items():
                expected[claim][field] = bits
        cs = CapitalStructure(*PINNED_STRUCTURES[name])
        estimates = mc_claim_values(cs, MCConfig(paths, seed=7))
        assert _estimate_bits(estimates) == tuple(map(tuple, expected))

    def test_many_small_chunks_give_the_same_bits_every_run(self, monkeypatch):
        # 72 chunks of 7 draws; a short switch interval interleaves the threads.
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", 7)
        cs = _cs(62.0, sigma=0.3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = {_estimate_bits(mc_claim_values(cs, MCConfig(1002, seed=3))) for _ in range(20)}
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 1


class _TwoThreadNdtri:
    """Stand-in ``ndtri`` whose first call in each thread waits for the other
    thread's first call, so that both threads reduce a chunk.  Records the
    thread of each call and raises on call number ``fail_at``."""

    def __init__(self, fail_at=None):
        self._ndtri = oracle._ndtri()
        self._both = threading.Barrier(2, timeout=10)
        self._lock = threading.Lock()
        self._fail_at = fail_at
        self.threads = []

    def __call__(self, u, out=None):
        thread = threading.get_ident()
        with self._lock:
            first = thread not in self.threads
            self.threads.append(thread)
            call = len(self.threads)
        if first:
            self._both.wait()
        if call == self._fail_at:
            raise RuntimeError(f"stand-in ndtri fails on call {call}")
        return self._ndtri(u, out=out)


class TestTwoThreads:
    @pytest.mark.parametrize(
        "rate, threads", [(800.0, 2), (-800.0, 0)], ids=["values-overflow", "discount-overflows"]
    )
    def test_out_of_float_range_in_either_thread_is_validation_error(
        self, monkeypatch, rate, threads
    ):
        # numpy's errstate is per thread: a helper without its own would warn.
        ndtri = _TwoThreadNdtri()
        monkeypatch.setattr(oracle, "_ndtri", lambda: ndtri)
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                mc_claim_values(_cs(62.0, r=rate), MCConfig(1000, seed=1))
        assert len(set(ndtri.threads)) == threads

    def test_error_in_a_thread_is_raised_and_the_helper_ends(self, monkeypatch):
        ndtri = _TwoThreadNdtri(fail_at=3)
        monkeypatch.setattr(oracle, "_ndtri", lambda: ndtri)
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", 7)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fails on call 3"):
            mc_claim_values(_cs(62.0), MCConfig(20_002, seed=1))
        assert threading.active_count() == before
        assert len(set(ndtri.threads)) == 2
        # Both threads stop at their next chunk, far short of all 1429.
        assert len(ndtri.threads) < 1429 // 2

    def test_threads_draw_at_the_same_time(self, monkeypatch):
        # Each thread's first draw waits for the other's: no lock may be held
        # around the draws, or the barrier breaks after its timeout.
        both = threading.Barrier(2, timeout=5)
        drawn = set()
        real = oracle._philox()

        class WaitingPhilox:
            def __init__(self, *args, **kwargs):
                self._philox = real(*args, **kwargs)

            def random_raw(self, size):
                thread = threading.get_ident()
                if size and thread not in drawn:
                    drawn.add(thread)
                    both.wait()
                return self._philox.random_raw(size)

        monkeypatch.setattr(oracle, "_philox", lambda: WaitingPhilox)
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", 7)
        mc_claim_values(_cs(62.0), MCConfig(20_002, seed=1))
        assert len(drawn) == 2


class TestArgmaxSearch:
    def test_distressed_peak_matches_closed_form(self):
        numeric = argmax_sigma_numeric(_cs(62.0), SEARCH_GRID)
        assert numeric == pytest.approx(0.262, abs=5e-4)
        assert abs(numeric - optimal_volatility(_cs(62.0))) < 1e-4

    def test_absent_for_solvent_firm(self):
        assert argmax_sigma_numeric(_cs(100.0), SEARCH_GRID) is None

    def test_agrees_with_closed_form_across_asset_values(self):
        # At V = 76 and 77 both calls are saturated at low sigma, and the
        # vega there is subnormal noise, which is no rise.
        for v in range(60, 100):
            cs = _cs(float(v), sigma=0.2)
            closed = optimal_volatility(cs)
            numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
            if closed is None:
                assert numeric is None, v
            else:
                assert abs(numeric - closed) < 1e-4, v

    def test_finds_every_library_maximizer_inside_the_grid(self):
        misses = []
        for index, (cs, _) in enumerate(library_structures()):
            closed = optimal_volatility(cs)
            numeric = argmax_sigma_numeric(cs, ARGMAX_GRID)
            if closed is None:
                assert numeric is None, index
            elif ARGMAX_GRID.lower < closed < ARGMAX_GRID.upper:
                if numeric is None or not abs(numeric - closed) < ARGMAX_TOL:
                    misses.append(index)
        assert set(misses) <= UNDECIDED_HUMPS, misses

    def test_respects_grid_tolerance(self):
        loose = argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, 1.5, 1e-2))
        tight = argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, 1.5, 1e-7))
        assert abs(tight - optimal_volatility(_cs(62.0))) < abs(
            loose - optimal_volatility(_cs(62.0))
        ) + 1e-7

    def test_rejects_nonpositive_lower_bound(self):
        with pytest.raises(ValidationError):
            argmax_sigma_numeric(_cs(62.0), GridSpec(0.0, 1.5, 1e-6))

    @pytest.mark.parametrize("upper", [1e200, 1.7e308])
    def test_overflowing_upper_end_is_validation_error(self, upper):
        # sigma^2 / 2 * tau overflows at the grid's upper end.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, upper, 1e-6))

    @pytest.mark.parametrize("lower", [1e-300, 5e-324])
    def test_underflowing_lower_end_decides_without_a_warning(self, lower):
        # Near the lower end sigma sqrt(tau) and the complex step underflow.
        cs = _cs(62.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numeric = argmax_sigma_numeric(cs, GridSpec(lower, 1.5, 1e-6))
        assert numeric is None or abs(numeric - optimal_volatility(cs)) < ARGMAX_TOL

    def test_tolerance_below_float_spacing_ends(self, monkeypatch):
        # A search that stops narrowing must stop; the bound turns a hang into a failure.
        monkeypatch.setattr(oracle, "_junior_vega", _bounded(oracle._junior_vega))
        numeric = argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, 1.5, 1e-300))
        assert abs(numeric - optimal_volatility(_cs(62.0))) < 1e-4

    def test_complex_step_vega_matches_analytic_vega(self):
        sigmas = [0.05, 0.1, 0.262, 0.5, 1.2]
        for v in (62.0, 70.0, 100.0):
            vegas = oracle._junior_vega(_cs(v), sigmas)
            for sigma, vega in zip(sigmas, vegas):
                analytic = junior_debt_vega(_cs(v, sigma=sigma))
                assert vega == pytest.approx(analytic, rel=1e-10, abs=1e-12 * v), (v, sigma)


class TestSearchKernelCalls:
    """The argmax and the finite difference price the caller's structure."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        built, calls = [], []
        init, claims = CapitalStructure.__init__, oracle._claims

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def recording_claims(cs, sigma):
            calls.append((cs, sigma))
            return claims(cs, sigma)

        monkeypatch.setattr(CapitalStructure, "__init__", counting_init)
        monkeypatch.setattr(oracle, "_claims", recording_claims)
        return built, calls

    @pytest.mark.parametrize("v", [62.0, 100.0])
    def test_argmax_builds_no_structure(self, kernel_calls, monkeypatch, v):
        # It differentiates its own complex price: it reads neither the
        # kernel nor the closed-form sigma* it checks.
        closed_forms = []
        monkeypatch.setattr(risk, "optimal_volatility", lambda *args: closed_forms.append(args))
        cs = _cs(v)
        built, calls = kernel_calls
        built.clear()
        argmax_sigma_numeric(cs, SEARCH_GRID)
        assert built == []
        assert calls == []
        assert closed_forms == []
        assert not hasattr(oracle, "optimal_volatility")

    def test_finite_diff_builds_no_structure(self, kernel_calls):
        cs = _cs(62.0, sigma=0.10)
        built, calls = kernel_calls
        built.clear()
        finite_diff_vega(cs, 1e-5)
        assert built == []
        assert [(structure is cs, sigma) for structure, sigma in calls] == [
            (True, 0.10 + 1e-5),
            (True, 0.10 - 1e-5),
        ]


class TestFiniteDifference:
    def test_matches_analytic_vega(self):
        cs = _cs(62.0, sigma=0.10)
        assert finite_diff_vega(cs, 1e-5) == pytest.approx(
            junior_debt_vega(cs), rel=1e-6
        )

    def test_vanishes_at_the_maximizer(self):
        cs = _cs(62.0)
        best = optimal_volatility(cs)
        assert abs(finite_diff_vega(rebuilt(cs, volatility=best), 1e-5)) < 1e-6 * 62.0

    @given(distressed_structures(min_sigma=0.1))
    @settings(max_examples=50)
    def test_sign_matches_analytic_vega(self, cs):
        analytic = junior_debt_vega(cs)
        numeric = finite_diff_vega(cs, 1e-5)
        if abs(analytic) > 1e-7 * cs.asset_value:
            assert math.copysign(1.0, numeric) == math.copysign(1.0, analytic)

    def test_rejects_bump_at_least_sigma(self):
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0, sigma=0.10), 0.10)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0), -1e-5)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0), math.nan)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0), math.inf)
        # sigma + h == sigma - h: the difference would read 0.0 for any vega.
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0, sigma=0.10), 1e-18)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0, sigma=1.0), 1e-17)

    @given(distressed_structures(min_sigma=0.01, with_yield=True))
    @settings(max_examples=100)
    def test_equals_difference_of_rebuilt_structures(self, cs):
        sigma = cs.volatility
        for bump in (1e-5, 1e-3, 0.5 * sigma):
            up = value_all_claims(rebuilt(cs, volatility=sigma + bump)).junior_value
            down = value_all_claims(rebuilt(cs, volatility=sigma - bump)).junior_value
            assert finite_diff_vega(cs, bump).hex() == ((up - down) / (2.0 * bump)).hex()


class TestWholeDomainContract:
    """Aim 3's contract for the oracles: finite values, None for an argmax
    with no rising vega on its grid, or ValidationError, with no warning."""

    @settings(derandomize=True, max_examples=100)
    @given(whole_domain_structures())
    def test_oracles_finite_or_refused(self, cs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert math.isfinite(finite_diff_vega(cs, VEGA_BUMP))
            except ValidationError:
                pass
            try:
                best = argmax_sigma_numeric(cs, ARGMAX_GRID)
                assert best is None or math.isfinite(best)
            except ValidationError:
                pass
            try:
                estimates = mc_claim_values(cs, MCConfig(2000, 1))
            except ValidationError:
                return
        for estimate in estimates:
            assert math.isfinite(estimate.mean) and math.isfinite(estimate.std_error)


class TestConfigValidation:
    def test_rejects_tiny_path_count(self):
        with pytest.raises(ValidationError):
            MCConfig(1, seed=0)

    def test_rejects_odd_path_count_with_antithetic(self):
        with pytest.raises(ValidationError):
            MCConfig(101, seed=0)
        MCConfig(102, seed=0)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValidationError):
            MCConfig(100, seed=-1)
        with pytest.raises(ValidationError):
            MCConfig(100, seed=2**64)
        MCConfig(100, seed=2**64 - 1)

    @pytest.mark.parametrize(
        "path_count, seed",
        [(4, 1.5), (4.0, 1), (True, 1), (4, True), (4, False), (4, "1"), (4, None)],
    )
    def test_rejects_non_int_path_count_or_seed(self, path_count, seed):
        with pytest.raises(ValidationError):
            MCConfig(path_count, seed)

    def test_grid_spec_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(0.0, 1.5, 1e-6)
        with pytest.raises(ValidationError):
            GridSpec(-1.0, 1.5, 1e-6)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf])
    def test_grid_spec_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValidationError):
            GridSpec(0.01, 1.5, tolerance)

    @pytest.mark.parametrize(
        "lower, upper",
        [
            (math.nan, 2.0),
            (0.5, math.nan),
            (0.5, math.inf),
            (-math.inf, 2.0),
            (2.0, 0.5),
            (1.0, 1.0),
        ],
    )
    def test_grid_spec_rejects_bad_interval(self, lower, upper):
        with pytest.raises(ValidationError):
            GridSpec(lower, upper, 1e-6)

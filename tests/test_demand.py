"""Demand discretization, convolution and the cumulative cache."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    CumulativeDemandCache,
    DemandPmf,
    DemandSpec,
    Instance,
    SolveContext,
    convolve,
    discretize,
    gen_analysis,
    gen_scalability,
    point_mass,
    save_instance,
)
import rss_policy
from rss_policy import demand
from rss_policy.cli import main as cli_main
from conftest import allocates_at_most


class TestDiscretize:
    def test_poisson_zero_mean_is_point_mass(self):
        pmf = discretize(DemandSpec("poisson", 0.0))
        assert pmf.offset == 0
        assert pmf.probs.tolist() == [1.0]

    def test_normal_zero_cv_is_point_mass(self):
        pmf = discretize(DemandSpec("normal", 50.0, 0.0))
        assert pmf.offset == 50
        assert pmf.probs.tolist() == [1.0]

    def test_normal_zero_cv_rounds_noninteger_mean(self):
        assert discretize(DemandSpec("normal", 50.4, 0.0)).offset == 50

    def test_poisson_moments(self):
        pmf = discretize(DemandSpec("poisson", 50.0))
        assert pmf.mean() == pytest.approx(50.0, abs=1e-3)
        variance = np.dot(pmf.probs, (pmf.support - pmf.mean()) ** 2)
        assert variance == pytest.approx(50.0, abs=0.1)
        # support should end a few standard deviations above the mean
        assert 50 + 3 * np.sqrt(50) < pmf.max_value < 50 + 7 * np.sqrt(50)

    def test_normal_moments(self):
        pmf = discretize(DemandSpec("normal", 60.0, 0.2))
        assert pmf.mean() == pytest.approx(60.0, abs=0.01)
        variance = np.dot(pmf.probs, (pmf.support - pmf.mean()) ** 2)
        assert np.sqrt(variance) == pytest.approx(12.0, rel=0.02)

    def test_normal_negative_mass_folds_into_zero(self):
        # large cv puts real mass below -0.5; it must end up at demand 0
        pmf = discretize(DemandSpec("normal", 2.0, 1.0))
        from scipy.stats import norm

        assert pmf.probs[0] == pytest.approx(norm.cdf((0.5 - 2.0) / 2.0), rel=1e-6)
        assert pmf.mean() > 2.0  # folding is one-sided, biasing the mean up

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DemandSpec("poisson", -1.0)
        with pytest.raises(ValueError):
            DemandSpec("binomial", 5.0)
        with pytest.raises(ValueError):  # sigma overflows to inf
            DemandSpec("normal", 1e300, 1e10)
        # the cut overflows to inf: an OverflowError after a RuntimeWarning
        with pytest.raises(ValueError, match=r"normal demand of mean 1e\+308"):
            discretize(DemandSpec("normal", 1e308, 1.5))

    def test_refuses_a_poisson_mean_without_a_finite_cut(self, tmp_path, capsys):
        # scipy's pdtrik returns NaN for very large means, and the cut
        # stopped with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=r"Poisson demand of mean 1e\+15"):
            discretize(DemandSpec("poisson", 1e15))
        instance = Instance(
            T=2,
            params=CostParams(K=50.0, W=5.0, h=1.0, b=10.0),
            I0=0,
            demand=(DemandSpec("poisson", 5.0), DemandSpec("poisson", 1e15)),
        )
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        assert cli_main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1e+15" in err and err.count("\n") == 1

    def test_refuses_a_cut_too_long_for_memory(self, monkeypatch):
        # a Poisson mean of 1e9 filled memory and the process was killed;
        # with 100 MiB of memory a cut of 1e7 values is refused before its
        # arrays are built, which would take about 320 MB at their peak
        assert demand.physical_memory() > 2**20
        monkeypatch.setattr(demand, "physical_memory", lambda: 100 * 2**20)
        with allocates_at_most(100 * 2**20):
            with pytest.raises(MemoryError, match=r"Poisson demand of mean 1e\+07"):
                discretize(DemandSpec("poisson", 1e7))
            with pytest.raises(MemoryError, match=r"normal demand of mean 1e\+07"):
                discretize(DemandSpec("normal", 1e7, 0.01))
        assert len(discretize(DemandSpec("poisson", 1e5))) < 2**17

    def test_refuses_a_grid_too_long_for_memory(self, monkeypatch, tmp_path, capsys):
        # the pmf of about 1e5 values fits in 5 MiB; the grid of about 2.2e5
        # levels with the cost engine's span of 1e5 more below it does not
        monkeypatch.setattr(demand, "physical_memory", lambda: 5 * 2**20)
        instance = Instance(
            T=1,
            params=CostParams(K=50.0, W=5.0, h=1.0, b=10.0),
            I0=0,
            demand=(DemandSpec("poisson", 1e5),),
        )
        with allocates_at_most(5 * 2**20), pytest.raises(MemoryError, match="inventory grid"):
            SolveContext(instance)
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        assert cli_main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_mass_normalized(self):
        for spec in [DemandSpec("poisson", 7.3), DemandSpec("normal", 40.0, 0.35)]:
            pmf = discretize(spec)
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)


def _scipy_stats_discretize(spec):
    """``discretize`` through the scipy.stats distribution objects: the
    reference the special-function construction must match bitwise."""
    from scipy.stats import norm, poisson

    if spec.kind == "poisson":
        if spec.mean == 0:
            return point_mass(0)
        kmax = int(poisson.ppf(1.0 - demand.TAIL_EPS, spec.mean))
        return DemandPmf(offset=0, probs=poisson.pmf(np.arange(kmax + 1), spec.mean))
    sigma = spec.sigma
    if sigma == 0:
        return point_mass(int(round(spec.mean)))
    kmax = max(int(np.ceil(spec.mean - 0.5 + sigma * norm.ppf(1.0 - demand.TAIL_EPS))), 0)
    cdfs = norm.cdf((np.arange(kmax + 2) - 0.5 - spec.mean) / sigma)
    probs = np.diff(cdfs)
    probs[0] += cdfs[0]
    return DemandPmf(offset=0, probs=probs)


@functools.cache
def _reference_specs():
    """The testbeds' specs (every factorial cell at T = 10 and 20, the
    scalability instances of T = 1..59 with the CLI's seeds) and seeded
    random Poisson and normal specs, small means included, and Poisson
    means of 1e6 to 3e6, where scipy's ``pdtr`` correction can lower the
    cut by one."""
    specs = {s for T in (10, 20) for inst in gen_analysis(T) for s in inst.demand}
    specs |= {s for T in range(1, 60) for s in gen_scalability(T, 1, seed=T)[0].demand}
    rng = np.random.default_rng(16)
    means = np.concatenate([rng.uniform(0.0, 1.0, 200), np.exp(rng.uniform(0.0, 7.0, 200))])
    for m in means:
        specs.add(DemandSpec("poisson", float(m)))
        specs.add(DemandSpec("normal", float(m), float(rng.uniform(0.0, 0.5))))
    specs |= {DemandSpec("poisson", float(m)) for m in np.linspace(1e6, 3e6, 5)}
    return tuple(sorted(specs, key=lambda s: (s.kind, s.mean, s.cv)))


def test_discretize_matches_scipy_stats_bitwise():
    from scipy.special import pdtrik

    mismatched, corrected = [], 0
    for spec in _reference_specs():
        got, ref = discretize(spec), _scipy_stats_discretize(spec)
        if got.offset != ref.offset or got.probs.tobytes() != ref.probs.tobytes():
            mismatched.append(spec)
        if spec.kind == "poisson" and spec.mean > 0:
            corrected += ref.max_value < np.ceil(pdtrik(1.0 - demand.TAIL_EPS, spec.mean))
    assert not mismatched, mismatched[:5]
    assert corrected  # the one-step correction of the cut is covered


def test_package_imports_no_scipy_stats():
    # scipy.stats and what it loads took about 1.2 s of a 1.4 s import
    code = (
        "import sys, rss_policy, rss_policy.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rss_policy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestConvolve:
    def test_point_masses_add(self):
        out = convolve(point_mass(3), point_mass(4))
        assert out.offset == 7
        assert out.probs.tolist() == [1.0]

    def test_point_mass_at_zero_is_identity(self):
        pmf = discretize(DemandSpec("poisson", 6.0))
        out = convolve(pmf, point_mass(0))
        assert out.offset == pmf.offset
        np.testing.assert_allclose(out.probs, pmf.probs, atol=1e-15)

    def test_poisson_additivity(self):
        a = discretize(DemandSpec("poisson", 30.0))
        b = discretize(DemandSpec("poisson", 40.0))
        direct = discretize(DemandSpec("poisson", 70.0))
        summed = convolve(a, b)
        hi = max(summed.max_value, direct.max_value)
        p = np.zeros(hi + 1)
        q = np.zeros(hi + 1)
        p[summed.offset : summed.offset + len(summed)] = summed.probs
        q[direct.offset : direct.offset + len(direct)] = direct.probs
        assert 0.5 * np.abs(p - q).sum() < 1e-5

    def test_commutative_and_associative(self, rng):
        pmfs = [
            DemandPmf(offset=int(rng.integers(0, 4)), probs=rng.random(int(rng.integers(2, 9))))
            for _ in range(3)
        ]
        a, b, c = pmfs
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert ab.offset == ba.offset
        np.testing.assert_allclose(ab.probs, ba.probs, atol=1e-12)
        left = convolve(ab, c)
        right = convolve(a, convolve(b, c))
        assert left.offset == right.offset
        np.testing.assert_allclose(left.probs, right.probs, atol=1e-12)

    def test_mass_conserved(self, rng):
        a = DemandPmf(offset=0, probs=rng.random(12))
        b = DemandPmf(offset=2, probs=rng.random(5))
        assert convolve(a, b).probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestCumulativeCache:
    def _cache(self, means):
        return CumulativeDemandCache([discretize(DemandSpec("poisson", m)) for m in means])

    def test_single_period(self):
        cache = self._cache([5.0, 9.0])
        single = cache.cumulative(1, 2)
        np.testing.assert_array_equal(single.probs, cache.period(1).probs)

    def test_two_periods_is_convolution(self):
        cache = self._cache([5.0, 9.0])
        expected = convolve(cache.period(1), cache.period(2))
        got = cache.cumulative(1, 3)
        assert got.offset == expected.offset
        np.testing.assert_allclose(got.probs, expected.probs, atol=1e-15)

    def test_mean_adds_up(self):
        # Compared with the means of the cached period pmfs, not the spec
        # means: discretize's tail renormalization shifts each period mean
        # by a few TAIL_EPS, which is covered by TestDiscretize.
        means = [4.0, 11.5, 7.25, 20.0]
        cache = self._cache(means)
        for t in range(1, 5):
            for j in range(t + 1, 6):
                expected = sum(cache.period(k).mean() for k in range(t, j))
                assert cache.cumulative(t, j).mean() == pytest.approx(expected, rel=1e-12)

    def test_repeated_calls_identical(self):
        cache = self._cache([5.0, 9.0, 3.0])
        first = cache.cumulative(1, 4)
        assert cache.cumulative(1, 4) is first

    def test_rejects_bad_ranges(self):
        cache = self._cache([5.0, 9.0])
        with pytest.raises(ValueError):
            cache.cumulative(2, 2)
        with pytest.raises(ValueError):
            cache.cumulative(2, 1)
        with pytest.raises(ValueError):
            cache.cumulative(1, 4)


class TestDemandPmf:
    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            DemandPmf(offset=0, probs=np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize(
        "probs", [[0.5, np.nan], [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf], [np.nan, -1.0]]
    )
    def test_rejects_non_finite_weights(self, probs):
        # the least weight and the total catch them, with no warning
        with pytest.raises(ValueError, match="finite"):
            DemandPmf(offset=0, probs=np.array(probs))

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            DemandPmf(offset=-1, probs=np.array([1.0]))

    @pytest.mark.parametrize("offset", [2.5, 2.0, True])
    def test_rejects_offsets_that_are_not_integers(self, offset):
        # 2.5 was stored as offset 2, which shifted the whole demand
        with pytest.raises(ValueError, match="must be an integer"):
            DemandPmf(offset=offset, probs=np.array([1.0]))

    def test_point_mass_rejects_a_fraction(self):
        with pytest.raises(ValueError, match="must be an integer"):
            point_mass(2.7)  # was a point mass at 2

    def test_accepts_numpy_integer_offsets(self):
        pmf = DemandPmf(offset=np.int64(3), probs=np.array([1.0]))
        assert pmf.offset == 3 and type(pmf.offset) is int
        assert point_mass(np.int32(4)) == point_mass(4)

    def test_rejects_zero_or_overflowing_mass(self):
        with pytest.raises(ValueError):
            DemandPmf(offset=0, probs=np.zeros(3))
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            DemandPmf(offset=0, probs=np.array([1e308, 1e308]))

    def test_quantile(self):
        pmf = DemandPmf(offset=2, probs=np.array([0.2, 0.5, 0.3]))
        assert pmf.quantile(0.1) == 2
        assert pmf.quantile(0.69) == 3
        assert pmf.quantile(0.71) == 4
        assert pmf.quantile(1.0) == 4


# a point mass at 0 and one above it, short and long supports, repeated
# cdf values that are also bucket edges, and a last cdf value below the
# largest double under 1
SAMPLE_PMFS = {
    "mass-at-0": point_mass(0),
    "mass-at-7": point_mass(7),
    "poisson-0.1": discretize(DemandSpec("poisson", 0.1)),
    "poisson-35": discretize(DemandSpec("poisson", 35.0)),
    "normal-500-0.4": discretize(DemandSpec("normal", 500.0, 0.4)),
    "zero-interior": DemandPmf(offset=2, probs=np.array([0.25, 0.0, 0.0, 0.5, 0.0, 0.25])),
    "cdf-below-1": DemandPmf(offset=3, probs=np.ones(37)),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_PMFS))
def test_sample_equals_quantile(name):
    pmf = SAMPLE_PMFS[name]
    cdf = pmf.cdf()
    below_one = np.nextafter(1.0, 0.0)
    if name == "cdf-below-1":
        assert cdf[-1] < below_one
    # every edge j / M of the lookup table's M buckets
    buckets = 1 << max(10, (32 * len(pmf) - 1).bit_length())
    keys = np.concatenate([
        [0.0, below_one],
        np.arange(buckets) / buckets,
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 1.0),
        np.random.default_rng(17).random(100_000),
    ])
    keys = keys[(keys >= 0.0) & (keys < 1.0)]
    assert pmf.sampler()(keys).tolist() == [pmf.quantile(x) for x in keys]


@pytest.mark.parametrize("seed", range(4))
def test_sampler_matches_searchsorted_on_random_pmfs(seed):
    # the sampler counts its bucket table from floor(cdf * M); on random
    # pmfs every bucket edge j / M, every cdf value and its neighbours map
    # to the searchsorted quantile: point masses, sparse weights, dyadic
    # weights whose cdf values fall on bucket edges, and uniform weights
    # whose last cdf value may lie below 1
    rng = np.random.default_rng(900 + seed)
    below_one = 0
    for k in range(40):
        n = int(rng.integers(1, 300))
        if k % 4 == 0:
            probs = np.zeros(n)
            probs[rng.integers(n)] = 1.0
        elif k % 4 == 1:
            probs = rng.random(n) * (rng.random(n) < 0.6)
            probs[-1] += 0.1
        elif k % 4 == 2:
            probs = rng.integers(0, 9, n).astype(float)
            probs = np.append(probs, 2 ** int(np.ceil(np.log2(probs.sum() + 1))) - probs.sum())
        else:
            probs = np.ones(n)
        pmf = DemandPmf(offset=int(rng.integers(0, 40)), probs=probs)
        cdf, m = pmf.cdf(), pmf._buckets
        below_one += bool(cdf[-1] < 1.0)
        keys = np.concatenate([
            np.arange(m) / m,
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
            rng.random(1_000),
        ])
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        want = pmf.offset + np.minimum(np.searchsorted(cdf, keys), len(pmf) - 1)
        assert np.array_equal(pmf.sampler()(keys), want), k
    assert below_one

import math
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

from slotauction.core import ValidationError
from slotauction.distributions import (
    CustomDistribution,
    DistributionError,
    Exponential,
    TruncatedNormal,
    Uniform,
    _regular_cached,
    dist_from_dict,
    dist_to_dict,
    is_regular,
    sample,
)

FAMILIES = [
    Uniform(0.0, 1.0),
    Uniform(2.0, 5.0),
    Exponential(1.0),
    Exponential(0.4),
    TruncatedNormal(mu=1.0, sigma=0.5, lo=0.0, hi=3.0),
    TruncatedNormal(mu=-1.0, sigma=2.0, lo=0.5, hi=4.0),
]


def test_virtual_values_equal_virtual_value_bit_for_bit():
    """``virtual_values`` equals ``virtual_value`` at every point, on
    seeded points that include the support's ends, for every family and a
    custom distribution, and keeps the shape it is given; off the support
    it raises as ``virtual_value`` does."""
    rng = np.random.default_rng(227)
    for dist in [*FAMILIES, Uniform(0.3, 2.0), Exponential(1.5),
                 TruncatedNormal(0.5, 0.3, 0.0, 1.0), bimodal_fixture()]:
        top = dist.hi if math.isfinite(dist.hi) else dist.quantile(0.9999)
        ends = [dist.lo, dist.hi] if math.isfinite(dist.hi) else [dist.lo]
        points = np.concatenate([ends, rng.uniform(dist.lo, top, 500),
                                 [dist.quantile(q) for q in rng.random(50)]])
        want = [dist.virtual_value(v) for v in points.tolist()]
        assert np.array_equal(dist.virtual_values(points), want), dist
        assert dist.virtual_values(points[:550].reshape(2, -1)).shape \
            == (2, 275)
        with pytest.raises(DistributionError):
            dist.virtual_values(np.array([dist.lo - 1.0, dist.lo]))


def _phi(dist, v):
    """Virtual values at the points ``v`` as the mechanisms bid them,
    before the clamp at 0: -inf below the support, the identity above it."""
    v = np.asarray(v, dtype=float)
    phi = np.where(v < dist.lo, -np.inf, v)
    inside = (dist.lo <= v) & (v <= dist.hi)
    phi[inside] = dist.virtual_values(v[inside])
    return phi


def test_inverse_virtual_values_guess_the_crossing():
    """``inverse_virtual_values`` guesses, for each target t, the smallest
    value whose virtual value reaches t: (t + b) / 2 clipped to [a, b] and
    the identity above b for the uniform, t + 1/rate at least 0 for the
    exponential, NaN (no guess) for the truncated normal and custom
    distributions.  Float phi is rounded, so the guess is that value up to
    phi's rounding e, not to the last float: phi at the guess plus e
    reaches t, and phi at the guess less e does not, unless the guess is
    the support's lower end (where phi reaches t).  Uniform: e = 2 ulps of
    |t| + b.  Exponential: phi(v) = v - 1/rate, whose rounding is on the
    scale of v + 1/rate, e = 2 ulps of v + 1/rate."""
    rng = np.random.default_rng(271)
    cases = []
    for dist in (Uniform(0.0, 1.0), Uniform(2.0, 12.0), Uniform(0.5, 3.0)):
        a, b = dist.a, dist.b
        t = np.concatenate([rng.uniform(2 * a - b - 1.0, b + 1.0, 2000),
                            _phi(dist, rng.uniform(a, b + 1.0, 2000)),
                            [2 * a - b, 0.0, b, b + 1.0]])
        v = dist.inverse_virtual_values(t)
        assert np.array_equal(v, np.where(t > b, t, np.clip((t + b) / 2.0,
                                                             a, b)))
        cases.append((dist, t, v, 2 * np.spacing(np.abs(t) + b)))
    for dist in (Exponential(1.0), Exponential(0.25), Exponential(3.0)):
        rate = dist.rate
        t = np.concatenate([rng.uniform(-2.0 / rate, 8.0 / rate, 2000),
                            _phi(dist, rng.uniform(0.0, 9.0 / rate, 2000)),
                            [-1.0 / rate, 0.0]])
        v = dist.inverse_virtual_values(t)
        assert np.array_equal(v, np.maximum(t + 1.0 / rate, 0.0))
        cases.append((dist, t, v, 2 * np.spacing(v + 1.0 / rate)))
    for dist, t, v, e in cases:
        low = v == dist.lo
        assert low.any() and (~low).any()
        assert np.all(_phi(dist, v[low]) >= t[low])
        assert np.all(_phi(dist, v + e) >= t)
        assert np.all(_phi(dist, v[~low] - e[~low]) < t[~low])
    for dist in (TruncatedNormal(1.0, 0.5, 0.0, 3.0), bimodal_fixture()):
        guess = dist.inverse_virtual_values(np.zeros((2, 3)))
        assert guess.shape == (2, 3) and np.isnan(guess).all()


def test_uniform_closed_forms():
    u = Uniform(0.0, 1.0)
    assert u.cdf(0.3) == pytest.approx(0.3)
    assert u.pdf(0.3) == pytest.approx(1.0)
    assert u.quantile(0.25) == pytest.approx(0.25)
    assert u.virtual_value(0.75) == pytest.approx(0.5)
    assert u.virtual_value(0.5) == pytest.approx(0.0)


def test_exponential_closed_forms():
    e = Exponential(1.0)
    assert e.pdf(0.0) == pytest.approx(1.0)
    assert e.cdf(math.log(2.0)) == pytest.approx(0.5)
    assert e.virtual_value(2.0) == pytest.approx(1.0)


def test_exponential_virtual_value_never_decreases():
    """phi(v) = v - 1/rate is non-decreasing in floats: along a dense walk
    up to 30/rate, with runs of consecutive floats, in both the scalar and
    the array form, for rates on and off powers of two."""
    rng = np.random.default_rng(281)
    for rate in (1.0, 0.25, 3.0, 0.7, 11.3):
        top = 30.0 / rate
        v = np.linspace(0.0, top, 200_001)
        for start in rng.uniform(0.0, top, 20):  # 500 adjacent floats each
            run = start + np.arange(500) * np.spacing(start)
            v = np.concatenate([v, run[run <= top]])
        v = np.sort(v)
        phi = Exponential(rate).virtual_values(v)
        assert np.all(np.diff(phi) >= 0.0), rate
        scalar = [Exponential(rate).virtual_value(x) for x in v[::97].tolist()]
        assert np.array_equal(scalar, phi[::97])


@pytest.mark.parametrize("make,name", [
    (lambda: Uniform(0.0, math.inf), "finite b"),
    (lambda: Uniform(-math.inf, 1.0), "finite a"),
    (lambda: Uniform(math.nan, 1.0), "finite a"),
    (lambda: Uniform(-1e308, 1e308), "b - a"),
    (lambda: Exponential(math.inf), "finite rate"),
    (lambda: Exponential(math.nan), "finite rate"),
    (lambda: Exponential(1e-320), "1/rate"),
    (lambda: TruncatedNormal(math.inf, 1.0, 0.0, 1.0), "finite mu"),
    (lambda: TruncatedNormal(0.0, math.inf, 0.0, 1.0), "finite sigma"),
    (lambda: TruncatedNormal(0.0, math.nan, 0.0, 1.0), "finite sigma"),
], ids=["uniform-b-inf", "uniform-a-inf", "uniform-a-nan", "uniform-width",
        "exponential-rate-inf", "exponential-rate-nan",
        "exponential-mean-inf", "truncnorm-mu-inf", "truncnorm-sigma-inf",
        "truncnorm-sigma-nan"])
def test_parameters_are_checked_at_construction(make, name):
    with pytest.raises(DistributionError, match=name):
        make()


def test_truncated_normal_keeps_infinite_ends():
    dist = TruncatedNormal(mu=0.0, sigma=1.0, lo=-math.inf, hi=math.inf)
    assert dist.cdf(0.0) == pytest.approx(0.5)
    assert TruncatedNormal(mu=1.0, sigma=2.0, lo=0.0, hi=math.inf).cdf(0.0) \
        == 0.0


def test_standard_normal_cdf_and_pdf_equal_the_formulas_bit_for_bit():
    """``statistics.NormalDist()``, which the truncated normal evaluates,
    gives the bits of the one-line erf CDF and exp PDF on seeded points
    (near 0, in both tails, past the underflow, and the infinities)."""
    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    def pdf(x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    normal = NormalDist()
    rng = np.random.default_rng(311)
    points = np.concatenate([rng.normal(0.0, 1.0, 40_000),
                             rng.uniform(-10.0, 10.0, 40_000),
                             rng.uniform(-45.0, 45.0, 20_000),
                             rng.normal(0.0, 1e-9, 1_000),
                             [0.0, -0.0, math.inf, -math.inf]]).tolist()
    for name, want in (("cdf", cdf), ("pdf", pdf)):
        got = np.array([getattr(normal, name)(x) for x in points])
        assert got.tobytes() == np.array([want(x) for x in points]).tobytes()


# Standard normal quantiles at exact float levels, solved at 60 digits
# (mpmath: findroot on ncdf) and rounded to 17.
NORMAL_QUANTILES = [
    (1e-300, -37.047096299361199), (1e-18, -8.7572903487823151),
    (1e-12, -7.0344838253011319), (1e-8, -5.6120012441747887),
    (1e-4, -3.7190164854556806), (1e-3, -3.0902323061678135),
    (0.01, -2.3263478740408411), (0.02425, -1.9729610513118848),
    (0.075, -1.4395314709384559), (0.1, -1.2815515655446004),
    (0.3, -0.52440051270804082), (0.5, 0.0), (0.7, 0.52440051270804066),
    (0.9, 1.2815515655446006), (0.925, 1.4395314709384562),
    (0.97575, 1.972961051311885), (0.999, 3.0902323061678133),
    (1 - 1e-8, 5.612001243305505), (2**-53, -8.2095361516013869),
    (1 - 2**-53, 8.2095361516013869),
]


@pytest.mark.parametrize("q, want", NORMAL_QUANTILES)
def test_normal_quantile_within_8_ulps_of_the_reference(q, want):
    """Over the whole line the truncated normal is the standard normal, and
    its quantile is within 8 ulps of the 60-digit value, deep tails and the
    largest level ``sample`` draws (1 - 2**-53) too."""
    got = TruncatedNormal(0.0, 1.0, -math.inf, math.inf).quantile(q)
    assert abs(got - want) <= 8 * math.ulp(want), (got, want)


def test_truncated_normal_quantile_is_finite_inside_its_window():
    """With an infinite end, every level ``sample`` can draw (a multiple of
    2**-53 in [0, 1)), 0 and 1 - 2**-53 among them, gives a finite value
    inside the window, even where rounding carries the standard normal
    level onto 0 or 1.  Each draw comes from a source that always returns
    that level."""
    inf = math.inf
    rng = np.random.default_rng(313)
    levels = [0.0, 2**-53, 2**-52, 1e-300, 0.5, 1 - 2**-52, 1 - 2**-53,
              *rng.random(200).tolist()]
    for dist in (TruncatedNormal(0.0, 1.0, 0.0, inf),
                 TruncatedNormal(0.0, 1.0, -inf, 0.0),
                 TruncatedNormal(0.0, 1.0, -inf, inf),
                 TruncatedNormal(2.0, 0.5, 3.0, inf),
                 TruncatedNormal(0.0, 1.0, 6.0, inf),
                 TruncatedNormal(0.0, 1.0, -inf, -6.0),
                 TruncatedNormal(-1.0, 2.0, -inf, 8.0),
                 TruncatedNormal(1e6, 1e3, -inf, inf)):
        for q in levels:
            v = sample(dist, SimpleNamespace(random=lambda: q))
            assert math.isfinite(v) and dist.lo <= v <= dist.hi, (dist, q, v)


def test_parameter_validation():
    with pytest.raises(DistributionError):
        Uniform(1.0, 1.0)
    with pytest.raises(DistributionError):
        Exponential(0.0)
    with pytest.raises(DistributionError):
        TruncatedNormal(mu=0.0, sigma=-1.0, lo=0.0, hi=1.0)


@pytest.mark.parametrize("mu, sigma, lo, hi", [
    (0.0, 1e308, -math.inf, math.inf),
    (0.0, 1e308, 0.0, math.inf),
    (0.0, 1e307, -math.inf, 0.0),  # -38.47 sigma overflows, 8.21 would not
    (1e308, 2e307, 0.0, math.inf),
])
def test_truncated_normal_refuses_a_quantile_past_the_floats(mu, sigma, lo,
                                                             hi):
    """On an unbounded side the quantile reaches about -38.47 or 8.21
    standard deviations; a (mu, sigma) that overflows there is refused at
    construction, by name, not left to make an infinite value."""
    with pytest.raises(DistributionError, match="sigma"):
        TruncatedNormal(mu, sigma, lo, hi)


def test_truncated_normal_wide_but_finite_quantiles_are_kept():
    """Just inside the float range, and with finite ends, sigma is kept
    and every level ``sample`` can draw gives a finite value."""
    for dist in (TruncatedNormal(0.0, 4e306, -math.inf, math.inf),
                 TruncatedNormal(0.0, 1e307, 0.0, math.inf),
                 TruncatedNormal(0.0, 1e308, -1e308, 1e308)):
        for q in (0.0, 2**-53, 0.5, 0.99, 1 - 2**-53):
            assert math.isfinite(dist.quantile(q)), (dist, q)


@pytest.mark.parametrize("dist", FAMILIES)
def test_quantile_inverts_cdf(dist):
    for q in np.linspace(0.001, 0.999, 200):
        v = dist.quantile(float(q))
        assert dist.cdf(v) == pytest.approx(float(q), abs=1e-9)


def test_zero_density_raises():
    u = Uniform(0.0, 1.0)
    with pytest.raises(DistributionError):
        u.virtual_value(2.0)


def test_sampling_is_reproducible():
    dist = Exponential(1.0)
    a = [sample(dist, np.random.default_rng(5)) for _ in range(10)]
    b = [sample(dist, np.random.default_rng(5)) for _ in range(10)]
    assert a == b


def test_sample_means_match_theory():
    rng = np.random.default_rng(101)
    draws = np.array([sample(Uniform(0.0, 1.0), rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    rng = np.random.default_rng(103)
    draws = np.array([sample(Exponential(1.0), rng) for _ in range(100_000)])
    assert abs(draws.mean() - 1.0) < 0.02


def test_standard_families_are_regular():
    assert is_regular(Uniform(0.0, 1.0))
    assert is_regular(Exponential(1.0))
    assert is_regular(TruncatedNormal(mu=1.0, sigma=0.5, lo=0.0, hi=3.0))


def bimodal_fixture():
    """Equal mixture of two well-separated truncated normals on [0, 4];
    the density trough between the modes drags the virtual value down."""
    parts = [
        TruncatedNormal(mu=0.5, sigma=0.15, lo=0.0, hi=4.0),
        TruncatedNormal(mu=3.0, sigma=0.15, lo=0.0, hi=4.0),
    ]

    def cdf(v: float) -> float:
        return 0.5 * parts[0].cdf(v) + 0.5 * parts[1].cdf(v)

    def pdf(v: float) -> float:
        return 0.5 * parts[0].pdf(v) + 0.5 * parts[1].pdf(v)

    def quantile(q: float) -> float:
        lo, hi = 0.0, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return CustomDistribution(cdf, pdf, quantile, lo=0.0, hi=4.0)


@pytest.mark.parametrize("grid", [0, -5, 2.5, True, "3", None, math.nan])
def test_is_regular_refuses_a_grid_that_is_no_positive_integer(grid):
    with pytest.raises(ValidationError, match="grid must be a positive"):
        is_regular(Uniform(0.0, 1.0), grid=grid)


def test_bimodal_mixture_is_irregular():
    assert not is_regular(bimodal_fixture(), grid=2001)


def test_regularity_cache_is_bounded():
    # custom distributions hash by identity, so each one is a new entry
    u = Uniform(0.0, 1.0)
    limit = _regular_cached.cache_info().maxsize
    assert limit is not None
    for _ in range(limit + 1):
        custom = CustomDistribution(u.cdf, u.pdf, u.quantile, lo=0.0, hi=1.0,
                                    probe_points=2)
        assert is_regular(custom, grid=3)
    assert _regular_cached.cache_info().currsize <= limit


def test_custom_distribution_validates_triple():
    u = Uniform(0.0, 1.0)
    with pytest.raises(DistributionError):
        CustomDistribution(u.cdf, u.pdf, lambda q: 0.5 * q, lo=0.0, hi=1.0)


def test_json_fragments_round_trip():
    for dist in (Uniform(0.0, 2.0), Exponential(0.7),
                 TruncatedNormal(mu=1.0, sigma=0.5, lo=0.0, hi=3.0)):
        assert dist_from_dict(dist_to_dict(dist)) == dist
    with pytest.raises(DistributionError):
        dist_from_dict({"family": "zipf", "s": 2})
    with pytest.raises(DistributionError):
        dist_from_dict({"family": "uniform", "a": 0})
    with pytest.raises(DistributionError):
        dist_from_dict({"family": ["uniform"], "a": 0, "b": 1})


def test_truncated_normal_without_mass_fails_at_construction():
    with pytest.raises(DistributionError, match="no mass"):
        dist_from_dict({"family": "truncnorm", "mu": 100, "sigma": 1,
                        "lo": 0, "hi": 1})


@pytest.mark.parametrize("data", [
    {"family": "uniform", "a": "x", "b": 1},
    {"family": "exponential", "rate": None},
    {"family": "truncated_normal", "mu": 0, "sigma": [1], "lo": 0, "hi": 1},
    {"family": "uniform", "a": "0", "b": 1},
    {"family": "uniform", "a": 0, "b": True},
])
def test_non_numeric_parameters_are_distribution_errors(data):
    with pytest.raises(DistributionError, match="must be a number"):
        dist_from_dict(data)

"""Value distributions: CDF/PDF/quantile triples with virtual values.

Advertiser values are independent draws from absolutely continuous
distributions with positive density on their support.  Three closed-form
families ship (uniform, exponential, truncated normal); anything else can be
supplied as a raw (cdf, pdf, quantile) triple, which is validated
numerically at construction.

The virtual value phi(v) = v - (1 - F(v)) / f(v) drives revenue
maximization; a distribution is regular when phi is non-decreasing, which
is checked on a quantile grid rather than assumed.  Uniform and exponential
values also invert phi in closed form (``inverse_virtual_values``), a guess
that the mechanisms check before they use it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SlotauctionError, json_fits, positive_int

INVERSE_TOL = 1e-9
REGULARITY_GRID = 10_001


class DistributionError(SlotauctionError, ValueError):
    """A distribution parameter or evaluation point is unusable."""


class ValueDistribution:
    """Interface: cdf/pdf/quantile on a support [lo, hi] with f > 0 inside."""

    lo: float
    hi: float  # math.inf for unbounded-above supports

    def cdf(self, v: float) -> float:
        raise NotImplementedError

    def pdf(self, v: float) -> float:
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        raise NotImplementedError

    def virtual_value(self, v: float) -> float:
        """phi(v) = v - (1 - F(v)) / f(v); requires positive density at v."""
        density = self.pdf(v)
        if density <= 0.0:
            raise DistributionError(
                f"zero density at v={v}; virtual value undefined"
            )
        return v - (1.0 - self.cdf(v)) / density

    def virtual_values(self, v: np.ndarray) -> np.ndarray:
        """``virtual_value`` at each point of ``v``, bit for bit.  Families
        override this loop only where numpy repeats the scalar operations
        (``np.exp`` is not ``math.exp`` to the last bit; numpy has no erf)."""
        return np.array([self.virtual_value(x) for x in np.ravel(v).tolist()],
                        dtype=float).reshape(np.shape(v))

    def inverse_virtual_values(self, phi: np.ndarray) -> np.ndarray:
        """A guess at the smallest value whose virtual value reaches each
        target of ``phi``, or NaN where the family has none (here: every
        target; the closed-form families override it).  Above the support
        the guess continues phi as the identity, as the mechanisms bid
        there.  A guess, not a bound: float phi is rounded, so where it
        crosses a target can lie a float or two away; callers check it."""
        return np.full(np.shape(phi), np.nan)


def _require_finite(family: str, **params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise DistributionError(
                f"{family} needs a finite {name}, got {value!r}")


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("uniform", a=self.a, b=self.b)
        if not self.a < self.b:
            raise DistributionError("uniform needs a < b")
        if not math.isfinite(self.b - self.a):
            raise DistributionError(
                f"uniform needs a finite width b - a, got a={self.a!r},"
                f" b={self.b!r}")

    @property
    def lo(self) -> float:
        return self.a

    @property
    def hi(self) -> float:
        return self.b

    def cdf(self, v: float) -> float:
        return min(1.0, max(0.0, (v - self.a) / (self.b - self.a)))

    def pdf(self, v: float) -> float:
        return 1.0 / (self.b - self.a) if self.a <= v <= self.b else 0.0

    def quantile(self, q: float) -> float:
        return self.a + q * (self.b - self.a)

    def virtual_values(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not np.all((self.a <= v) & (v <= self.b)):
            raise DistributionError("zero density off [a, b]: no virtual value")
        cdf = np.minimum(1.0, np.maximum(0.0, (v - self.a) / (self.b - self.a)))
        return v - (1.0 - cdf) / (1.0 / (self.b - self.a))

    def inverse_virtual_values(self, phi: np.ndarray) -> np.ndarray:
        """phi(v) = 2v - b on [a, b], so (phi + b) / 2, clipped to [a, b];
        the identity above b."""
        phi = np.asarray(phi, dtype=float)
        return np.where(phi > self.b, phi,
                        np.clip((phi + self.b) / 2.0, self.a, self.b))


@dataclass(frozen=True)
class Exponential(ValueDistribution):
    rate: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("exponential", rate=self.rate)
        if not self.rate > 0.0:
            raise DistributionError("exponential needs rate > 0")
        if not math.isfinite(1.0 / self.rate):
            raise DistributionError("exponential needs a finite mean 1/rate,"
                                    f" got rate={self.rate!r}")

    lo = 0.0
    hi = math.inf

    def cdf(self, v: float) -> float:
        return 1.0 - math.exp(-self.rate * v) if v > 0.0 else 0.0

    def pdf(self, v: float) -> float:
        return self.rate * math.exp(-self.rate * v) if v >= 0.0 else 0.0

    def quantile(self, q: float) -> float:
        if not 0.0 <= q < 1.0:
            raise DistributionError(f"quantile needs q in [0, 1), got {q}")
        return -math.log1p(-q) / self.rate

    def virtual_value(self, v: float) -> float:
        """phi(v) = v - 1/rate: the hazard rate f / (1 - F) is the rate."""
        if not v >= 0.0:
            raise DistributionError(
                f"zero density at v={v}; virtual value undefined")
        return v - 1.0 / self.rate

    def virtual_values(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not np.all(v >= 0.0):
            raise DistributionError("zero density below 0: no virtual value")
        return v - 1.0 / self.rate

    def inverse_virtual_values(self, phi: np.ndarray) -> np.ndarray:
        """phi(v) = v - 1/rate, so phi + 1/rate, at least 0."""
        return np.maximum(np.asarray(phi, dtype=float) + 1.0 / self.rate, 0.0)


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# Rational approximation for the standard normal quantile (relative error
# ~1e-9), then two Newton corrections to push the inverse property well
# below the 1e-9 contract.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def _std_normal_quantile(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise DistributionError(f"normal quantile needs q in (0, 1), got {q}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if q < 0.02425:
        s = math.sqrt(-2.0 * math.log(q))
        x = (((((c[0] * s + c[1]) * s + c[2]) * s + c[3]) * s + c[4]) * s + c[5]) \
            / ((((d[0] * s + d[1]) * s + d[2]) * s + d[3]) * s + 1.0)
    elif q > 1.0 - 0.02425:
        s = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -(((((c[0] * s + c[1]) * s + c[2]) * s + c[3]) * s + c[4]) * s + c[5]) \
            / ((((d[0] * s + d[1]) * s + d[2]) * s + d[3]) * s + 1.0)
    else:
        s = q - 0.5
        r = s * s
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * s \
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    for _ in range(2):
        err = _std_normal_cdf(x) - q
        x -= err / _std_normal_pdf(x)
    return x


@dataclass(frozen=True)
class TruncatedNormal(ValueDistribution):
    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require_finite("truncated normal", mu=self.mu, sigma=self.sigma)
        if not self.sigma > 0.0:
            raise DistributionError("truncated normal needs sigma > 0")
        if not self.lo < self.hi:
            raise DistributionError("truncated normal needs lo < hi")
        flo = _std_normal_cdf((self.lo - self.mu) / self.sigma)
        fhi = _std_normal_cdf((self.hi - self.mu) / self.sigma)
        if not fhi - flo > 0.0:
            raise DistributionError("truncation window carries no mass")
        # The standard normal CDF at the window's ends, used by every call.
        object.__setattr__(self, "_mass", (flo, fhi))

    def cdf(self, v: float) -> float:
        if v <= self.lo:
            return 0.0
        if v >= self.hi:
            return 1.0
        flo, fhi = self._mass
        return (_std_normal_cdf((v - self.mu) / self.sigma) - flo) / (fhi - flo)

    def pdf(self, v: float) -> float:
        if not self.lo <= v <= self.hi:
            return 0.0
        flo, fhi = self._mass
        return _std_normal_pdf((v - self.mu) / self.sigma) / (
            self.sigma * (fhi - flo)
        )

    def quantile(self, q: float) -> float:
        if q <= 0.0:
            return self.lo
        if q >= 1.0:
            return self.hi
        flo, fhi = self._mass
        x = _std_normal_quantile(flo + q * (fhi - flo))
        return min(self.hi, max(self.lo, self.mu + self.sigma * x))


class CustomDistribution(ValueDistribution):
    """Extension point: a user-supplied (cdf, pdf, quantile) triple.

    The triple is sanity-checked at construction: F(quantile(q)) must track
    q within INVERSE_TOL on a probe grid, and the density must be positive
    at the probed points.
    """

    def __init__(
        self,
        cdf: Callable[[float], float],
        pdf: Callable[[float], float],
        quantile: Callable[[float], float],
        lo: float,
        hi: float,
        probe_points: int = 101,
    ) -> None:
        self._cdf, self._pdf, self._quantile = cdf, pdf, quantile
        self.lo, self.hi = float(lo), float(hi)
        for q in np.linspace(0.001, 0.999, probe_points):
            v = quantile(float(q))
            if not lo <= v <= hi:
                raise DistributionError(f"quantile({q}) = {v} leaves [lo, hi]")
            if abs(cdf(v) - q) > INVERSE_TOL:
                raise DistributionError(
                    f"cdf(quantile({q})) = {cdf(v)}: triple is inconsistent"
                )
            if pdf(v) <= 0.0:
                raise DistributionError(f"density vanishes at v = {v}")

    def cdf(self, v: float) -> float:
        return self._cdf(v)

    def pdf(self, v: float) -> float:
        return self._pdf(v)

    def quantile(self, q: float) -> float:
        return self._quantile(q)


def sample(dist: ValueDistribution, rng: np.random.Generator) -> float:
    """One inverse-transform draw from a caller-owned random source."""
    return dist.quantile(float(rng.random()))


# Bounded because custom distributions hash by identity and would otherwise
# stay alive for the life of the process; one mechanism call checks at most
# n distributions, far fewer than this.
@functools.lru_cache(maxsize=1024)
def _regular_cached(dist: ValueDistribution, grid: int) -> bool:
    qs = np.arange(1, grid + 1) / (grid + 1)
    last = -math.inf
    for q in qs:
        phi = dist.virtual_value(dist.quantile(float(q)))
        if phi < last - 1e-9:
            return False
        last = max(last, phi)
    return True


def is_regular(dist: ValueDistribution, grid: int = REGULARITY_GRID) -> bool:
    """True when the virtual value is non-decreasing across ``grid`` interior
    quantile points (tolerance 1e-9); ``grid`` must be a positive integer,
    no bool.  The latest 1024 results are cached per (distribution, grid),
    so mechanisms can re-check freely."""
    return _regular_cached(dist, positive_int("grid", grid))


def dist_from_dict(data: dict) -> ValueDistribution:
    """Build a distribution from the JSON fragments used in CLI configs,
    e.g. {"family": "uniform", "a": 0, "b": 1}.  The family must be a
    string and each parameter a number, by ``core.json_fits``."""

    def param(key: str, kind: type = float):
        if key not in data:
            raise DistributionError(f"missing parameter: {key!r}")
        if not json_fits(kind, data[key]):
            noun = "number" if kind is float else "string"
            raise DistributionError(
                f"parameter {key!r} must be a {noun}, got {data[key]!r}")
        return kind(data[key])

    family = param("family", str).lower()
    if family == "uniform":
        return Uniform(a=param("a"), b=param("b"))
    if family == "exponential":
        return Exponential(rate=param("rate"))
    if family in ("truncated_normal", "truncnorm"):
        return TruncatedNormal(mu=param("mu"), sigma=param("sigma"),
                               lo=param("lo"), hi=param("hi"))
    raise DistributionError(f"unknown family {data['family']!r}")


def dist_to_dict(dist: ValueDistribution) -> dict:
    if isinstance(dist, Uniform):
        return {"family": "uniform", "a": dist.a, "b": dist.b}
    if isinstance(dist, Exponential):
        return {"family": "exponential", "rate": dist.rate}
    if isinstance(dist, TruncatedNormal):
        return {"family": "truncated_normal", "mu": dist.mu,
                "sigma": dist.sigma, "lo": dist.lo, "hi": dist.hi}
    raise DistributionError("custom distributions have no JSON form")

"""Chi-square special functions and reference density families.

The chi-square CDF and upper tail are the regularized incomplete gamma
functions P(df/2, x/2) and Q = 1 - P, and one function picks the branch for
both tails: a series expansion gives P for x/2 < df/2 + 1, and a continued
fraction gives Q otherwise.  Quantiles invert the CDF from a close start to
a relative tolerance.  Everything here is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DomainError

MAX_DF = 10_000  # above it the tails lose 1e-10 of relative accuracy, so it is refused
_EPS = 1e-15
_FPMIN = 1e-300
_ITMAX = 1000  # the series needs about 560 terms at df = MAX_DF


def _gamma_series(a: float, x: float) -> float:
    # series: P(a,x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * _EPS:  # every term and the total are positive
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise DomainError(f"chi-square series did not converge at df = {2.0 * a:g}")

def _gamma_cont_fraction(a: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for Q(a,x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_EPS < delta - 1.0 < _EPS:
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise DomainError(f"chi-square continued fraction did not converge at df = {2.0 * a:g}")

def _check_df(df: float) -> None:
    if not (0 < df <= MAX_DF and df / 2.0 > 0):  # a subnormal df halves to 0
        raise DomainError(f"degrees of freedom must be positive and finite, and at most "
                          f"{MAX_DF}, got {df}")

def chisq_pdf(x: float, df: float) -> float:
    """Chi-square density with df degrees of freedom."""
    _check_df(df)
    if not math.isfinite(x):
        raise DomainError(f"chi-square argument must be finite, got {x}")
    if x < 0:
        return 0.0
    if x == 0:
        if df == 2:
            return 0.5
        return math.inf if df < 2 else 0.0
    half = df / 2.0
    return math.exp((half - 1.0) * math.log(x) - x / 2.0
                    - math.lgamma(half) - half * math.log(2.0))

def chisq_tails(x: float, df: float) -> tuple[float, float]:
    """(F_df(x), 1 - F_df(x)) as (P, Q)(a, y) at a = df/2, y = x/2: the series gives
    P for y < a + 1, the continued fraction Q from there on, and the other is 1 minus it."""
    _check_df(df)
    a, y = df / 2.0, x / 2.0
    if not 0 <= x < math.inf:
        raise DomainError(f"chi-square argument must be finite and nonnegative, got {x}")
    if y < a + 1.0:
        p = _gamma_series(a, y) if y > 0 else 0.0
        return p, 1.0 - p
    q = _gamma_cont_fraction(a, y)
    return 1.0 - q, q

def chisq_cdf(x: float, df: float) -> float:
    """Chi-square CDF F_df(x) = P(df/2, x/2)."""
    return chisq_tails(x, df)[0]

def chisq_sf(x: float, df: float) -> float:
    """Chi-square upper tail 1 - F_df(x) = Q(df/2, x/2): from x = df + 2 on the
    continued fraction's own Q, so a tail far below 1e-16 keeps its relative accuracy."""
    return chisq_tails(x, df)[1]

def chisq_quantile(p: float, df: float) -> float:
    """Inverse of chisq_cdf in p, by bracketed third-order (Chebyshev) steps from
    the Wilson-Hilferty cube df (1 - c + z sqrt(c))^3 (c = 2/(9 df), z ~ the normal
    p-quantile), or for small p the small-x law F(x) ~ (x/2)^(df/2) / Gamma(df/2 + 1),
    until |F(x) - p| <= 1e-15 p or the bracket is 1e-15 x wide.  For 1 - p below
    1e-4 it solves the upper tail Q(x) = 1 - p to |Q(x) - q| <= 1e-15 q instead."""
    _check_df(df)
    if not 0 <= p < 1:
        raise DomainError(f"probability must lie in [0, 1), got {p}")
    if p == 0:
        return 0.0
    if 1.0 - p < 1e-4:
        return _chisq_upper_quantile(1.0 - p, df)
    # Q(hi) < 5e-9 for every df (hi is 20 sd past the mean): [0, hi] holds the root
    lo, hi = 0.0, df + 20.0 * math.sqrt(2.0 * df) + 20.0
    half, c = df / 2.0, 2.0 / (9.0 * df)
    cube = 1.0 - c + 4.91 * (p ** 0.14 - (1.0 - p) ** 0.14) * math.sqrt(c)
    small = math.exp((math.log(p) + math.lgamma(half + 1.0)) / half)  # x/2, small-x law
    x = (2.0 * small * (1.0 + small / (half + 1.0))
         if cube <= 0 or small < 0.2 * (half + 1.0) else df * cube ** 3)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        f = chisq_cdf(x, df) - p
        if f > 0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-15 * p or hi - lo <= 1e-15 * x:
            break
        slope = chisq_pdf(x, df)
        if slope > 0 and math.isfinite(slope):
            t = f / slope  # the Newton step, then its correction by pdf'/pdf
            step = x - t * (1.0 + 0.5 * t * ((half - 1.0) / x - 0.5))
        else:
            step = lo  # force the bisection branch
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x

def _chisq_upper_quantile(q: float, df: float) -> float:
    # where F rounds near 1, invert the upper tail Q(x) = q instead: Newton steps
    # on log Q, exact for df = 2, inside a bracket that bisects when they leave it
    lo, hi = 0.0, df + 20.0 * math.sqrt(2.0 * df) + 20.0
    while chisq_sf(hi, df) > q:
        lo, hi = hi, 2.0 * hi
    x = 0.5 * (lo + hi)
    for _ in range(200):
        tail, slope = chisq_sf(x, df), chisq_pdf(x, df)
        lo, hi = (lo, x) if tail < q else (x, hi)
        step = (x + math.log(tail / q) * tail / slope if tail > 0 and slope > 0
                else 0.5 * (lo + hi))
        if abs(tail - q) <= 1e-15 * q or min(hi - lo, abs(step - x)) <= 1e-15 * x:
            break
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x


_FAMILY_PARAMS = {
    "normal": ("mean", "sd"),
    "cauchy": ("location", "scale"),
    "student_t": ("location", "scale", "df"),
}
_POSITIVE_PARAMS = ("sd", "scale", "df")


@dataclass(frozen=True)
class DensityFamily:
    """A parametric density usable as a reference; its params are read-only floats."""

    family: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_PARAMS:
            raise DomainError(f"unknown density family {self.family!r}")
        expected = _FAMILY_PARAMS[self.family]
        if tuple(sorted(self.params)) != tuple(sorted(expected)):
            raise DomainError(
                f"family {self.family!r} takes parameters {sorted(expected)}, "
                f"got {sorted(self.params)}")
        object.__setattr__(self, "params", MappingProxyType(
            {k: float(v) for k, v in self.params.items()}))
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise DomainError(f"parameter {name!r} must be finite")
            if name in _POSITIVE_PARAMS and value <= 0:
                raise DomainError(f"parameter {name!r} must be positive, got {value}")

    def __reduce__(self):  # a mappingproxy does not pickle; rebuild from a dict
        return type(self), (self.family, dict(self.params))

    @classmethod
    def normal(cls, mean: float, sd: float) -> "DensityFamily":
        return cls("normal", {"mean": mean, "sd": sd})

    @classmethod
    def cauchy(cls, location: float, scale: float) -> "DensityFamily":
        return cls("cauchy", {"location": location, "scale": scale})

    @classmethod
    def student_t(cls, location: float, scale: float, df: float) -> "DensityFamily":
        return cls("student_t", {"location": location, "scale": scale, "df": df})


def density_eval(fam: DensityFamily, theta):
    """Density of the family at theta (scalar or array).  A z past the float
    range gives a density of 0, which the caller reports, not a warning."""
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):
        if fam.family == "normal":
            mean, sd = fam.params["mean"], fam.params["sd"]
            z = (theta - mean) / sd
            out = np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
        elif fam.family == "cauchy":
            loc, scale = fam.params["location"], fam.params["scale"]
            z = (theta - loc) / scale
            out = 1.0 / (math.pi * scale * (1.0 + z * z))
        else:
            loc, scale, df = (fam.params["location"], fam.params["scale"],
                              fam.params["df"])
            z = (theta - loc) / scale
            log_coeff = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                         - 0.5 * math.log(df * math.pi) - math.log(scale))
            out = np.exp(log_coeff - (df + 1.0) / 2.0 * np.log1p(z * z / df))
    return out if out.ndim else float(out)

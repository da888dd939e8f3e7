"""Ground truth for the benchmark's checks, computed apart from fbst.

Nothing here imports fbst or shares its code.  The module gives:

- closed-form e-values and p-values for a normal posterior, with a flat or
  a normal reference function;
- a midpoint-rule integrator of e-values over known densities;
- a chi-square CDF and quantile of its own, used to recompute the
  standardized e-value from the e-value;
- the tolerance bands the checks allow, derived from the sample size, the
  chain's autocorrelation and the density grid spacing (see README.md).

`python3 perfbench/reference.py` runs the self-tests.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
KERNEL_ROUGHNESS = 1.0 / (2.0 * math.sqrt(math.pi))  # R(K) of the Gaussian kernel
Z = 4.0  # half-width of every sampling band, in standard errors
MIDPOINT_STEPS = 200_000

_erfc = np.frompyfunc(math.erfc, 1, 1)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def _norm_cdf_array(x: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc(-x / SQRT2).astype(float)


def normal_pdf(x, mu: float, s: float):
    z = (np.asarray(x, dtype=float) - mu) / s
    return np.exp(-0.5 * z * z) / (s * SQRT2PI)


# -- chi-square -------------------------------------------------------------

def chisq_cdf(x: float, df: int) -> float:
    """F_df(x) for integer df by the finite series of Abramowitz & Stegun 26.4.4-5."""
    if df < 1 or df != int(df):
        raise ValueError(f"integer degrees of freedom needed, got {df}")
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    half = x / 2.0
    if df % 2 == 0:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= half / j
            total += term
        return max(0.0, 1.0 - math.exp(-half) * total)
    root = math.sqrt(x)
    term, total = root, 0.0
    for j in range(1, (df - 1) // 2 + 1):
        total += term
        term *= x / (2 * j + 1)
    return math.erf(root / SQRT2) - 2.0 * math.exp(-half) / SQRT2PI * total


def chisq_quantile(p: float, df: int) -> float:
    """Inverse of chisq_cdf by bisection."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    lo, hi = 0.0, float(df) + 10.0
    while chisq_cdf(hi, df) < p:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if chisq_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sev_from_ev(ev_against: float, k: int, h: int) -> float:
    """Standardized e-value 1 - F_{k-h}(F_k^{-1}(ev_against))."""
    if ev_against <= 0.0:
        return 1.0
    if ev_against >= 1.0:
        return 0.0
    return 1.0 - chisq_cdf(chisq_quantile(ev_against, k), k - h)


# -- posteriors with known densities ------------------------------------------
# pdf(x, h) is the density convolved with a Gaussian kernel of sd h: the KDE
# estimates that smoothed density, not the posterior itself.

class Normal:
    def __init__(self, mu: float, s: float):
        self.mu, self.s = float(mu), float(s)
        self.mean, self.sd = self.mu, self.s
        self.lo, self.hi = self.mu - 14.0 * self.s, self.mu + 14.0 * self.s

    def pdf(self, x, h: float = 0.0):
        return normal_pdf(x, self.mu, math.hypot(self.s, h))


class Mixture:
    def __init__(self, weights, mus, s: float):
        self.weights = [float(w) for w in weights]
        self.mus = [float(m) for m in mus]
        self.s = float(s)
        self.mean = sum(w * m for w, m in zip(self.weights, self.mus))
        second = sum(w * (self.s ** 2 + m * m) for w, m in zip(self.weights, self.mus))
        self.sd = math.sqrt(second - self.mean ** 2)
        self.lo = min(self.mus) - 14.0 * self.s
        self.hi = max(self.mus) + 14.0 * self.s

    def pdf(self, x, h: float = 0.0):
        s = math.hypot(self.s, h)
        return sum(w * normal_pdf(x, m, s) for w, m in zip(self.weights, self.mus))


class Gamma3:
    """Gamma(shape 3, rate 1): x^2 e^-x / 2 on x > 0."""

    mean, sd = 3.0, math.sqrt(3.0)
    lo, hi = -2.0, 45.0

    def pdf(self, x, h: float = 0.0):
        x = np.asarray(x, dtype=float)
        if h == 0.0:
            pos = np.maximum(x, 0.0)
            return np.where(x > 0.0, 0.5 * pos * pos * np.exp(-pos), 0.0)
        # E[Y^2; Y > 0] for Y ~ N(m, h^2), m = x - h^2, after completing the square
        m = x - h * h
        tail = (m * m + h * h) * _norm_cdf_array(m / h) + m * h * normal_pdf(m / h, 0.0, 1.0)
        return 0.5 * np.exp(-x + 0.5 * h * h) * np.maximum(tail, 0.0)


# -- reference functions --------------------------------------------------------
# ("flat",), ("normal", mean, sd), ("cauchy", location, scale),
# ("student_t", location, scale, df), ("table", grid, values[, source file])

def ref_pdf(ref, x):
    x = np.asarray(x, dtype=float)
    kind = ref[0]
    if kind == "flat":
        return np.ones_like(x)
    if kind == "normal":
        return normal_pdf(x, ref[1], ref[2])
    if kind == "cauchy":
        z = (x - ref[1]) / ref[2]
        return 1.0 / (math.pi * ref[2] * (1.0 + z * z))
    if kind == "student_t":
        loc, scale, df = ref[1:]
        z = (x - loc) / scale
        log_c = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                 - 0.5 * math.log(df * math.pi) - math.log(scale))
        return np.exp(log_c - (df + 1.0) / 2.0 * np.log1p(z * z / df))
    if kind == "table":
        return np.interp(x, ref[1], ref[2])
    raise ValueError(f"unknown reference {kind!r}")


# -- e-values --------------------------------------------------------------------

def _normal_closed_form(post: Normal, ref, null: float, h: float, shift: float):
    """Region {log(p_h/r) > log(p_h/r)(null) + shift} is an interval around the
    ratio's mode; returns its mass under p_h and the density at its two ends."""
    s = math.hypot(post.s, h)
    if ref[0] == "flat":
        a, centre = 0.5 / (s * s), post.mu
    else:
        m, t = ref[1], ref[2]
        a = 0.5 * (1.0 / (s * s) - 1.0 / (t * t))
        centre = (post.mu / (s * s) - m / (t * t)) / (2.0 * a)
    d2 = (null - centre) ** 2 - shift / a
    if d2 <= 0.0:
        return 0.0, 0.0
    d = math.sqrt(d2)
    ev = norm_cdf((centre + d - post.mu) / s) - norm_cdf((centre - d - post.mu) / s)
    ends = float(normal_pdf(centre + d, post.mu, s) + normal_pdf(centre - d, post.mu, s))
    return ev, ends


class Integrator:
    """Midpoint rule over [post.lo, post.hi]; caches the tabulated densities."""

    def __init__(self, steps: int = MIDPOINT_STEPS):
        self.steps = steps
        self._tables = {}

    def _table(self, post, h: float):
        key = (id(post), h)
        if key not in self._tables:
            width = (post.hi - post.lo) / self.steps
            xs = post.lo + (np.arange(self.steps) + 0.5) * width
            self._tables[key] = (post, xs, post.pdf(xs, h))
        _, xs, dens = self._tables[key]
        return xs, dens

    def evalue(self, post, ref, null: float, h: float = 0.0, shift: float = 0.0):
        """(ev, density summed over region ends) for the region where
        p_h / r exceeds its value at the null times e^shift."""
        if shift == -math.inf:
            return 1.0, 0.0
        closed = isinstance(post, Normal) and (
            ref[0] == "flat" or (ref[0] == "normal" and ref[2] > math.hypot(post.s, h)))
        if closed:
            return _normal_closed_form(post, ref, null, h, shift)
        xs, dens = self._table(post, h)
        ratio = dens / ref_pdf(ref, xs)
        level = float(post.pdf(np.array([null]), h)[0] / ref_pdf(ref, np.array([null]))[0])
        member = ratio > level * math.exp(shift)
        edges = np.flatnonzero(member[1:] != member[:-1])
        ends = float(dens[edges].sum())
        return float(dens[member].sum() / dens.sum()), ends


def level_error(post, null: float, n_eff: float, h: float) -> float:
    """Relative error, at Z standard errors, of the KDE's level p_h(null).

    Three sources: the KDE's pointwise variance R(K) p / (n h), counted at
    the null and at a region end; a shift of the whole sample's location by
    one standard error of the mean; and a change of its scale by one standard
    error of the standard deviation.
    """
    step = 1e-4 * post.sd
    p0, lo, hi = post.pdf(np.array([null, null - step, null + step]), h)
    dlog = (math.log(hi) - math.log(lo)) / (2.0 * step)
    pointwise = KERNEL_ROUGHNESS / (n_eff * h * p0)
    location = dlog * post.sd / math.sqrt(n_eff)
    scale = (1.0 + (null - post.mean) * dlog) / math.sqrt(2.0 * n_eff)
    return Z * math.sqrt(2.0 * pointwise + location ** 2 + scale ** 2)


def _shifts(eps: float):
    return (math.log1p(eps), 0.0, math.log1p(-eps) if eps < 1.0 else -math.inf)


def ev_band(integrator: Integrator, post, ref, null: float, n_eff: float,
            h: float, spacing: float) -> tuple[float, float]:
    """Interval that a grid or Monte Carlo e-value must fall in.

    The region's level may be off by level_error; the estimate lies between
    the mass of the smoothed density (grid) and of the raw one (draws); the
    region's mass has its own sampling error; and each region end can move
    by one grid spacing.
    """
    eps = level_error(post, null, n_eff, h)
    values, ends = [], 0.0
    for smooth in (0.0, h):
        for shift in _shifts(eps):
            ev, end_density = integrator.evalue(post, ref, null, smooth, shift)
            values.append(ev)
            ends = max(ends, end_density)
    centre = integrator.evalue(post, ref, null, h)[0]
    slack = Z * math.sqrt(centre * (1.0 - centre) / n_eff) + spacing * ends
    return max(0.0, min(values) - slack), min(1.0, max(values) + slack)


def pvalue_band(post: Normal, null: float, df: int, n_eff: float, h: float,
                spacing: float) -> tuple[float, float]:
    """Interval for 1 - F_df(-2 ln ratio) of a normal posterior, where ratio
    is the KDE at the null over the KDE's peak on the grid."""
    eps = level_error(post, null, n_eff, h) + spacing ** 2 / (8.0 * post.s ** 2)
    values = []
    for s in (post.s, math.hypot(post.s, h)):
        z2 = ((null - post.mu) / s) ** 2
        for shift in _shifts(eps):
            values.append(1.0 - chisq_cdf(max(0.0, z2 - 2.0 * shift), df))
    return min(values), max(values)


def silverman(draws: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 min(sd, IQR / 1.34) n^-1/5 (Silverman 1986)."""
    sd = float(np.std(draws, ddof=1))
    q25, q75 = np.percentile(draws, [25, 75])
    iqr = float(q75 - q25)
    return 0.9 * min(sd, iqr / 1.34) * draws.size ** -0.2


def grid_spacing(draws: np.ndarray, h: float, nodes: int = 1024) -> float:
    """Spacing of a grid from min - 3h to max + 3h, capped at h / 2: a grid
    coarser than half a bandwidth does not resolve the KDE, and the check
    then treats the estimate as wrong rather than widen its band."""
    span = float(draws.max() - draws.min()) + 6.0 * h
    return min(span / (nodes - 1), 0.5 * h)


def ar1_n_eff(n: int, phi: float) -> float:
    """Effective sample size of an AR(1) chain's mean."""
    return n * (1.0 - phi) / (1.0 + phi)


def half_unit(text: str) -> float:
    """Half a unit in the last place of a number printed with %.7g."""
    value = float(text)
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 6)


# -- self-tests -----------------------------------------------------------------

def self_test() -> list[str]:
    """Check this module against textbook values; returns the failures."""
    problems = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{name}: got {got!r}, want {want!r}")

    for x in (0.01, 0.5, 1.0, 3.841459, 10.0, 40.0):
        expect(f"F_1({x}) via erf", chisq_cdf(x, 1), math.erf(math.sqrt(x / 2.0)), 1e-15)
        expect(f"F_2({x}) via exp", chisq_cdf(x, 2), 1.0 - math.exp(-x / 2.0), 1e-15)
    # 95 % and 99 % points from standard chi-square tables
    for df, p, x in ((1, 0.95, 3.841459), (2, 0.95, 5.991465), (3, 0.95, 7.814728),
                     (7, 0.95, 14.06714), (8, 0.95, 15.50731), (1, 0.99, 6.634897),
                     (8, 0.99, 20.09024)):
        expect(f"F_{df}^-1({p})", chisq_quantile(p, df), x, 5e-6)
        expect(f"F_{df}(F_{df}^-1({p}))", chisq_cdf(chisq_quantile(p, df), df), p, 1e-12)
    expect("Phi(1.959964)", norm_cdf(1.959964), 0.975, 1e-7)
    # standardized e-values of the acceptance battery (AC1), recomputed here
    expect("sev(0.8305998, 3, 2)", sev_from_ev(0.8305998, 3, 2), 0.0248695, 1e-6)
    expect("sev(0.9758885, 8, 7)", sev_from_ev(0.9758885, 8, 7), 0.00002672151, 1e-9)
    # the closed form and the integrator agree on a normal posterior
    integrator = Integrator()
    post = Normal(0.3, 0.8)
    for ref in (("flat",), ("normal", 0.0, 2.5)):
        closed = integrator.evalue(post, ref, 1.1)[0]
        xs, dens = integrator._table(post, 0.0)
        ratio = dens / ref_pdf(ref, xs)
        level = float(post.pdf(np.array([1.1]))[0] / ref_pdf(ref, np.array([1.1]))[0])
        midpoint = float(dens[ratio > level].sum() / dens.sum())
        expect(f"closed form vs midpoint, {ref[0]} reference", closed, midpoint, 1e-4)
    expect("erf e-value", integrator.evalue(post, ("flat",), 1.1)[0],
           math.erf(0.8 / (0.8 * SQRT2)), 1e-14)
    for name, dist in (("gamma", Gamma3()), ("mixture", Mixture((0.6, 0.4), (-1.5, 1.5), 0.7))):
        xs, dens = integrator._table(dist, 0.1)
        expect(f"{name} smoothed density integrates to 1",
               float(dens.sum() * (xs[1] - xs[0])), 1.0, 1e-6)
    return problems


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print(line)
    print("reference self-test:", "FAIL" if failures else "pass")
    raise SystemExit(1 if failures else 0)

"""Single-distribution risk measures on step CDFs.

Implements the left-quantile value at risk, expected shortfall via the
exact quantile-function integral, and the classical distortion risk
measure as an exact Choquet sum

    rho(X) = x_(1) + sum_k L(1 - F(x_(k))) * (x_(k+1) - x_(k)),

which for a step CDF equals the integral of L(1 - F) over the positive
axis plus the shifted integral over the negative axis.  Everything here is
exact arithmetic on the atoms; there is no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StepCDF, _as_1d, _entered, _level, _segment_es
from .errors import ValidationError


# the level each leveled kind takes: its name in a message, and its interval
_LEVELS = {"var_level": ("VaR distortion level", "(0, 1)"),
           "es_level": ("ES distortion level", "[0, 1)")}


@dataclass(frozen=True)
class DistortionFunction:
    """Nondecreasing map [0,1] -> [0,1] with L(0)=0 and L(1)=1.

    Four kinds:

    * ``identity``             L(u) = u (expectation)
    * ``var_level(p)``         L(u) = 1 if u > 1-p else 0 (left quantile)
    * ``es_level(p)``          L(u) = min(u / (1-p), 1) (expected shortfall)
    * ``piecewise_linear``     linear interpolation through (u, L(u)) knots
    """

    kind: str
    level: float | None = None
    knots_u: np.ndarray | None = None
    knots_v: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "identity":
            return
        if self.kind in _LEVELS:
            object.__setattr__(self, "level", _level(self.level, *_LEVELS[self.kind]))
            return
        if self.kind == "piecewise_linear":
            u, v = _as_1d(self.knots_u, "knots_u"), _as_1d(self.knots_v, "knots_v")
            if u.shape != v.shape or u.size < 2:
                raise ValidationError("piecewise_linear requires aligned knot vectors")
            if u[0] != 0.0 or u[-1] != 1.0 or not np.all(np.diff(u) > 0):
                raise ValidationError("knot grid must increase strictly from 0 to 1")
            if abs(v[0]) > 1e-15 or abs(v[-1] - 1.0) > 1e-15:
                raise ValidationError("distortion must satisfy L(0)=0 and L(1)=1")
            if np.any(np.diff(v) < 0):
                raise ValidationError("distortion must be nondecreasing on the grid")
            object.__setattr__(self, "knots_u", u)
            object.__setattr__(self, "knots_v", v)
            return
        raise ValidationError(f"unknown distortion kind {self.kind!r}")

    def __call__(self, u) -> np.ndarray | float:
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            out = u
        elif self.kind == "var_level":
            out = np.where(u > 1.0 - self.level, 1.0, 0.0)
        elif self.kind == "es_level":
            out = np.minimum(u / (1.0 - self.level), 1.0)
        else:
            out = np.interp(u, self.knots_u, self.knots_v)
        return float(out) if out.ndim == 0 else out


def identity_distortion() -> DistortionFunction:
    return DistortionFunction("identity")


def var_distortion(p: float) -> DistortionFunction:
    return DistortionFunction("var_level", level=p)


def es_distortion(p: float) -> DistortionFunction:
    return DistortionFunction("es_level", level=p)


def piecewise_linear_distortion(knots_u, knots_v) -> DistortionFunction:
    return DistortionFunction("piecewise_linear", knots_u=np.asarray(knots_u, float),
                              knots_v=np.asarray(knots_v, float))


def var(cdf: StepCDF, alpha):
    """Left quantile inf{x : F(x) >= alpha} for alpha in (0, 1], or an array
    of them at an array of levels.

    ``alpha = 1`` returns the last support point (the essential supremum):
    the count of cum below alpha, one left search, is capped at the last
    atom by leaving the last cum out of the search.
    """
    x = cdf.support[cdf.cum[:-1].searchsorted(_level(alpha, "VaR level", "(0, 1]"), side="left")]
    return x if x.ndim else float(x)


def quantiles(values, weights, levels):
    """``var(StepCDF.from_values(values, weights), levels)``, bit for bit,
    with no law built where the weights are equal (None, or all one value).

    The left quantile of n equally weighted values at p is then the order
    statistic of rank k = min{C : C / n >= p}, the division correctly
    rounded, whatever the ties.  ceil(p * n) is within one of k, and one
    step each way corrects it.  One level is read by ``min`` or ``max`` of
    the values as given at rank 1 or n, else by an in-place ``np.partition``
    of a copy; several by one ``np.sort`` of a copy.
    """
    levels = _level(levels, "VaR level", "(0, 1]")
    x = np.asarray(values, dtype=float)  # not copied where values is a float array
    ends = (x.min(), x.max()) if x.ndim == 1 and x.size else (np.nan,)
    if not np.isfinite(ends).all():  # finite ends: every value is finite
        _as_1d(values, "values")  # raises, naming the rule that fails
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        # equal, finite and positive, or from_values checks them and decides
        if not (w.shape == x.shape and 0 < w[0] < np.inf and (w == w[0]).all()):
            return var(StepCDF.from_values(values, weights), levels)
    n = x.size
    k = np.ceil(np.multiply(levels, n)).astype(np.int64)
    k -= (k - 1) / n >= levels
    k += k / n < levels
    k -= 1
    if k.size == 1 and k.item() in (0, n - 1):  # an end: no copy; + 0.0 reads -0.0 as 0.0
        out = np.full(k.shape, ends[k.item() > 0] + 0.0)
    else:
        x = _entered(x)  # a copy with one zero, sorted or partitioned in place
        if k.size != 1:
            x.sort()
        else:
            x.partition(k.item())
        out = x[k]
    return out if out.ndim else float(out)


def es(cdf: StepCDF, alpha: float) -> float:
    """Expected shortfall (1/(1-alpha)) * integral of the quantile over (alpha, 1].

    Exact for step CDFs: an atom straddling ``alpha`` contributes its
    partial mass.  ``alpha = 0`` gives the mean.
    """
    offsets = np.array([0, cdf.support.size])
    return float(_segment_es(cdf.support, cdf.cum, offsets, np.array([alpha]))[0])


def esssup(cdf: StepCDF) -> float:
    return float(cdf.support[-1])


def distortion_rho(cdf: StepCDF, lam: DistortionFunction) -> float:
    """Choquet integral of the step CDF under the distortion ``lam``."""
    xs = cdf.support
    surv = 1.0 - cdf.cum[:-1]
    return float(xs[0] + lam(surv) @ np.diff(xs))

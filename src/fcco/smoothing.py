"""Outer-function catalog with closed-form proximal maps and Moreau calculus.

Every catalog entry provides f(t), prox_{lam*f}(t), its Lipschitz constant,
its weak-convexity modulus (0 for the convex members), and whether it is
monotone nondecreasing.  The dimension, monotonicity and weak-convexity
modulus (and Identity's Lipschitz constant) are class constants, not
constructor arguments: ``slope`` and ``margin`` are the only parameters.
The two hinges can serve as the outer function of a penalty problem, and
each states the constraint function c it penalizes, f = slope * [c]_+.
``value`` and ``prox`` take a row stack of shape (..., d1) and work row by
row: ``value`` returns shape (...,) and ``prox`` the input's shape, so one
call covers a single point, the n exact inner values of a metric pass or a
brute-force grid.  Each row gets the same float64 arithmetic as a lone
point.  The Moreau envelope value/gradient are derived from the prox:

    envelope(t)  = f(p) + ||t - p||^2 / (2 lam),   p = prox_{lam*f}(t)
    gradient(t)  = (t - p) / lam,  which is a subgradient of f at p.

For convex entries the envelope is a lower model with gap at most
lam * lipschitz^2 / 2, and the gradient is (1/lam)-Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import ConfigError

__all__ = [
    "ScaledHinge",
    "GapHinge",
    "Identity",
    "make_outer",
    "moreau_grad",
    "moreau_value",
    "hinge_moreau_grad_closed_form",
    "dual_tracker_update",
]


def _as1d(t) -> np.ndarray:
    # np.atleast_1d's result without its Python-level wrapper
    t = np.asarray(t, dtype=float)
    return t.reshape(1) if t.ndim == 0 else t


def _relu(x):
    # max(x, 0.0) as Python's max computes it, -0.0 and NaN passing through;
    # np.maximum may turn -0.0 into 0.0
    return np.where(x < 0.0, 0.0, x)


@dataclass(frozen=True)
class ScaledHinge:
    """f(z) = slope * max(z, 0), the exact-penalty hinge (d1 = 1)."""

    dim: ClassVar[int] = 1
    monotone_nondecreasing: ClassVar[bool] = True
    weak_convexity: ClassVar[float] = 0.0

    slope: float

    def __post_init__(self):
        if not 0 < self.slope < math.inf:
            raise ConfigError("hinge slope must be positive and finite")

    @property
    def lipschitz(self) -> float:
        return self.slope

    def value(self, t):
        return self.slope * _relu(_as1d(t)[..., 0])

    def constraint(self, t):
        """c(t) = t, one value per row."""
        return _as1d(t)[..., 0]

    def constraint_grad(self, t) -> np.ndarray:
        return np.ones_like(_as1d(t))

    def prox(self, lam: float, t) -> np.ndarray:
        # argmin_v slope*[v]_+ + (v-t)^2/(2 lam): t up to 0 (t - 0.0), then
        # 0.0 (t - t) up to lam*slope, then t - lam*slope
        t = _as1d(t)
        return t - np.minimum(np.maximum(t, 0.0), lam * self.slope)


@dataclass(frozen=True)
class GapHinge:
    """f(z) = slope * max(|z1 - z2| - margin, 0) over 2-vectors.

    prox splits after rotating to gap/sum coordinates a=(z1-z2)/sqrt2,
    b=(z1+z2)/sqrt2: b is untouched and the gap coordinate solves the prox of
    the shifted two-sided hinge slope*sqrt2*[|a| - margin/sqrt2]_+, i.e. a
    dead zone up to margin/sqrt2, a clamp-to-threshold band of width
    lam*slope*sqrt2, and a soft shift by lam*slope*sqrt2 beyond it.  Its
    envelope gradient y has y_2 = -y_1 and |y_1| = min([c]_+, 2 lam slope) /
    (2 lam) for the constraint c(z) = |z1 - z2| - margin.
    """

    dim: ClassVar[int] = 2
    monotone_nondecreasing: ClassVar[bool] = False
    weak_convexity: ClassVar[float] = 0.0

    margin: float
    slope: float = 1.0

    def __post_init__(self):
        if not 0 <= self.margin < math.inf:
            raise ConfigError("gap margin must be nonnegative and finite")
        if not 0 < self.slope < math.inf:
            raise ConfigError("gap hinge slope must be positive and finite")

    @property
    def lipschitz(self) -> float:
        return self.slope * math.sqrt(2.0)

    def value(self, t):
        return self.slope * _relu(self.constraint(t))

    def constraint(self, t):
        """c(t) = |t1 - t2| - margin, one value per row."""
        t = _as1d(t)
        return np.abs(t[..., 0] - t[..., 1]) - self.margin

    def constraint_grad(self, t) -> np.ndarray:
        t = _as1d(t)
        sign = np.sign(t[..., 0] - t[..., 1])
        return np.stack([sign, -sign], axis=-1)

    def prox(self, lam: float, t) -> np.ndarray:
        t = _as1d(t)
        inv = 1.0 / math.sqrt(2.0)
        a = (t[..., 0] - t[..., 1]) * inv
        b = (t[..., 0] + t[..., 1]) * inv
        thr = self.margin * inv
        width = lam * self.slope * math.sqrt(2.0)
        s = np.abs(a)
        a_new = np.copysign(np.where(s <= thr + width, thr, s - width), a)
        p = np.empty_like(t)
        p[..., 0] = (a_new + b) * inv
        p[..., 1] = (b - a_new) * inv
        # the dead zone returns t itself: rotating there and back leaves
        # rounding residue in t - prox(t), an inactive constraint's multiplier
        return np.where((s <= thr)[..., None], t, p)


@dataclass(frozen=True)
class Identity:
    """f(z) = z; flows smooth scalar components through the same machinery."""

    dim: ClassVar[int] = 1
    monotone_nondecreasing: ClassVar[bool] = True
    weak_convexity: ClassVar[float] = 0.0
    lipschitz: ClassVar[float] = 1.0

    def value(self, t):
        return _as1d(t)[..., 0]

    def prox(self, lam: float, t) -> np.ndarray:
        return _as1d(t) - lam


def make_outer(kind: str, param: float | None = None):
    """Construct a catalog entry from its serialized (kind, param) form."""
    if kind == "scaled_hinge":
        return ScaledHinge(slope=float(param if param is not None else 1.0))
    if kind == "gap_hinge":
        return GapHinge(margin=float(param if param is not None else 0.0))
    if kind == "identity":
        if param is not None:
            raise ConfigError(f"outer_kind 'identity' takes no outer_param, got {param!r}")
        return Identity()
    raise ConfigError(f"unknown outer function kind {kind!r}")


def _check_smoothing(outer, lam: float) -> None:
    if lam <= 0:
        raise ConfigError(f"smoothing parameter must be positive, got {lam}")
    rho = float(outer.weak_convexity)
    if rho > 0 and lam >= 1.0 / rho:
        # reject rather than clamp: silently shrinking lam would invalidate
        # theory-driven configs
        raise ConfigError(
            f"smoothing parameter {lam} must be < 1/weak_convexity = {1.0 / rho}"
        )


def moreau_grad(outer, lam: float, t) -> np.ndarray:
    """Gradient of the envelope: (t - prox(lam, t)) / lam, a subgradient of f
    at the prox point, one per row of t; no row's norm exceeds
    outer.lipschitz."""
    _check_smoothing(outer, lam)
    return _envelope_grad(outer, lam, t)


def _envelope_grad(outer, lam: float, t) -> np.ndarray:
    """moreau_grad without its check on lam, for callers that made it."""
    return (t - outer.prox(lam, t)) / lam


def moreau_value(outer, lam: float, t):
    """Envelope value f(p) + ||t - p||^2/(2 lam) at p = prox(lam, t), one
    per row of t."""
    return _prox_and_envelope(outer, lam, t)[1]


def _prox_and_envelope(outer, lam: float, t):
    """p = prox(lam, t) and the envelope values at t, from one prox call."""
    _check_smoothing(outer, lam)
    t = _as1d(t)
    p = outer.prox(lam, t)
    return p, outer.value(p) + np.sum((t - p) ** 2, axis=-1) / (2.0 * lam)


def hinge_moreau_grad_closed_form(z: float, lam: float, slope: float) -> float:
    """min([z]_+, lam*slope)/lam: the hinge envelope gradient in closed form.

    Agrees with moreau_grad(ScaledHinge(slope), lam, z) up to the cancellation
    in its (z - prox(z))/lam; this is the multiplier formula of the penalty method.
    """
    if lam <= 0 or slope <= 0:
        raise ConfigError("lam and slope must be positive")
    return min(max(float(z), 0.0), lam * slope) / lam


def dual_tracker_update(
    outer, lam: float, u_prev: np.ndarray, g_tilde: np.ndarray, gamma_hat: float
) -> tuple[np.ndarray, np.ndarray]:
    """One dual step of the inner primal-dual loop, in tracker form.

    Instead of a Bregman prox against the conjugate of the smoothed outer
    function, track the inner value u <- (1-gamma_hat) u + gamma_hat g_tilde
    (g_tilde already carries the extrapolation) and read the dual variable off
    the envelope gradient y = moreau_grad(u).  Equivalent to the conjugate
    update for a convex outer function, and requires no conjugate calculus.

    Preconditions, proven once per inner run by ``alexr2.run_inner_alexr``
    (``check_assumptions`` and the smoothing check) and by
    ``Alexr2Config.validate`` rather than on every step: ``outer`` is convex,
    ``lam`` is a valid smoothing parameter for it, ``0 < gamma_hat <= 1`` and
    ``u_prev``, ``g_tilde`` are float arrays.  This function checks none of
    them: a ``lam`` of 0 gives inf/nan here, not a ConfigError
    (``moreau_grad`` is the checked form of ``y``).  The convergence analysis
    behind this step additionally assumes the implicit dual divergences stay
    bounded; that holds for every Lipschitz entry in this catalog and is
    treated as a documented assumption, never a runtime check.
    """
    u_new = (1.0 - gamma_hat) * u_prev + gamma_hat * g_tilde
    return u_new, _envelope_grad(outer, lam, u_new)

"""Outer-function catalog with closed-form proximal maps and Moreau calculus.

Every catalog entry provides f(t), prox_{lam*f}(t), its Lipschitz constant,
its weak-convexity modulus (0 for the convex members), and whether it is
monotone nondecreasing.  The Moreau envelope value/gradient are derived from
the prox:

    envelope(t)  = f(p) + ||t - p||^2 / (2 lam),   p = prox_{lam*f}(t)
    gradient(t)  = (t - p) / lam,  which is a subgradient of f at p.

For convex entries the envelope is a lower model with gap at most
lam * lipschitz^2 / 2, and the gradient is (1/lam)-Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, UnsupportedOperationError

__all__ = [
    "ScaledHinge",
    "CvarHinge",
    "GapHinge",
    "Identity",
    "make_outer",
    "outer_to_config",
    "moreau_grad",
    "moreau_value",
    "hinge_moreau_grad_closed_form",
    "dual_tracker_update",
]


def _as1d(t) -> np.ndarray:
    return np.atleast_1d(np.asarray(t, dtype=float))


def _hinge_prox_scalar(slope: float, lam: float, t: float) -> float:
    # argmin_v slope*[v]_+ + (v-t)^2/(2 lam): three regimes split at 0 and lam*slope.
    if t <= 0.0:
        return t
    if t <= lam * slope:
        return 0.0
    return t - lam * slope


@dataclass(frozen=True)
class ScaledHinge:
    """f(z) = slope * max(z, 0), the exact-penalty hinge (scalar input)."""

    slope: float
    dim: int = 1
    monotone_nondecreasing: bool = True
    weak_convexity: float = 0.0

    def __post_init__(self):
        if self.slope <= 0:
            raise ConfigError("hinge slope must be positive")

    @property
    def lipschitz(self) -> float:
        return self.slope

    def value(self, t) -> float:
        t = _as1d(t)
        return self.slope * max(float(t[0]), 0.0)

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        return self.slope * np.maximum(pts[:, 0], 0.0)

    def prox(self, lam: float, t) -> np.ndarray:
        t = _as1d(t)
        return np.array([_hinge_prox_scalar(self.slope, lam, float(t[0]))])


def CvarHinge(ratio: float) -> ScaledHinge:
    """f(z) = (1/ratio) * max(z, 0): the hinge appearing in level-(ratio) CVaR
    threshold objectives, built as ScaledHinge with slope 1/ratio."""
    if not 0 < ratio <= 1:
        raise ConfigError("CVaR ratio must lie in (0, 1]")
    return ScaledHinge(1.0 / ratio)


@dataclass(frozen=True)
class GapHinge:
    """f(z) = max(|z1 - z2| - margin, 0) over 2-vectors.

    prox splits after rotating to gap/sum coordinates a=(z1-z2)/sqrt2,
    b=(z1+z2)/sqrt2: b is untouched and the gap coordinate solves the prox of
    the shifted two-sided hinge sqrt2*[|a| - margin/sqrt2]_+, i.e. a dead zone
    up to margin/sqrt2, a clamp-to-threshold band of width lam*sqrt2, and a
    soft shift by lam*sqrt2 beyond it.
    """

    margin: float
    dim: int = 2
    monotone_nondecreasing: bool = False
    weak_convexity: float = 0.0

    def __post_init__(self):
        if self.margin < 0:
            raise ConfigError("gap margin must be nonnegative")

    @property
    def lipschitz(self) -> float:
        return math.sqrt(2.0)

    def value(self, t) -> float:
        t = _as1d(t)
        return max(abs(float(t[0]) - float(t[1])) - self.margin, 0.0)

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum(np.abs(pts[:, 0] - pts[:, 1]) - self.margin, 0.0)

    def prox(self, lam: float, t) -> np.ndarray:
        t = _as1d(t)
        inv = 1.0 / math.sqrt(2.0)
        a = (t[0] - t[1]) * inv
        b = (t[0] + t[1]) * inv
        thr = self.margin * inv
        width = lam * math.sqrt(2.0)
        s = abs(a)
        if s <= thr:
            a_new = a
        elif s <= thr + width:
            a_new = math.copysign(thr, a)
        else:
            a_new = math.copysign(s - width, a)
        return np.array([(a_new + b) * inv, (b - a_new) * inv])


@dataclass(frozen=True)
class Identity:
    """f(z) = z; flows smooth scalar components through the same machinery."""

    dim: int = 1
    monotone_nondecreasing: bool = True
    weak_convexity: float = 0.0
    lipschitz: float = 1.0

    def value(self, t) -> float:
        return float(_as1d(t)[0])

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        return pts[:, 0].astype(float)

    def prox(self, lam: float, t) -> np.ndarray:
        return _as1d(t) - lam


def make_outer(kind: str, param: float | None = None):
    """Construct a catalog entry from its serialized (kind, param) form."""
    if kind == "scaled_hinge":
        return ScaledHinge(slope=float(param if param is not None else 1.0))
    if kind == "cvar_hinge":
        return CvarHinge(ratio=float(param if param is not None else 0.15))
    if kind == "gap_hinge":
        return GapHinge(margin=float(param if param is not None else 0.0))
    if kind == "identity":
        return Identity()
    raise ConfigError(f"unknown outer function kind {kind!r}")


def outer_to_config(outer) -> tuple[str, float | None]:
    if isinstance(outer, ScaledHinge):
        return "scaled_hinge", outer.slope
    if isinstance(outer, GapHinge):
        return "gap_hinge", outer.margin
    if isinstance(outer, Identity):
        return "identity", None
    raise ConfigError(f"cannot serialize outer function {outer!r}")


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
    at the prox point; its norm never exceeds outer.lipschitz."""
    _check_smoothing(outer, lam)
    t = _as1d(t)
    return (t - outer.prox(lam, t)) / lam


def moreau_value(outer, lam: float, t) -> float:
    """Envelope value f(p) + ||t - p||^2/(2 lam) at p = prox(lam, t)."""
    return _prox_and_envelope(outer, lam, t)[1]


def _prox_and_envelope(outer, lam: float, t) -> tuple[np.ndarray, float]:
    """p = prox(lam, t) and the envelope value at t, from one prox call."""
    _check_smoothing(outer, lam)
    t = _as1d(t)
    p = outer.prox(lam, t)
    return p, float(outer.value(p) + np.sum((t - p) ** 2) / (2.0 * lam))


def hinge_moreau_grad_closed_form(z: float, lam: float, slope: float) -> float:
    """min([z]_+, lam*slope)/lam: the hinge envelope gradient in closed form.

    Must agree exactly with moreau_grad(ScaledHinge(slope), lam, z); this is
    the multiplier formula of the penalty method.
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
    update for convex outers, and requires no conjugate calculus.

    The convergence analysis behind this step additionally assumes the
    implicit dual divergences stay bounded; that holds for every Lipschitz
    entry in this catalog and is treated as a documented assumption, never a
    runtime check.
    """
    if outer.weak_convexity > 0:
        raise UnsupportedOperationError(
            "dual tracking requires a convex outer function"
        )
    if not 0.0 < gamma_hat <= 1.0:
        raise ConfigError(f"tracker mixing must lie in (0, 1], got {gamma_hat}")
    u_new = (1.0 - gamma_hat) * np.asarray(u_prev, float) + gamma_hat * np.asarray(
        g_tilde, float
    )
    y_new = moreau_grad(outer, lam, u_new)
    return u_new, y_new

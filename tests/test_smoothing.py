import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco import (
    ConfigError,
    CvarHinge,
    GapHinge,
    Identity,
    ScaledHinge,
    UnsupportedOperationError,
    dual_tracker_update,
    hinge_moreau_grad_closed_form,
    moreau_grad,
    moreau_value,
)
from fcco.alexr2 import Alexr2Config, check_assumptions
from fcco.metrics import brute_force_prox
from fcco.smoothing import make_outer
from fcco.sonex import SonexConfig
from util import scalar_chain_problem

CATALOG = [ScaledHinge(1.0), ScaledHinge(4.0), CvarHinge(0.25), GapHinge(0.3), Identity()]


@dataclass(frozen=True)
class ConcaveQuadratic:
    """Test-only weakly convex outer: f(z) = -rho/2 z^2."""

    rho: float
    dim: int = 1
    monotone_nondecreasing: bool = False

    @property
    def weak_convexity(self):
        return self.rho

    @property
    def lipschitz(self):
        return 10.0  # over the test range

    def value(self, t):
        return -0.5 * self.rho * float(np.atleast_1d(t)[0]) ** 2

    def prox(self, lam, t):
        return np.atleast_1d(t) / (1.0 - lam * self.rho)


def test_outer_constants_are_class_constants():
    for make in (
        lambda: ScaledHinge(1.0, weak_convexity=0.5),
        lambda: GapHinge(0.1, dim=3),
        lambda: GapHinge(0.1, lipschitz=2.0),
        lambda: Identity(lipschitz=2.0),
    ):
        with pytest.raises(TypeError):
            make()
    assert (ScaledHinge(2.0).dim, GapHinge(0.1).dim, Identity().dim) == (1, 2, 1)
    assert Identity().lipschitz == 1.0


def test_hinge_moreau_grad_examples():
    h = ScaledHinge(1.0)
    assert moreau_grad(h, 0.5, [-1.0])[0] == 0.0
    assert moreau_grad(h, 0.5, [0.2])[0] == pytest.approx(0.4)
    assert moreau_grad(h, 0.5, [2.0])[0] == pytest.approx(1.0)


def test_hinge_moreau_value_examples():
    h = ScaledHinge(1.0)
    assert moreau_value(h, 0.5, [-1.0]) == 0.0
    assert moreau_value(h, 0.5, [2.0]) == pytest.approx(1.75)


def test_moreau_value_small_lam_approaches_value():
    for outer in CATALOG:
        t = np.full(outer.dim, 0.7)
        lam = 1e-4
        assert abs(moreau_value(outer, lam, t) - outer.value(t)) <= lam * outer.lipschitz**2 / 2 + 1e-12


def test_hinge_closed_form_examples():
    assert hinge_moreau_grad_closed_form(-3.0, 0.1, 10.0) == 0.0
    assert hinge_moreau_grad_closed_form(0.5, 0.1, 10.0) == pytest.approx(5.0)
    assert hinge_moreau_grad_closed_form(5.0, 0.1, 10.0) == pytest.approx(10.0)


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-20, 20), lam=st.floats(1e-3, 1.0), slope=st.floats(0.1, 20.0))
def test_hinge_closed_form_matches_generic_path(z, lam, slope):
    # equality up to the cancellation in (t - (t - lam*slope))/lam
    generic = moreau_grad(ScaledHinge(slope), lam, [z])[0]
    assert hinge_moreau_grad_closed_form(z, lam, slope) == pytest.approx(generic, rel=1e-9, abs=1e-12)


def test_cvar_hinge_is_scaled_hinge():
    c, s = CvarHinge(0.2), ScaledHinge(5.0)
    for t in (-1.0, 0.05, 0.4, 3.0):
        assert c.value([t]) == pytest.approx(s.value([t]))
        np.testing.assert_allclose(c.prox(0.1, [t]), s.prox(0.1, [t]))
    assert c.lipschitz == pytest.approx(5.0)


def test_identity_prox_and_envelope():
    ident = Identity()
    np.testing.assert_allclose(ident.prox(0.3, [1.0]), [0.7])
    assert moreau_value(ident, 0.3, [1.0]) == pytest.approx(1.0 - 0.15)
    assert moreau_grad(ident, 0.3, [1.0])[0] == pytest.approx(1.0)


def test_gap_hinge_inactive_region_prox_is_identity():
    g = GapHinge(0.5)
    t = np.array([0.3, 0.1])  # |gap| = 0.2 < margin
    np.testing.assert_allclose(g.prox(0.2, t), t)
    assert g.value(t) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    t1=st.floats(-3, 3),
    t2=st.floats(-3, 3),
    lam=st.floats(1e-2, 1.0),
    margin=st.floats(0.0, 1.0),
)
def test_gap_hinge_prox_matches_grid_oracle(t1, t2, lam, margin):
    g = GapHinge(margin)
    t = np.array([t1, t2])
    np.testing.assert_allclose(g.prox(lam, t), brute_force_prox(g, lam, t, step=1e-5), atol=1e-5)


@settings(max_examples=150, deadline=None)
@given(
    idx=st.integers(0, len(CATALOG) - 1),
    lam=st.floats(1e-3, 1.0),
    coords=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
def test_sandwich_property(idx, lam, coords):
    outer = CATALOG[idx]
    t = np.array(coords[: outer.dim])
    env = moreau_value(outer, lam, t)
    val = outer.value(t)
    assert env <= val + 1e-12
    assert val <= env + lam * outer.lipschitz**2 / 2 + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    idx=st.integers(0, len(CATALOG) - 1),
    lam=st.floats(1e-3, 1.0),
    a=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    b=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
def test_moreau_grad_lipschitz_in_one_over_lam(idx, lam, a, b):
    outer = CATALOG[idx]
    ta, tb = np.array(a[: outer.dim]), np.array(b[: outer.dim])
    ga, gb = moreau_grad(outer, lam, ta), moreau_grad(outer, lam, tb)
    assert np.linalg.norm(ga - gb) <= np.linalg.norm(ta - tb) / lam + 1e-10


@settings(max_examples=150, deadline=None)
@given(
    idx=st.integers(0, len(CATALOG) - 1),
    lam=st.floats(1e-3, 1.0),
    coords=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    seed=st.integers(0, 1000),
)
def test_prox_minimizes_its_objective(idx, lam, coords, seed):
    outer = CATALOG[idx]
    t = np.array(coords[: outer.dim])
    p = outer.prox(lam, t)
    obj = outer.value(p) + np.sum((p - t) ** 2) / (2 * lam)
    gen = np.random.default_rng(seed)
    for _ in range(8):
        q = p + gen.normal(size=outer.dim) * gen.uniform(1e-4, 0.5)
        assert obj <= outer.value(q) + np.sum((q - t) ** 2) / (2 * lam) + 1e-10


def test_moreau_grad_bounded_by_lipschitz():
    gen = np.random.default_rng(0)
    for outer in CATALOG:
        for _ in range(50):
            t = gen.normal(size=outer.dim) * 5
            lam = gen.uniform(1e-3, 1.0)
            assert np.linalg.norm(moreau_grad(outer, lam, t)) <= outer.lipschitz + 1e-9


def test_weakly_convex_lam_gate():
    wc = ConcaveQuadratic(rho=2.0)
    moreau_grad(wc, 0.4, [1.0])  # lam < 1/rho is fine
    with pytest.raises(ConfigError):
        moreau_grad(wc, 0.5, [1.0])
    with pytest.raises(ConfigError):
        moreau_value(wc, 0.75, [1.0])


def test_dual_tracker_full_replacement():
    u, y = dual_tracker_update(ScaledHinge(1.0), 0.1, np.array([5.0]), np.array([2.0]), 1.0)
    assert u[0] == pytest.approx(2.0)


def test_dual_tracker_example():
    u, y = dual_tracker_update(ScaledHinge(10.0), 0.1, np.array([0.0]), np.array([2.0]), 0.5)
    assert u[0] == pytest.approx(1.0)
    assert y[0] == pytest.approx(10.0)  # capped at the slope
    assert y[0] == pytest.approx(hinge_moreau_grad_closed_form(1.0, 0.1, 10.0))


def test_dual_tracker_geometric_convergence():
    outer, lam, gh = ScaledHinge(1.0), 0.2, 0.3
    u = np.array([0.0])
    target = np.array([1.5])
    for k in range(1, 41):
        u, _ = dual_tracker_update(outer, lam, u, target, gh)
        assert abs(u[0] - 1.5) == pytest.approx(1.5 * (1 - gh) ** k, rel=1e-9)


def test_dual_tracker_rejects_nonconvex_outer():
    # the tracker step takes a convex outer as given: the double loop proves
    # it once per run, in check_assumptions, which its validate() calls
    prob = scalar_chain_problem(ConcaveQuadratic(0.5))
    with pytest.raises(UnsupportedOperationError):
        check_assumptions(prob)
    cfg = Alexr2Config(lam=0.1, nu=0.5, eta=0.05, theta=0.9, gamma=0.1, beta=0.5, alpha=0.1)
    with pytest.raises(UnsupportedOperationError):
        cfg.validate(prob)


def test_sonex_validate_applies_weakly_convex_lam_gate():
    prob = scalar_chain_problem(ConcaveQuadratic(2.0))
    SonexConfig(lam=0.4, eta=1e-3).validate(prob)
    with pytest.raises(ConfigError):
        SonexConfig(lam=0.5, eta=1e-3).validate(prob)


@pytest.mark.parametrize(
    "kind, param, expected",
    [
        ("scaled_hinge", 4.0, ScaledHinge(4.0)),
        ("scaled_hinge", None, ScaledHinge(1.0)),
        ("cvar_hinge", 0.25, ScaledHinge(4.0)),
        ("cvar_hinge", None, ScaledHinge(1.0 / 0.15)),
        ("gap_hinge", 0.3, GapHinge(0.3)),
        ("gap_hinge", None, GapHinge(0.0)),
        ("identity", None, Identity()),
    ],
)
def test_make_outer_table(kind, param, expected):
    assert make_outer(kind, param) == expected


# Plain-float per-point reference for the row-stack catalog: the hinge's three
# prox regimes and the gap hinge's rotated branches, one Python float at a time.
def _ref_value(outer, t):
    if isinstance(outer, ScaledHinge):
        return outer.slope * max(t[0], 0.0)
    if isinstance(outer, GapHinge):
        return max(abs(t[0] - t[1]) - outer.margin, 0.0)
    return t[0]


def _ref_prox(outer, lam, t):
    if isinstance(outer, ScaledHinge):
        if t[0] <= 0.0:
            return [t[0]]
        if t[0] <= lam * outer.slope:
            return [0.0]
        return [t[0] - lam * outer.slope]
    if isinstance(outer, GapHinge):
        inv = 1.0 / math.sqrt(2.0)
        a = (t[0] - t[1]) * inv
        b = (t[0] + t[1]) * inv
        thr = outer.margin * inv
        width = lam * math.sqrt(2.0)
        s = abs(a)
        if s <= thr:
            a_new = a
        elif s <= thr + width:
            a_new = math.copysign(thr, a)
        else:
            a_new = math.copysign(s - width, a)
        return [(a_new + b) * inv, (b - a_new) * inv]
    return [x - lam for x in t]


def _ref_moreau(outer, lam, t):
    p = _ref_prox(outer, lam, t)
    sq = 0.0
    for x, q in zip(t, p):
        sq += (x - q) * (x - q)
    return [(x - q) / lam for x, q in zip(t, p)], _ref_value(outer, p) + sq / (2.0 * lam)


def _kink_rows(outer, lam):
    """Points on and next to every regime boundary, plus signed zeros; some
    rotated gap rows land exactly on |a| = margin/sqrt2 and on
    margin/sqrt2 + lam*sqrt2."""
    if outer.dim == 1:
        kink = lam * outer.lipschitz
        xs = [0.0, -0.0, kink, np.nextafter(kink, 0.0), np.nextafter(kink, np.inf), -kink, 2.5, -1.0]
        return [[float(x)] for x in xs]
    inv = 1.0 / math.sqrt(2.0)
    thr = outer.margin * inv
    edges = [thr, thr + lam * math.sqrt(2.0)]
    gaps = [0.0, -0.0] + [s * x for x in edges for s in (1.0, -1.0)]
    gaps += [float(np.nextafter(g, d)) for g in gaps[2:] for d in (-np.inf, np.inf)]
    rows = [[(a + b) * inv, (b - a) * inv] for a in gaps for b in (0.0, -0.7, 1.3)]
    return rows + [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.4, 0.4]]


@pytest.mark.parametrize(
    "outer", CATALOG + [GapHinge(0.0)], ids=["hinge1", "hinge4", "cvar", "gap", "identity", "gap0"]
)
@pytest.mark.parametrize("lam", [1e-3, 0.25, 1.0])
def test_row_stack_matches_per_point_reference_bit_for_bit(outer, lam):
    rows = _kink_rows(outer, lam)
    stack = np.array(rows)
    ref_prox = np.array([_ref_prox(outer, lam, t) for t in rows])
    ref_value = np.array([_ref_value(outer, t) for t in rows])
    ref_grad = np.array([_ref_moreau(outer, lam, t)[0] for t in rows])
    ref_env = np.array([_ref_moreau(outer, lam, t)[1] for t in rows])
    assert np.asarray(outer.prox(lam, stack)).tobytes() == ref_prox.tobytes()
    assert np.asarray(outer.value(stack)).tobytes() == ref_value.tobytes()
    assert np.asarray(moreau_grad(outer, lam, stack)).tobytes() == ref_grad.tobytes()
    assert np.asarray(moreau_value(outer, lam, stack)).tobytes() == ref_env.tobytes()
    # a lone (d1,) point is the one-row case
    for k, t in enumerate(rows):
        assert np.asarray(outer.prox(lam, np.array(t))).tobytes() == ref_prox[k].tobytes()
        assert np.asarray(outer.value(np.array(t))).tobytes() == ref_value[k].tobytes()


def test_make_outer_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        make_outer("soft_hinge")


def test_gap_hinge_prox_at_region_boundaries():
    # points sitting exactly on the dead-zone and clamp-band boundaries
    margin, lam = 0.3, 0.2
    g = GapHinge(margin)
    width = lam * np.sqrt(2.0)
    inv = 1.0 / np.sqrt(2.0)
    for b in (0.0, -1.3, 2.1):
        for a in (margin * inv, -margin * inv, margin * inv + width, -(margin * inv + width), 0.0):
            t = np.array([(a + b) * inv, (b - a) * inv])
            closed = g.prox(lam, t)
            grid = brute_force_prox(g, lam, t, step=1e-5)
            np.testing.assert_allclose(closed, grid, atol=2e-5)


def test_hinge_prox_at_kink_points():
    h = ScaledHinge(3.0)
    for lam in (1e-3, 0.25, 1.0):
        for t in (0.0, lam * 3.0):
            np.testing.assert_allclose(
                h.prox(lam, [t]), brute_force_prox(h, lam, np.array([t]), step=1e-5), atol=1e-5
            )


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: ScaledHinge(0.0), "hinge slope must be positive and finite"),
        (lambda: ScaledHinge(math.inf), "hinge slope must be positive and finite"),
        (lambda: CvarHinge(0.0), "CVaR ratio must lie in (0, 1]"),
        (lambda: CvarHinge(1.5), "CVaR ratio must lie in (0, 1]"),
        (lambda: GapHinge(-0.1), "gap margin must be nonnegative and finite"),
        (lambda: GapHinge(math.inf), "gap margin must be nonnegative and finite"),
        (lambda: hinge_moreau_grad_closed_form(1.0, 0.0, 1.0), "lam and slope must be positive"),
        (lambda: hinge_moreau_grad_closed_form(1.0, 0.1, 0.0), "lam and slope must be positive"),
    ],
    ids=["slope_zero", "slope_inf", "ratio_zero", "ratio_above_one", "margin_negative", "margin_inf",
         "closed_form_lam", "closed_form_slope"],
)
def test_outer_functions_reject_bad_parameters(call, fragment):
    with pytest.raises(ConfigError) as info:
        call()
    assert info.type is ConfigError and fragment in str(info.value)

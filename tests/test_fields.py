"""Grid layout, difference operators, and the discrete integral identities."""

import numpy as np
import pytest

from reproflow.fields import (
    Grid,
    GridMismatchError,
    ScalarField,
    VectorField,
    advect,
    divergence,
    gradient,
    inner_h1,
    inner_l2,
    laplacian,
    norm_l2,
    rot,
    tangential_trace,
)


def test_grid_shapes():
    g = Grid("square", 16)
    assert g.h == pytest.approx(1.0 / 16)
    assert g.shape_u() == (17, 16)
    assert g.shape_v() == (16, 17)
    assert g.shape_center() == (16, 16)
    assert g.shape_node() == (17, 17)
    # the unit square is the only domain
    with pytest.raises(ValueError, match="unknown grid kind"):
        Grid("torus", 16)


def test_grid_equality_and_mismatch():
    a, b = Grid("square", 16), Grid("square", 16)
    assert a == b and hash(a) == hash(b)
    assert a != Grid("square", 32)
    u = VectorField.zeros(a)
    w = VectorField.zeros(Grid("square", 32))
    with pytest.raises(GridMismatchError):
        u + w


def _interior_psi(grid, rng):
    """Random nodal stream function that vanishes on the walls."""
    psi = np.zeros(grid.shape_node())
    psi[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.ny - 1))
    return ScalarField(grid, psi, loc="node")


@pytest.mark.parametrize("kind", ["square"])
def test_div_rot_is_exactly_zero(kind):
    grid = Grid(kind, 32)
    w = rot(_interior_psi(grid, np.random.default_rng(0)))
    dv = np.abs(divergence(w).values).max()
    print(f"{kind}: max |div rot psi| = {dv:.3e}")
    assert dv < 1e-11
    assert w.wall_normal_max() == 0.0


def test_div_grad_adjointness_square():
    # (grad p, w) = -(p, div w) exactly for w with zero wall-normal faces
    grid = Grid("square", 24)
    rng = np.random.default_rng(1)
    p = ScalarField(grid, rng.standard_normal(grid.shape_center()))
    w = VectorField(grid, rng.standard_normal(grid.shape_u()),
                    rng.standard_normal(grid.shape_v()))
    w.u[[0, -1], :] = 0.0
    w.v[:, [0, -1]] = 0.0
    lhs = inner_l2(gradient(p), w)
    rhs = -inner_l2(p, divergence(w))
    print(f"(grad p, w) = {lhs:.6e}, -(p, div w) = {rhs:.6e}")
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def _sin4(t, k):
    """k-th derivative of sin^4(pi t), k = 0..3."""
    s, c, pi = np.sin(np.pi * t), np.cos(np.pi * t), np.pi
    return (s**4, 4 * pi * s**3 * c, 4 * pi**2 * (3 * s**2 * c**2 - s**4),
            4 * pi**3 * (6 * s * c**3 - 10 * s**3 * c))[k]


def test_laplacian_and_advection_second_order():
    # w = rot(psi) for psi = sin^4(pi x) sin^4(pi y), sampled exactly at the
    # faces: u = S(x) S'(y), v = -S'(x) S(y); the derivatives are exact and
    # compared on interior faces, where both operators are defined
    print(f"\n{'nx':>6} {'lap err':>12} {'ratio':>7} {'adv err':>12} {'ratio':>7}")
    S = _sin4
    errs_l, errs_a = [], []
    for nx in (16, 32, 64, 128):
        grid = Grid("square", nx)
        (xu, yu), (xv, yv) = grid.uface_coords(), grid.vface_coords()
        w = VectorField(grid, S(xu, 0) * S(yu, 1), -S(xv, 1) * S(yv, 0))

        lap = laplacian(w, bc="noslip")
        el = max(np.abs(lap.u - S(xu, 2) * S(yu, 1) - S(xu, 0) * S(yu, 3))[1:-1].max(),
                 np.abs(lap.v + S(xv, 3) * S(yv, 0) + S(xv, 1) * S(yv, 2))[:, 1:-1].max())
        # (w.grad)w with u_x = S'S', u_y = S S'', v_x = -S''S, v_y = -S'S'
        adv = advect(w, w)
        v_at_u, u_at_v = -S(xu, 1) * S(yu, 0), S(xv, 0) * S(yv, 1)
        want_u = w.u * S(xu, 1) * S(yu, 1) + v_at_u * S(xu, 0) * S(yu, 2)
        want_v = -u_at_v * S(xv, 2) * S(yv, 0) - w.v * S(xv, 1) * S(yv, 1)
        ea = max(np.abs(adv.u - want_u)[1:-1].max(),
                 np.abs(adv.v - want_v)[:, 1:-1].max())
        rl = errs_l[-1] / el if errs_l else 0.0
        ra = errs_a[-1] / ea if errs_a else 0.0
        print(f"{nx:>6} {el:>12.3e} {rl:>7.2f} {ea:>12.3e} {ra:>7.2f}")
        errs_l.append(el)
        errs_a.append(ea)
    for errs in (errs_l, errs_a):
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(3.5 < r < 4.5 for r in ratios), ratios


def test_quadrature_exact_on_trig():
    # u = sin(a pi x) sin(b pi y) vanishes on the x-walls and is odd about
    # the y-walls, so the no-slip closure is exact for it and the midpoint
    # sums are exact: |u|^2 = 1/4, and the discrete H1 form carries the
    # difference symbols sigma_k = (2 sin(k pi h/2)/h)^2, not (k pi)^2
    grid = Grid("square", 64)
    h = grid.h
    (xu, yu), (xv, yv) = grid.uface_coords(), grid.vface_coords()
    w = VectorField(grid, np.sin(2 * np.pi * xu) * np.sin(3 * np.pi * yu),
                    np.zeros(grid.shape_v()))
    l2 = inner_l2(w, w)
    assert l2 == pytest.approx(0.25, rel=1e-14)
    sym = sum((2.0 * np.sin(k * np.pi * h / 2.0) / h) ** 2 for k in (2, 3))
    assert inner_h1(w, w) / l2 == pytest.approx(sym, rel=1e-12)


def _plain_form(nx, factor_u, factor_v):
    """((u.grad)v, v) / (|u| ||v|| |v|) for u, v = rot(sin^4 sin^4 * factor)."""
    grid = Grid("square", nx)
    x, y = grid.node_coords()
    bump = _sin4(x, 0) * _sin4(y, 0)
    u, v = (rot(ScalarField(grid, bump * f(x, y), loc="node")) for f in (factor_u, factor_v))
    return inner_l2(advect(u, v), v) / (norm_l2(u) * np.sqrt(inner_h1(v, v)) * norm_l2(v))


# (u, v) stream-function factors: u's is even about the mid-line of the
# axis named, v's odd about it; neither has a parity about the other axis
MIRROR_FACTORS = {
    "x": (lambda x, y: np.exp(y), lambda x, y: np.exp(-y) * np.sin(2 * np.pi * x)),
    "y": (lambda x, y: np.exp(x), lambda x, y: np.exp(-x) * np.sin(2 * np.pi * y)),
}


@pytest.mark.parametrize("axis", sorted(MIRROR_FACTORS))
def test_advection_form_vanishes_on_mirror_symmetric_fields(axis):
    # ((u.grad)v, v) = 0 holds exactly when u's stream function is even
    # about the mid-line of one axis and v's has one parity about it: the
    # mirror selection rule of B.  A centered stencil keeps the rule to
    # rounding; a one-sided interior stencil breaks it
    forms = [abs(_plain_form(nx, *MIRROR_FACTORS[axis])) for nx in (16, 32, 64, 128)]
    print(f"even in {axis}: relative |b(u, v, v)|", [f"{f:.2e}" for f in forms])
    assert max(forms) <= 1e-12


def test_advection_form_is_second_order_on_smooth_fields():
    # with no mirror parity the plain form is no discrete identity (2e-2
    # relative on white noise), but on smooth fields it is O(h^2) off the
    # continuous value 0; a first-order stencil halves it, not quarters
    forms = [abs(_plain_form(nx, lambda x, y: 1 + x + 2 * y, lambda x, y: np.exp(x * y) + x))
             for nx in (16, 32, 64, 128)]
    ratios = [a / b for a, b in zip(forms, forms[1:])]
    print("relative |b(u, v, v)|", [f"{f:.2e}" for f in forms],
          "ratios", [f"{r:.2f}" for r in ratios])
    assert all(3.5 < r < 4.5 for r in ratios)


def test_tangential_trace_reads_wall_rows():
    grid = Grid("square", 16)
    rng = np.random.default_rng(7)
    w = VectorField(grid, rng.standard_normal(grid.shape_u()),
                    rng.standard_normal(grid.shape_v()))
    tr = tangential_trace(w)
    assert set(tr) == {"bottom", "right", "top", "left"}
    for arr in tr.values():
        assert arr.shape == (grid.nx + 1,)
        assert np.all(np.isfinite(arr))


def test_field_algebra():
    grid = Grid("square", 8)
    rng = np.random.default_rng(5)
    a = VectorField(grid, rng.standard_normal(grid.shape_u()),
                    rng.standard_normal(grid.shape_v()))
    b = VectorField(grid, rng.standard_normal(grid.shape_u()),
                    rng.standard_normal(grid.shape_v()))
    c = (a + b) - b
    assert np.allclose(c.u, a.u) and np.allclose(c.v, a.v)
    d = a * 2.0 + (-a)
    assert np.allclose(d.u, a.u) and np.allclose(d.v, a.v)
    assert norm_l2(a - a) == 0.0

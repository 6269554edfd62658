"""Eigenbasis correctness: frozen eigenvalues, invariants, cache, determinism.

The square eigenvalues are pinned against a dense-matrix eigensolve of
the same discrete operator (tools/oracle_square_lambda1.py); the torus
eigenvalues are the exact integer symbols |k|^2 of the analytic modes.
"""

import os

import numpy as np
import pytest

from reproflow.fields import Grid, divergence, inner_l2
from reproflow.stokes import compute_eigenbasis, _cache_path

# dense-oracle values, shift-invert sparse and dense eigensolves agree
# to ~1e-9 at these sizes
SQUARE_LAM = {
    12: [51.07029336, 87.50160259, 87.50160259],
    16: [51.61780143],
    24: [52.01798474],
}


@pytest.mark.parametrize("nx", sorted(SQUARE_LAM))
def test_square_eigenvalues_match_dense_oracle(nx):
    want = SQUARE_LAM[nx]
    basis = compute_eigenbasis(Grid("square", nx), len(want))
    got = basis.eigenvalues
    print(f"nx={nx}: {[f'{v:.8f}' for v in got]}")
    assert got == pytest.approx(want, rel=1e-7)


def test_square_lambda1_increases_under_refinement():
    lams = [compute_eigenbasis(Grid("square", nx), 1).eigenvalues[0]
            for nx in (12, 16, 24)]
    assert lams[0] < lams[1] < lams[2]


def test_torus_eigenvalues_are_exact_shells():
    basis = compute_eigenbasis(Grid("torus", 32), 8)
    assert basis.eigenvalues == pytest.approx([1, 1, 1, 1, 2, 2, 2, 2], abs=1e-12)


def test_orthonormality_and_eigen_residuals(basis48, basis_t64):
    for label, basis, tol_res in (("square48/m32", basis48, 1e-8),
                                  ("torus64/m8", basis_t64, 1e-8)):
        orth = basis.orthonormality_error()
        res = float(basis.eigen_residuals().max())
        print(f"{label}: orthonormality {orth:.3e}, worst eigen residual {res:.3e}")
        assert orth <= 1e-10
        assert res <= tol_res


def test_modes_are_solenoidal_with_zero_normal_trace(basis48):
    worst_div = worst_tr = 0.0
    for j in range(len(basis48.eigenvalues)):
        w = basis48.mode(j)
        worst_div = max(worst_div, np.abs(divergence(w).values).max())
        worst_tr = max(worst_tr, w.wall_normal_max())
    print(f"worst mode divergence {worst_div:.3e}, normal trace {worst_tr:.3e}")
    assert worst_div <= 1e-10
    assert worst_tr <= 1e-12


def test_project_combine_round_trip(basis32):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(len(basis32.eigenvalues))
    w = basis32.combine(c)
    back = basis32.project(w)
    assert back == pytest.approx(c, abs=1e-12)


def test_truncate_keeps_leading_modes(basis48):
    small = basis48.truncate(8)
    assert small.eigenvalues == pytest.approx(basis48.eigenvalues[:8], abs=0)
    for j in (0, 7):
        a, b = small.mode(j), basis48.mode(j)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_deterministic_rebuild():
    grid = Grid("square", 16)
    a = compute_eigenbasis(grid, 6)
    b = compute_eigenbasis(grid, 6)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.ustack, b.ustack)
    assert np.array_equal(a.vstack, b.vstack)


def test_cache_round_trip_and_corruption(tmp_path):
    grid = Grid("square", 12)
    cache = str(tmp_path)
    a = compute_eigenbasis(grid, 3, cache_dir=cache)
    path = _cache_path(cache, grid, 3)
    assert os.path.exists(path)

    b = compute_eigenbasis(grid, 3, cache_dir=cache)
    assert np.array_equal(a.ustack, b.ustack)

    # corrupt the stored modes: the loader must notice and rebuild
    with np.load(path, allow_pickle=False) as d:
        payload = dict(d)
    payload["ustack"] = payload["ustack"] * 3.0
    np.savez(path, **payload)
    c = compute_eigenbasis(grid, 3, cache_dir=cache)
    assert c.orthonormality_error() <= 1e-10
    assert np.allclose(c.ustack, a.ustack)


def test_gram_is_identity(basis32):
    g = basis32.gram()
    assert np.abs(g - np.eye(len(basis32.eigenvalues))).max() <= 1e-10


def test_mode_l2_normalized(basis48):
    for j in (0, 13, 31):
        w = basis48.mode(j)
        assert inner_l2(w, w) == pytest.approx(1.0, abs=1e-12)

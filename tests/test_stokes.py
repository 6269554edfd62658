"""Eigenbasis correctness: frozen eigenvalues, invariants, cache, determinism.

The eigenvalues are pinned against a dense-matrix eigensolve of the same
discrete operator; their convergence to the clamped-plate value of
lambda_1 over nx = 24, 48, 96 is acceptance criterion 1.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from reproflow import stokes
from reproflow.fields import (
    Grid, VectorField, dirichlet_sine, divergence, inner_h1, inner_l2,
)
from reproflow.stokes import (
    EigensolverError, LerayProjector, _cache_path, _mirror_parities, compute_eigenbasis,
)

from .conftest import rotate_cached_modes

# dense-oracle values; the sector and dense eigensolves agree to ~1e-9
# at these sizes
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


def test_orthonormality_and_eigen_residuals(basis48):
    orth = basis48.orthonormality_error()
    res = float(basis48.eigen_residuals().max())
    print(f"square48/m32: orthonormality {orth:.3e}, worst eigen residual {res:.3e}")
    assert orth <= 1e-10
    assert res <= 1e-8


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


def _each_stack(fn):
    return lambda p: {k: fn(v) if k in ("eigenvalues", "ustack", "vstack") else v
                      for k, v in p.items()}


def _other_grid(payload):
    # nx = 16 modes, scaled to be orthonormal in the nx = 12 inner product
    other = compute_eigenbasis(Grid("square", 16), 3)
    return dict(payload, eigenvalues=other.eigenvalues, ustack=0.75 * other.ustack,
                vstack=0.75 * other.vstack)


# files that are not the basis their key names; all but the scaled modes
# are orthonormal with one mirror parity per mode and axis
PLANTED = {
    "modes_scaled": lambda p: dict(p, ustack=3.0 * p["ustack"]),
    "two_modes": _each_stack(lambda a: a[:2]),
    "other_grid": _other_grid,
    "descending": _each_stack(lambda a: a[::-1]),
    "eigenvalues_doubled": lambda p: dict(p, eigenvalues=2.0 * p["eigenvalues"]),
}


def test_cache_round_trip_and_corruption(tmp_path):
    grid = Grid("square", 12)
    cache = str(tmp_path)
    a = compute_eigenbasis(grid, 3, cache_dir=cache)
    path = _cache_path(cache, grid, 3)
    assert os.path.exists(path)

    b = compute_eigenbasis(grid, 3, cache_dir=cache)
    assert np.array_equal(a.ustack, b.ustack)
    assert (a.source, b.source) == ("built", "cache")

    # plant files that are not this key's basis: the loader must rebuild each
    with np.load(path, allow_pickle=False) as d:
        payload = dict(d)
    for name, plant in PLANTED.items():
        np.savez(path, **plant(payload))
        c = compute_eigenbasis(grid, 3, cache_dir=cache)
        assert c.source == "rebuilt" and c.rejected, name
        assert c.orthonormality_error() <= 1e-10, name
        assert np.array_equal(c.eigenvalues, a.eigenvalues), name
        assert np.array_equal(c.ustack, a.ustack), name
        assert np.array_equal(c.vstack, a.vstack), name

    # files numpy cannot read as the three arrays are rebuilt, and the
    # rebuild replaces them
    with open(path, "rb") as fh:
        archive = fh.read()
    no_eigenvalues = io.BytesIO()
    np.savez(no_eigenvalues, ustack=a.ustack, vstack=a.vstack)
    unreadable = {"not_an_archive": b"not an npz archive", "empty": b"",
                  "truncated": archive[:len(archive) // 2],
                  "no_eigenvalues": no_eigenvalues.getvalue()}
    for name, blob in unreadable.items():
        with open(path, "wb") as fh:
            fh.write(blob)
        c = compute_eigenbasis(grid, 3, cache_dir=cache)
        assert c.rejected == ["unreadable"], name
        assert np.array_equal(c.eigenvalues, a.eigenvalues), name
        assert np.array_equal(c.ustack, a.ustack) and np.array_equal(c.vstack, a.vstack), name
        with np.load(path, allow_pickle=False) as d:
            assert np.array_equal(d["ustack"], a.ustack), name


def test_a_fault_in_the_cache_gates_is_not_a_rebuild(tmp_path, monkeypatch):
    # only an unreadable file is rebuilt; an error while judging a readable
    # one is a fault of the code, and propagates
    grid, cache = Grid("square", 12), str(tmp_path)
    compute_eigenbasis(grid, 3, cache_dir=cache)

    def broken(self):
        raise TypeError("planted")

    monkeypatch.setattr(stokes.StokesBasis, "gates", broken)
    with pytest.raises(TypeError, match="planted"):
        compute_eigenbasis(grid, 3, cache_dir=cache)


def test_cache_rejects_rotated_modes(tmp_path):
    # modes 0 and 4 at 16/8 are both even-even: rotated by 0.05 rad with
    # their Rayleigh quotients as eigenvalues they pass every other gate
    grid, cache = Grid("square", 16), str(tmp_path)
    a = compute_eigenbasis(grid, 8, cache_dir=cache)
    path = _cache_path(cache, grid, 8)
    rotate_cached_modes(path, grid, 0, 4, 0.05)
    rotated, failed = stokes._read_cache(path, grid, 8)
    assert failed == ["eigen-residual"]
    assert max(rotated.eigen_residuals()) == pytest.approx(9.1e-2, rel=0.01)

    b = compute_eigenbasis(grid, 8, cache_dir=cache)
    assert (b.source, b.rejected) == ("rebuilt", ["eigen-residual"])
    assert np.array_equal(b.eigenvalues, a.eigenvalues)
    assert np.array_equal(b.ustack, a.ustack) and np.array_equal(b.vstack, a.vstack)


def test_gram_is_identity(basis32):
    g = basis32.gram()
    assert np.abs(g - np.eye(len(basis32.eigenvalues))).max() <= 1e-10


@pytest.mark.parametrize("kind", ["square"])
def test_projector_identities(kind):
    grid = Grid(kind, 24)
    proj = LerayProjector(grid)
    rng = np.random.default_rng(4)
    # every sample random, the wall-normal ones of the square included
    a, b = (VectorField(grid, rng.standard_normal(grid.shape_u()),
                        rng.standard_normal(grid.shape_v())) for _ in range(2))
    pa, pb = proj.project(a), proj.project(b)
    ppa = proj.project(pa)
    scale = np.abs(pa.u).max()
    assert max(np.abs(ppa.u - pa.u).max(), np.abs(ppa.v - pa.v).max()) <= 1e-12 * scale
    assert np.abs(divergence(pa).values).max() <= 1e-11 * scale / grid.h
    assert min(np.abs(a.u[[0, -1]]).min(), np.abs(a.v[:, [0, -1]]).min()) > 0
    assert pa.wall_normal_max() == 0.0
    lhs, rhs = inner_l2(pa, b), inner_l2(a, pb)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_h1_gram_of_square_basis_is_eigenvalues(basis48):
    modes = [basis48.mode(j) for j in range(basis48.m)]
    gram = np.array([[inner_h1(wi, wj) for wj in modes] for wi in modes])
    lam = basis48.eigenvalues
    assert np.abs(gram - np.diag(lam)).max() <= 1e-12 * lam[-1]


def test_mode_l2_normalized(basis48):
    for j in (0, 13, 31):
        w = basis48.mode(j)
        assert inner_l2(w, w) == pytest.approx(1.0, abs=1e-12)


def _square_pencil(grid):
    """Sparse (S, M) of the stream-function-reduced Stokes eigenproblem,
    assembled from rot and the no-slip Laplacian, as a reference."""
    n = grid.nx
    h = grid.h
    einj = sp.eye(n + 1, format="csr")[:, 1:-1]          # (n+1) x (n-1) injection
    d1 = sp.diags([-np.ones(n), np.ones(n)], [0, 1], shape=(n, n + 1)) / h

    # rot: u = D_y psi, v = -D_x psi  (x-major flattening: kron(x-op, y-op))
    ru = sp.kron(einj, d1 @ einj, format="csr")
    rv = -sp.kron(d1 @ einj, einj, format="csr")

    def d2_plain(sz):
        return sp.diags(
            [np.ones(sz - 1), -2.0 * np.ones(sz), np.ones(sz - 1)], [-1, 0, 1]
        ) / h**2

    def d2_mirror(sz):
        d = d2_plain(sz).tolil()
        d[0, 0] = -3.0 / h**2
        d[sz - 1, sz - 1] = -3.0 / h**2
        return d.tocsr()

    lu = sp.kron(d2_plain(n + 1), sp.eye(n)) + sp.kron(sp.eye(n + 1), d2_mirror(n))
    lv = sp.kron(d2_mirror(n), sp.eye(n + 1)) + sp.kron(sp.eye(n), d2_plain(n + 1))

    s = h**2 * (ru.T @ (-lu) @ ru + rv.T @ (-lv) @ rv)
    mm = h**2 * (ru.T @ ru + rv.T @ rv)
    s = 0.5 * (s + s.T)
    mm = 0.5 * (mm + mm.T)
    return s.tocsc(), mm.tocsc()


def _dense_eigenvalues(nx):
    s, mm = _square_pencil(Grid("square", nx))
    return scipy.linalg.eigh(s.toarray(), mm.toarray(), eigvals_only=True)


# nx = 4 has three interior lines, so its odd-odd sector has dimension 1
@pytest.mark.parametrize("nx", [4, 5, 8, 12])
def test_sector_solve_matches_dense_pencil(nx):
    dense = _dense_eigenvalues(nx)
    for m in range(1, (nx - 1) ** 2 // 4 + 1):
        got = compute_eigenbasis(Grid("square", nx), m).eigenvalues
        np.testing.assert_allclose(got, dense[:m], rtol=1e-10, err_msg=f"m = {m}")


@pytest.mark.parametrize("read", ["mirror", "ghost"])
def test_clamped_sector_matches_dense_solve(read):
    # data in both f and z; the ghost read makes the capacitance matrix
    # non-symmetric, so applying C^-T in place of C^-1 fails here
    n, h = 12, 1.0 / 12
    s, mu = dirichlet_sine(n, h)
    rows, cols = stokes.PARITY_INDICES["even"], stokes.PARITY_INDICES["odd"]
    lam = mu[rows, None] + mu[None, cols]
    r = s[0] if read == "mirror" else 7.0 * s[0] - 2.0 * s[1] + s[2] / 3.0
    ar, ac, rr, rc, shift = s[0, rows], s[0, cols], r[rows], r[cols], h**4 / 2.0
    nr, nc = lam.shape
    op = np.diag(lam.ravel() ** 2) + (np.kron(np.outer(ar, rr), np.eye(nc))
                                      + np.kron(np.eye(nr), np.outer(ac, rc))) / shift
    place = np.hstack([np.kron(ar[:, None], np.eye(nc)), np.kron(np.eye(nr), ac[:, None])])
    rng = np.random.default_rng(5)
    f, z = rng.standard_normal(lam.shape), rng.standard_normal(nr + nc) / h**3
    want = np.linalg.solve(op, f.ravel() + place @ z).reshape(lam.shape)
    got = stokes.clamped_sector(lam, ar, ac, rr, rc, shift)(f, z)
    err = np.abs(got - want).max() / np.abs(want).max()
    print(f"{read}: max|x - x_dense| / max|x_dense| = {err:.2e}")
    assert err <= 1e-12


@pytest.mark.parametrize("nx", [8, 12])
def test_sector_widening_finds_every_eigenvalue(nx, monkeypatch):
    # from one pair per sector, every m-th eigenvalue needs the widening loop
    solves = []
    lanczos = stokes._lanczos

    def counted(apply, shape, k):
        solves.append(k)
        return lanczos(apply, shape, k)

    monkeypatch.setattr(stokes, "_start_count", lambda m: 1)
    monkeypatch.setattr(stokes, "_lanczos", counted)
    m = (nx - 1) ** 2 // 4
    got = compute_eigenbasis(Grid("square", nx), m).eigenvalues
    np.testing.assert_allclose(got, _dense_eigenvalues(nx)[:m], rtol=1e-10)
    assert len(solves) > 3 and max(solves) > 1


def test_degenerate_pairs_are_transposed_even_odd_modes(basis48):
    pairs = [j for j, _ in basis48.degenerate_pairs()]
    assert len(pairs) == 8
    parity = _mirror_parities(basis48.ustack, basis48.vstack)
    u, v = basis48.ustack, basis48.vstack
    for j in pairs:
        assert parity[j].tolist() == [1, -1] and parity[j + 1].tolist() == [-1, 1]
        # psi(y, x) has u = -v(y, x) and v = -u(y, x); the sign rule picks the sign
        sign = np.sign(np.sum(u[j + 1] * v[j].T))
        assert np.abs(u[j + 1] - sign * v[j].T).max() <= 1e-12
        assert np.abs(v[j + 1] - sign * u[j].T).max() <= 1e-12


def test_basis_independent_of_start_vector(basis48, monkeypatch):
    default_rng = np.random.default_rng
    seeds = []

    def other_seed(seed):
        seeds.append(seed)
        return default_rng(5)

    monkeypatch.setattr(np.random, "default_rng", other_seed)
    other = compute_eigenbasis(Grid("square", 48), 32)
    assert len(seeds) >= 3  # every sector started from the patched generator
    assert np.abs(other.ustack - basis48.ustack).max() <= 1e-10
    assert np.abs(other.vstack - basis48.vstack).max() <= 1e-10


def test_lanczos_rejects_non_symmetric_operator():
    # a cyclic shift is not symmetric, so the Ritz pairs of the symmetric
    # eigh of its projection leave a residual of order one
    with pytest.raises(EigensolverError, match="FAIL  lanczos-residual"):
        stokes._lanczos(lambda y: np.roll(y, 1, axis=-1), (6, 6), 3)


def _stacked_mirror_parities(ustack, vstack):
    """`_mirror_parities` with (m, ...) temporaries, as a reference."""
    scale = np.maximum(np.abs(ustack).max(axis=(1, 2)), np.abs(vstack).max(axis=(1, 2)))
    out = np.zeros((len(ustack), 2), dtype=int)
    for axis, sign in ((0, 1), (1, -1)):
        fu, fv = np.flip(ustack, axis + 1), np.flip(vstack, axis + 1)
        for p in (1, -1):
            err = np.maximum(np.abs(fu - sign * p * ustack).max(axis=(1, 2)),
                             np.abs(fv + sign * p * vstack).max(axis=(1, 2)))
            out[err <= 1e-8 * scale, axis] = p
    return out


@pytest.mark.parametrize("nx, m", [(48, 32), (96, 64)])
def test_mirror_parities_match_stacked_reference(nx, m, cache_dir):
    basis = compute_eigenbasis(Grid("square", nx), m, cache_dir=cache_dir)
    got = _mirror_parities(basis.ustack, basis.vstack)
    assert got.all()
    np.testing.assert_array_equal(got, _stacked_mirror_parities(basis.ustack, basis.vstack))
    # a mode of neither parity is labelled 0 by both
    u, v = basis.ustack[:2].copy(), basis.vstack[:2].copy()
    u[0] += 0.5 * basis.ustack[1]
    v[0] += 0.5 * basis.vstack[1]
    mixed = _mirror_parities(u, v)
    assert 0 in mixed[0]
    np.testing.assert_array_equal(mixed, _stacked_mirror_parities(u, v))


def test_basis_independent_of_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(stokes.__file__)))
    code = ("import sys, numpy as np\n"
            "from reproflow.fields import Grid\n"
            "from reproflow.stokes import compute_eigenbasis\n"
            "b = compute_eigenbasis(Grid('square', 96), 64)\n"
            "np.savez(sys.argv[1], u=b.ustack, v=b.vstack)\n")
    stacks = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}.npz")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", code, out], env=env, check=True)
        with np.load(out) as d:
            stacks.append((d["u"], d["v"]))
    (u1, v1), (u2, v2) = stacks
    assert np.array_equal(u1, u2)
    assert np.array_equal(v1, v2)


def test_cache_rejects_rotated_degenerate_pair(tmp_path):
    grid = Grid("square", 12)
    cache = str(tmp_path)
    a = compute_eigenbasis(grid, 3, cache_dir=cache)
    assert a.eigenvalues[2] - a.eigenvalues[1] <= 1e-10 * a.eigenvalues[2]
    path = _cache_path(cache, grid, 3)

    # a 30 degree rotation inside the pair is still an orthonormal eigenbasis
    with np.load(path, allow_pickle=False) as d:
        payload = dict(d)
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    for key in ("ustack", "vstack"):
        w1, w2 = payload[key][1].copy(), payload[key][2].copy()
        payload[key][1], payload[key][2] = c * w1 - s * w2, s * w1 + c * w2
    rotated = stokes.StokesBasis(grid, payload["eigenvalues"], payload["ustack"],
                                 payload["vstack"])
    assert rotated.orthonormality_error() <= 1e-10
    np.savez(path, **payload)

    b = compute_eigenbasis(grid, 3, cache_dir=cache)
    assert np.array_equal(b.ustack, a.ustack)
    assert np.array_equal(b.vstack, a.vstack)

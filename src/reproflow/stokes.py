"""Leray projection and the Stokes eigenbasis on the unit square.

Everything is discrete.  The divergence-free, zero-trace space V_h is
exactly the range of rot over interior nodal stream functions, so the
Stokes eigenproblem A w = -P Lap w = lambda w reduces to the
generalized symmetric problem

    S y = lambda M y,   S = h^2 R^T (-L) R,   M = h^2 R^T R,

with R = rot on interior stream functions and L the no-slip vector
Laplacian.  Because A maps V_h into V_h and the reduction is a genuine
Galerkin identity (not an approximation), the eigenresiduals of the
reconstructed modes are solver rounding, orders below the contracted 1e-8.

The pencil commutes exactly with the x-mirror, the y-mirror and the x<->y
transpose of the interior stream-function grid, so it splits into four
mirror-parity sectors (Bossavit, Comput. Methods Appl. Mech. Engrg. 56,
1986).  Three are solved by shift-invert, each a quarter of the size (or
densely, when too small for ARPACK); the odd-even sector is the transpose
of the even-odd one, with bitwise the same eigenvalues.
Every double eigenvalue the x<->y symmetry forces is therefore a pair
(even-odd mode, its transpose) in that order, not a rotation chosen by
the eigensolver, and the basis does not depend on the BLAS thread count.

The pencil is the discrete clamped-plate buckling problem, whose smallest
eigenvalue on the unit square is 52.344691168 (Bjorstad & Tjostheim,
Computing 63, 1999); the discrete lambda_1 converges to it at O(h^2)
(tools/oracle_square_lambda1.py).

The Poisson solve behind the projector is an exact diagonalization of the
compact 5-point Neumann operator by orthonormal DCT-II matrices, so
projector idempotence and div(Pu) = 0 hold to rounding.

scipy is imported only inside the eigenbasis build (`_square_pencil`,
`_parity_maps`, `_square_eigenbasis`), so a run whose basis comes from the
cache loads no scipy module.
"""

import functools
import os

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    divergence,
    gradient,
    inner_l2,
    laplacian,
    rot,
)

CACHE_VERSION = 2


class EigensolverError(Exception):
    """Eigensolver failed to converge; carries residual diagnostics."""


class LerayProjector:
    """Orthogonal projection onto discretely divergence-free fields.

    The pressure potential solves the compact Neumann 5-point Poisson
    problem; the solve is exact in the discrete sense, so P*P = P and
    div(P u) = 0 to machine rounding, and P is self-adjoint for the
    all-faces h^2 inner product.
    """

    def __init__(self, grid):
        self.grid = grid
        k = np.arange(grid.nx)
        theta = np.pi * k / (2.0 * grid.nx)
        lam1d = -(4.0 / grid.h**2) * np.sin(theta) ** 2
        self._eigs = lam1d[:, None] + lam1d[None, :]
        self._eigs[0, 0] = 1.0  # pinned mean slot, see solve_poisson
        # orthonormal DCT-II: row k samples cos(k pi x) at the cell centers
        self._dct = np.sqrt(2.0 / grid.nx) * np.cos(np.outer(theta, 2 * k + 1))
        self._dct[0] /= np.sqrt(2.0)

    def solve_poisson(self, rhs):
        """phi with Lap_h phi = rhs (centers), mean(phi) = 0.

        The rhs is projected onto mean zero first (the compatible subspace);
        for divergence data of flux-free fields that projection is a no-op
        up to rounding.
        """
        vals = rhs.values if isinstance(rhs, ScalarField) else np.asarray(rhs)
        coef = self._dct @ vals @ self._dct.T
        coef[0, 0] = 0.0
        coef /= self._eigs
        return ScalarField(self.grid, self._dct.T @ coef @ self._dct, loc="center")

    def project(self, w):
        """w - grad(phi) with Lap_h phi = div w; w's wall-normal faces are
        zeroed first."""
        w = w.copy()
        w.u[0, :] = w.u[-1, :] = 0.0
        w.v[:, 0] = w.v[:, -1] = 0.0
        return w - gradient(self.solve_poisson(divergence(w)))


def apply_stokes(w, projector=None):
    """A w = -P Lap w: the discrete no-slip Laplacian followed by the
    discrete Leray projection."""
    if projector is None:
        projector = LerayProjector(w.grid)
    return -1.0 * projector.project(laplacian(w, bc="noslip"))


class StokesBasis:
    """First m eigenpairs (w_j, lambda_j), L2-orthonormal, ascending."""

    def __init__(self, grid, eigenvalues, ustack, vstack):
        self.grid = grid
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.ustack = np.asarray(ustack, dtype=float)
        self.vstack = np.asarray(vstack, dtype=float)
        self.m = len(self.eigenvalues)

    def mode(self, j):
        return VectorField(self.grid, self.ustack[j], self.vstack[j])

    @functools.cached_property
    def parities(self):
        """(m, 2) mirror parities of the modes' stream functions, computed
        once per basis: see `_mirror_parities`."""
        return _mirror_parities(self.ustack, self.vstack)

    def project(self, w):
        """Coefficients c_j = (w, w_j) of the L2 projection onto the span."""
        h2 = self.grid.h**2
        return h2 * (
            np.einsum("mij,ij->m", self.ustack, w.u)
            + np.einsum("mij,ij->m", self.vstack, w.v)
        )

    def combine(self, c):
        """The field sum_j c_j w_j."""
        c = np.asarray(c, dtype=float)
        u = np.einsum("m,mij->ij", c, self.ustack)
        v = np.einsum("m,mij->ij", c, self.vstack)
        return VectorField(self.grid, u, v)

    def truncate(self, m):
        if m > self.m:
            raise ValueError(f"cannot truncate basis of size {self.m} to {m}")
        return StokesBasis(
            self.grid, self.eigenvalues[:m], self.ustack[:m], self.vstack[:m]
        )

    def gram(self):
        h2 = self.grid.h**2
        return h2 * (
            np.einsum("mij,nij->mn", self.ustack, self.ustack)
            + np.einsum("mij,nij->mn", self.vstack, self.vstack)
        )

    def orthonormality_error(self):
        return float(np.abs(self.gram() - np.eye(self.m)).max())

    def eigen_residuals(self):
        """||A w_j - lambda_j w_j|| / lambda_j for every mode."""
        projector = LerayProjector(self.grid)
        out = np.empty(self.m)
        for j in range(self.m):
            w = self.mode(j)
            aw = apply_stokes(w, projector)
            r = aw - self.eigenvalues[j] * w
            out[j] = np.sqrt(max(inner_l2(r, r), 0.0)) / self.eigenvalues[j]
        return out


def _fix_signs(ustack, vstack):
    """Deterministic sign: first non-negligible sample of each mode positive."""
    m = ustack.shape[0]
    for j in range(m):
        flat = np.concatenate([ustack[j].ravel(), vstack[j].ravel()])
        scale = np.abs(flat).max()
        nz = np.nonzero(np.abs(flat) > 1e-8 * scale)[0]
        if len(nz) and flat[nz[0]] < 0:
            ustack[j] = -ustack[j]
            vstack[j] = -vstack[j]
    return ustack, vstack


# ---------------------------------------------------------------------------
# sparse generalized eigenproblem
# ---------------------------------------------------------------------------


def _square_pencil(grid):
    """Sparse (S, M) of the stream-function-reduced Stokes eigenproblem."""
    import scipy.sparse as sp

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


def check_mode_count(n, m):
    """Raise ValueError when a grid of nx = n cannot resolve m modes.

    The cap is 25% of the (n-1)^2 interior stream-function nodes.
    """
    dim = (n - 1) ** 2
    if m > dim // 4:
        raise ValueError(f"m = {m} exceeds the spectral-accuracy cap {dim // 4} "
                         f"(25% of {dim}) of the square at nx = {n}")


def _start_count(m):
    """Pairs first asked of each parity sector: a quarter of m and a margin."""
    return -(-m // 4) + 4


def _parity_maps(size):
    """Even and odd mirror-parity maps of a line of `size` nodes.

    Column k is node k plus (even) or minus (odd) its mirror node size-1-k.
    The entries are exact, so Q^T S Q only sums pencil entries: the
    rounded 2^-1/2 of orthonormal maps would perturb each one, which the
    pencil amplifies to eigenvalue errors near 7e-11 at nx = 96.
    """
    import scipy.sparse as sp

    eye = sp.eye(size, format="csc")
    return {"even": (eye + eye[::-1])[:, :(size + 1) // 2],
            "odd": (eye - eye[::-1])[:, :size // 2]}


# the solved sectors, as (x, y) parities of the stream function; odd-even
# is the transpose of even-odd
SECTORS = (("even", "even"), ("odd", "odd"), ("even", "odd"))


def _square_eigenbasis(grid, m):
    import scipy.linalg
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = grid.nx
    s, mm = _square_pencil(grid)
    maps = _parity_maps(n - 1)
    sectors = []
    for px, py in SECTORS:
        q = sp.kron(maps[px], maps[py], format="csc")
        sectors.append((q, (q.T @ s @ q).tocsc(), (q.T @ mm @ q).tocsc()))

    counts = [_start_count(m)] * len(sectors)
    solved = [None] * len(sectors)
    todo = range(len(sectors))
    while todo:
        for i in todo:
            q, ss, ms = sectors[i]
            dim = q.shape[1]
            if counts[i] >= dim - 1:  # too small for ARPACK: every pair, dense
                vals, vecs = scipy.linalg.eigh(ss.toarray(), ms.toarray())
            else:
                try:
                    vals, vecs = spla.eigsh(ss, k=counts[i], M=ms, sigma=0.0,
                                            which="LM", v0=np.full(dim, dim**-0.5))
                except spla.ArpackNoConvergence as err:  # pragma: no cover
                    raise EigensolverError(
                        f"eigensolver stalled at nx={n}, m={m}: "
                        f"{len(err.eigenvalues)} of {counts[i]} pairs converged "
                        f"in the {'-'.join(SECTORS[i])} sector"
                    ) from err
            order = np.argsort(vals)
            solved[i] = (vals[order], q @ vecs[:, order])
        # a sector that stops at or below the m-th value may hide one under it
        lam = np.sort(np.concatenate([solved[i][0] for i in (0, 1, 2, 2)]))
        lam_m = lam[m - 1] if len(lam) >= m else np.inf
        todo = [i for i, (vals, _) in enumerate(solved)
                if len(vals) < sectors[i][0].shape[1] and vals[-1] <= lam_m]
        for i in todo:
            counts[i] *= 2

    (lee, yee), (loo, yoo), (leo, yeo) = solved
    yoe = yeo.reshape(n - 1, n - 1, -1).transpose(1, 0, 2).reshape(yeo.shape)
    vals = np.concatenate([lee, loo, leo, leo])
    order = np.argsort(vals, kind="stable")[:m]
    vals = vals[order]
    vecs = np.hstack([yee, yoo, yeo, yoe])[:, order]

    ustack = np.empty((m,) + grid.shape_u())
    vstack = np.empty((m,) + grid.shape_v())
    psi_full = np.zeros(grid.shape_node())
    for j in range(m):
        psi_full[1:-1, 1:-1] = vecs[:, j].reshape(n - 1, n - 1)
        w = rot(ScalarField(grid, psi_full, loc="node"))
        ustack[j] = w.u
        vstack[j] = w.v
    # the sector solves return M-orthonormal vectors; rescale exactly to unit L2
    h2 = grid.h**2
    nrm = np.sqrt(
        h2 * (np.einsum("mij,mij->m", ustack, ustack)
              + np.einsum("mij,mij->m", vstack, vstack))
    )
    ustack /= nrm[:, None, None]
    vstack /= nrm[:, None, None]
    return vals, ustack, vstack


def _mirror_parities(ustack, vstack):
    """(x, y) mirror parity of each mode's stream function: 1, -1, or 0 for neither.

    A stream function even in x gives u even and v odd under the x-mirror;
    one even in y gives u odd and v even under the y-mirror.
    """
    out = np.zeros((len(ustack), 2), dtype=int)
    for j, (u, v) in enumerate(zip(ustack, vstack)):
        scale = max(np.abs(u).max(), np.abs(v).max())
        for axis, sign in ((0, 1), (1, -1)):
            fu, fv = np.flip(u, axis), np.flip(v, axis)
            for p in (1, -1):
                err = max(np.abs(fu - sign * p * u).max(), np.abs(fv + sign * p * v).max())
                if err <= 1e-8 * scale:
                    out[j, axis] = p
    return out


# ---------------------------------------------------------------------------
# public entry + cache
# ---------------------------------------------------------------------------


def _cache_path(cache_dir, grid, m):
    name = f"basis_{grid.kind}_nx{grid.nx}_m{m}_v{CACHE_VERSION}.npz"
    return os.path.join(cache_dir, name)


def compute_eigenbasis(grid, m, cache_dir=None):
    """The m smallest Stokes eigenpairs on the grid, L2-orthonormal.

    Deterministic.  Each parity sector (module docstring)
    is solved from a fixed start vector, first for ceil(m/4) + 4 pairs; a
    sector whose largest computed eigenvalue is at or below the merged
    m-th, with pairs left, is solved again for twice as many.  The merge
    is a stable ascending sort in the order ee, oo, eo, oe.  Sign rule:
    first non-negligible sample positive.  With cache_dir set, results
    are stored keyed by (kind, nx, m); the loader re-verifies
    orthonormality and one mirror parity per mode and axis, and silently
    rebuilds a file that fails.
    """
    if m < 1:
        raise ValueError("need at least one mode")
    check_mode_count(grid.nx, m)
    path = _cache_path(cache_dir, grid, m) if cache_dir else None
    if path and os.path.exists(path):
        try:
            with np.load(path, allow_pickle=False) as d:
                basis = StokesBasis(grid, d["eigenvalues"], d["ustack"], d["vstack"])
            if (basis.parities.all()
                    and basis.orthonormality_error() <= 1e-10):
                return basis
        except Exception:
            pass  # fall through to rebuild

    vals, ustack, vstack = _square_eigenbasis(grid, m)
    ustack, vstack = _fix_signs(ustack, vstack)
    basis = StokesBasis(grid, vals, ustack, vstack)

    err = basis.orthonormality_error()
    if err > 1e-10:
        raise EigensolverError(f"orthonormality off by {err:.3e} after build")
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".tmp.npz"
        np.savez(
            tmp,
            eigenvalues=basis.eigenvalues,
            ustack=basis.ustack,
            vstack=basis.vstack,
            kind=grid.kind,
            nx=grid.nx,
            m=m,
            cache_version=CACHE_VERSION,
        )
        os.replace(tmp, path)
    return basis

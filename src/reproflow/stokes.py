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

It is the discrete clamped-plate buckling problem, exactly
M = -h^2 L_D and S = h^2 (L_D^2 + W), with L_D the Dirichlet 5-point
Laplacian of the interior nodes and W = (2/h^4) sum_walls P_w^T P_w, P_w
the restriction to the node line next to wall w.  Its smallest eigenvalue
on the unit square is 52.344691168 (Bjorstad & Tjostheim, Computing 63,
1999); the discrete lambda_1 converges to it at O(h^2)
(acceptance criterion 1).

The pencil is solved in the sine basis y^ = S y S (`fields.dirichlet_sine`),
where L_D is the diagonal Lambda[k, l] = mu_k + mu_l and the last line's
sine row is (-1)^k times the first one's, a.  The mirrors and the x<->y
transpose thus split it into four sectors of index parities (Bossavit,
Comput. Methods Appl. Mech. Engrg. 56, 1986): row indices k all even or all
odd, column indices l likewise, 0-based even k being an even node parity.
In a sector W is (4/h^4)(a_r a_r^T (x) I + I (x) a_c a_c^T), of rank
rows + cols, and with d = -Lambda > 0 the problem is
(d^2 + W) y^ = lambda d y^.  Lanczos with full reorthogonalization
(Parlett, The Symmetric Eigenvalue Problem, 1980) finds the largest
eigenvalues 1/lambda of d^1/2 (d^2 + W)^-1 d^1/2 from a seeded random
start: the ee and oo operators commute with the transpose, so a
transpose-symmetric start would miss half their modes.  The inverse is
one Woodbury solve (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
1971), `clamped_sector`, which with the ghost read of the wall rows also
solves the lift's stream function.  The odd-even sector is the transpose
of the even-odd one, so every double eigenvalue the x<->y symmetry forces
is a pair (even-odd mode, its transpose) in that order, not a rotation
chosen by the eigensolver, whatever the BLAS thread count.

The Poisson solve behind the projector is an exact diagonalization of the
compact 5-point Neumann operator by orthonormal DCT-II matrices, so
projector idempotence and div(Pu) = 0 hold to rounding.
"""

import functools
import os
import zipfile

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    dirichlet_sine,
    divergence,
    gradient,
    inner_l2,
    laplacian,
    rot,
)
from .gates import Gate

CACHE_VERSION = 4
ORTHONORMALITY_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-8
RAYLEIGH_TOL = 1e-10  # |(A w_j, w_j) - lambda_j| / lambda_j
LANCZOS_TOL = 1e-13  # Ritz residual relative to the largest Ritz value
DEGENERATE_RTOL = 1e-10  # relative gap below which two eigenvalues are one pair


class EigensolverError(Exception):
    """A basis that failed its gates, or a stalled Lanczos; carries the failed gates."""

    def __init__(self, *gates):
        super().__init__("; ".join(g.line() for g in gates))
        self.gates = gates


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
    """First m eigenpairs (w_j, lambda_j), L2-orthonormal, ascending.

    `source` says where `compute_eigenbasis` got it: "built", "cache", or
    "rebuilt" after refusing the cached file for the reasons in `rejected`.
    """

    source, rejected = "built", ()

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
        u = self.ustack.reshape(self.m, -1)
        v = self.vstack.reshape(self.m, -1)
        return self.grid.h**2 * (u @ u.T + v @ v.T)

    def orthonormality_error(self):
        return float(np.abs(self.gram() - np.eye(self.m)).max())

    @functools.cached_property
    def _stokes_pass(self):
        """(A w_j, w_j) and the eigen-residual of every mode, from one apply_stokes each."""
        projector = LerayProjector(self.grid)
        out = np.empty((2, self.m))
        for j in range(self.m):
            w = self.mode(j)
            aw = apply_stokes(w, projector)
            r = aw - self.eigenvalues[j] * w
            out[:, j] = inner_l2(aw, w), np.sqrt(max(inner_l2(r, r), 0.0)) / self.eigenvalues[j]
        return out

    def eigen_residuals(self):
        """||A w_j - lambda_j w_j|| / lambda_j for every mode."""
        return self._stokes_pass[1].copy()

    def gates(self):
        """The one rule for a usable basis; compute_eigenbasis says how it is applied."""
        lam, (rayleigh, resid) = self.eigenvalues, self._stokes_pass
        return [Gate("ascending", float(np.max(lam[:-1] - lam[1:], initial=0.0)), 0.0),
                Gate("orthonormality", self.orthonormality_error(), ORTHONORMALITY_TOL),
                Gate("eigen-residual", float(resid.max()), EIGEN_RESIDUAL_TOL),
                Gate("rayleigh", float(np.max(np.abs(rayleigh - lam) / lam)), RAYLEIGH_TOL),
                Gate("mirror-parity", int((self.parities == 0).any(axis=1).sum()), 0)]

    def degenerate_pairs(self):
        """[j, j + 1] of each eigenvalue pair within DEGENERATE_RTOL; in the
        square's basis an even-odd mode, then its transpose."""
        lam = self.eigenvalues
        return [[j, j + 1] for j in range(self.m - 1)
                if abs(lam[j + 1] - lam[j]) <= DEGENERATE_RTOL * abs(lam[j + 1])]


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
# the clamped-plate pencil in the sine basis
# ---------------------------------------------------------------------------


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


# the solved sectors, as (x, y) parities of the stream function; odd-even
# is the transpose of even-odd
SECTORS = (("even", "even"), ("odd", "odd"), ("even", "odd"))
PARITY_INDICES = {"even": slice(0, None, 2), "odd": slice(1, None, 2)}


def clamped_sector(lam, ar, ac, rr, rc, shift):
    """(f, z) -> (lam^2 + (a_r r_r^T (x) I + I (x) a_c r_c^T) / shift)^-1 (f + U z)
    on one sector's sine coefficients (..., rows, cols).

    a places on the node line next to a wall and r reads the wall row, in
    the sine basis across the wall: the pencil's W is r = a, shift h^4/4;
    the lift reads the ghost, r = 7 s_0 - 2 s_1 + s_2 / 3, shift h^4/2.
    Wall data z = (z_r, z_c) enter placed by U = (a_r (x) I, I (x) a_c),
    since inside f they would lose a factor 1/h to cancellation.  By
    Woodbury, with R like U of r and G = lam^-2, the solve is
    G f - G U C^-1 (R^T G f - shift z), C = shift I + R^T G U, whose blocks
    are diagonal or G scaled by row and column; C is symmetric only when
    r = a, so row vectors are multiplied by inv(C^T).
    """
    g = lam**-2
    cap = np.block([[np.diag((rr * ar) @ g), (rr[:, None] * g * ac).T],
                    [ar[:, None] * g * rc, np.diag(g @ (rc * ac))]])
    cap[np.diag_indices_from(cap)] += shift
    cap_inv_t = np.linalg.inv(cap.T)

    def solve(f, z=0.0):
        x = g * f
        pq = (np.concatenate([rr @ x, x @ rc], axis=-1) - shift * z) @ cap_inv_t
        p, q = pq[..., :len(ac)], pq[..., len(ac):]
        x -= g * (ar[:, None] * p[..., None, :] + q[..., :, None] * ac)
        return x

    return solve


def _lanczos(apply, shape, k):
    """The k largest eigenpairs (theta, z) of the symmetric operator `apply`
    on arrays of `shape`: theta descending, z the (k, dim) Ritz vectors.

    Two Gram-Schmidt passes against every earlier vector keep A Q = Q H + w e^T
    with H upper Hessenberg, so |(H s - theta s, |w| s_n)| is the exact residual
    of a Ritz pair of eigh(H, UPLO="U"), and large if A is not symmetric.  A
    Krylov space that fills the sector gives w = 0: small sectors are exact.
    """
    dim = shape[0] * shape[1]
    k, size = min(k, dim), min(dim, 8 * k + 32)
    q, hmat = np.zeros((size, dim)), np.zeros((size + 1, size))
    w = np.random.default_rng(0).standard_normal(dim)
    for n in range(1, size + 1):
        q[n - 1] = w / np.linalg.norm(w)
        w = apply(q[n - 1].reshape(shape)).ravel()
        hmat[:n, n - 1] = q[:n] @ w
        w -= hmat[:n, n - 1] @ q[:n]
        w -= (q[:n] @ w) @ q[:n]
        hmat[n, n - 1] = np.linalg.norm(w)
        if n >= k and (n % 8 == 0 or n == size):
            theta, s = np.linalg.eigh(hmat[:n, :n], UPLO="U")
            theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
            r = hmat[:n + 1, :n] @ s
            r[:n] -= theta * s
            gate = Gate("lanczos-residual", np.linalg.norm(r, axis=0).max() / abs(theta[0]),
                        LANCZOS_TOL)
            if gate.passed:
                return theta, np.einsum("nj,nd->jd", s, q[:n])
    raise EigensolverError(gate)


def _square_eigenbasis(grid, m):
    n = grid.nx
    s, mu = dirichlet_sine(n, grid.h)
    sectors = []
    for px, py in SECTORS:
        rows, cols = PARITY_INDICES[px], PARITY_INDICES[py]
        lam = mu[rows, None] + mu[None, cols]
        root, a = np.sqrt(-lam), (s[0, rows], s[0, cols])
        solve = clamped_sector(lam, *a, *a, grid.h**4 / 4.0)
        sectors.append((rows, cols, lam.shape, lambda y, f=solve, r=root: r * f(r * y), root))

    counts = [_start_count(m)] * len(sectors)
    solved = [None] * len(sectors)
    todo = range(len(sectors))
    while todo:
        for i in todo:
            _, _, shape, apply, root = sectors[i]
            theta, z = _lanczos(apply, shape, counts[i])
            solved[i] = (1.0 / theta, z.reshape((-1,) + shape) / root)
        # a sector that stops at or below the m-th value may hide one under it
        lam = np.sort(np.concatenate([solved[i][0] for i in (0, 1, 2, 2)]))
        lam_m = lam[m - 1] if len(lam) >= m else np.inf
        todo = [i for i, (vals, _) in enumerate(solved)
                if len(vals) < np.prod(sectors[i][2]) and vals[-1] <= lam_m]
        for i in todo:
            counts[i] *= 2

    # merge in the order ee, oo, eo, oe; an odd-even mode's coefficients are
    # the transpose of its even-odd partner's
    sources = [(sectors[i][:2], y) for i in (0, 1, 2) for y in solved[i][1]]
    sources += [(sectors[2][1::-1], y.T) for y in solved[2][1]]
    vals = np.concatenate([solved[i][0] for i in (0, 1, 2, 2)])
    order = np.argsort(vals, kind="stable")[:m]
    yhat = np.zeros((m, n - 1, n - 1))
    for j, k in enumerate(order):
        (rows, cols), y = sources[k]
        yhat[j, rows, cols] = y
    psi = s @ yhat @ s

    ustack = np.empty((m,) + grid.shape_u())
    vstack = np.empty((m,) + grid.shape_v())
    psi_full = np.zeros(grid.shape_node())
    for j in range(m):
        psi_full[1:-1, 1:-1] = psi[j]
        w = rot(ScalarField(grid, psi_full, loc="node"))
        ustack[j], vstack[j] = w.u, w.v
    # the sector solves return M-orthonormal vectors; rescale exactly to unit L2
    nrm = np.sqrt(grid.h**2 * (np.einsum("mij,mij->m", ustack, ustack)
                               + np.einsum("mij,mij->m", vstack, vstack)))
    ustack /= nrm[:, None, None]
    vstack /= nrm[:, None, None]
    return vals[order], ustack, vstack


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


def _read_cache(path, grid, m):
    """(basis, names of its failed gates), or (None, ["unreadable"] or ["shapes"])
    when the file holds no basis of the key's shapes."""
    try:
        with np.load(path, allow_pickle=False) as d:
            arrays = [np.asarray(d[k], dtype=float) for k in ("eigenvalues", "ustack", "vstack")]
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None, ["unreadable"]
    if [a.shape for a in arrays] != [(m,), (m,) + grid.shape_u(), (m,) + grid.shape_v()]:
        return None, ["shapes"]
    basis = StokesBasis(grid, *arrays)
    return basis, [g.name for g in basis.gates() if not g.passed]


def compute_eigenbasis(grid, m, cache_dir=None):
    """The m smallest Stokes eigenpairs on the grid, L2-orthonormal.

    Deterministic.  Each parity sector (module docstring)
    is solved from a seeded start, first for ceil(m/4) + 4 pairs; a
    sector whose largest computed eigenvalue is at or below the merged
    m-th, with pairs left, is solved again for twice as many.  The merge
    is a stable ascending sort in the order ee, oo, eo, oe.  Sign rule:
    first non-negligible sample positive.  A build that fails one of
    `StokesBasis.gates` raises EigensolverError with the failed gates.  With
    cache_dir set, results are stored keyed by (kind, nx, m); a readable
    file of the key's shapes that passes every gate is reused, and any
    other is rebuilt (`source` "rebuilt", the reasons in `rejected`).
    """
    if m < 1:
        raise ValueError("need at least one mode")
    check_mode_count(grid.nx, m)
    path = _cache_path(cache_dir, grid, m) if cache_dir else None
    rejected = ()
    if path and os.path.exists(path):
        cached, rejected = _read_cache(path, grid, m)
        if not rejected:
            cached.source = "cache"
            return cached

    vals, ustack, vstack = _square_eigenbasis(grid, m)
    ustack, vstack = _fix_signs(ustack, vstack)
    basis = StokesBasis(grid, vals, ustack, vstack)
    failed = [g for g in basis.gates() if not g.passed]
    if failed:
        raise EigensolverError(*failed)
    if rejected:
        basis.source, basis.rejected = "rebuilt", rejected
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

"""Rank-r matrix factorizations updated under additive rank-1 increments.

Two update schemes are provided: a first-order projector-splitting step
(K-, core-, L-substeps) and a Brand-style truncated incremental SVD.  The
former orthogonalizes its two n x r panels by one round of Cholesky QR,
kept where its q tests orthonormal to eps level, and by Householder QR
where it does not; while its factors have rank below r < n (from zero
factors, steps 0 .. r-1, which the preconditioner selects by its step
count), it factors each panel through its (r+1) x r core in the basis
augmented by the increment's residual direction instead.  The latter
writes the sum exactly on an (r+1) x (r+1) core and always leaves the
same way: it drops the core's smallest singular triplet with one
Householder reflector per side.  The triplet comes from one LU of the
core by repeated squaring of (M^T M)^{-1}, from a full SVD of the core
where that does not succeed and at rank 1 (a 2 x 2 core, whose SVD costs
less), or is the last coordinate on a side whose residual direction is
missing.  Both schemes operate on factored quantities only (no n x n
array is ever formed) and keep the core a general r x r matrix.

A leading axis may stack K independent problems.  Stacked products are
batched ``np.matmul`` calls, one BLAS call per slice, so a slice gets the
same bits in a stack as alone; the r x r LAPACK calls and the rank-1
panel and basis updates run slice by slice, and the batched LAPACK of
numpy (the Householder fallback of the QR, the SVD of the core) loops over
the slices in C.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass

import numpy as np


def _scipy_linalg_module(name: str):
    """The compiled module ``scipy.linalg.<name>``, loaded without running
    scipy/linalg/__init__.py and the array-API layer it imports;
    scipy.linalg's ``lapack`` and ``blas`` re-export these very objects."""
    fullname = f"scipy.linalg.{name}"
    package = importlib.util.find_spec("scipy.linalg")
    spec = package and importlib.machinery.PathFinder.find_spec(
        fullname, package.submodule_search_locations)
    if spec is None:
        raise ImportError(f"cannot find the compiled module {fullname}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _scipy_linalg_module("_flapack")
_dgetrf, _dgetri, _dpotrf, _dtrtri = (_flapack.dgetrf, _flapack.dgetri, _flapack.dpotrf,
                                      _flapack.dtrtri)
_dger = _scipy_linalg_module("_fblas").dger

# Residual directions smaller than this (relative to the update vector) are
# treated as lying inside the current subspace.
_SUBSPACE_TOL = 1e-12

# Deflation: B is rank one when 1 - ||B||_F^2 <= _RANK_ONE_TOL at unit
# trace, tested after each count of squarings in _SQUARINGS: nearly all
# cores pass after 6, and 12 reach a singular value ratio of about 1.004.
# The triplet's residuals must be <= _RESIDUAL_TOL * ||M||_F.
_RANK_ONE_TOL = 1e-14
_SQUARINGS = (6, 9, 12)
_RESIDUAL_TOL = 1e-13

# Cholesky QR keeps a panel's q only where every entry of |q^T q - I| is
# within this; every other panel takes Householder QR, which delivers about
# 1e-15.  The panels kept are within a few times that, far inside the 1e-13
# the bases must keep; each step factors a newly formed panel, so nothing
# of it carries over to the next step.  On the steady panels of a run at
# n 1024, rank 48 every panel passes.
_CERTIFIED_TOL = 4e-15


@dataclass
class LowRankFactors:
    """Factorization A = u @ s @ v.T with orthonormal columns in u and v.

    The core ``s`` is a general r x r matrix; it is not kept diagonal
    between steps.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[-2]

    @property
    def rank(self) -> int:
        return self.u.shape[-1]

    def take(self, idx) -> "LowRankFactors":
        return LowRankFactors(self.u[idx], self.s[idx], self.v[idx])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x without forming A, cost O(n r), for a vector or a stack."""
        return (self.u @ (self.s @ (self.v.mT @ x[..., None])))[..., 0]

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """A.T @ x without forming A, cost O(n r)."""
        return (self.v @ (self.s.mT @ (self.u.mT @ x[..., None])))[..., 0]


@dataclass
class RankOneIncrement:
    """Additive increment weight * outer(a, b), kept in factored form.

    All consumers contract it through matrix-vector products; the outer
    product itself is never materialized.  A stack has K weights.
    """

    a: np.ndarray
    b: np.ndarray
    weight: float | np.ndarray

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim not in (1, 2) or self.b.ndim != self.a.ndim:
            raise ValueError("increment vectors must be one-dimensional, or a stack of them")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()
                and np.isfinite(self.weight).all()):
            raise ValueError("increment must be finite")

    @classmethod
    def trusted(cls, a: np.ndarray, b: np.ndarray, weight) -> "RankOneIncrement":
        """An increment built without checks, for a caller that checks its result."""
        inc = object.__new__(cls)
        inc.a, inc.b, inc.weight = a, b, weight
        return inc


def zero_factors(dim: int, rank: int, lead: tuple = ()) -> LowRankFactors:
    """Rank-``rank`` factors of the zero matrix, stacked ``lead`` times.

    Bases are the leading identity columns and the core is zero; the first
    update rotates the basis toward the data.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    u = np.broadcast_to(np.eye(dim, rank), lead + (dim, rank)).copy()
    return LowRankFactors(u, np.zeros(lead + (rank, rank)), u.copy())


def orthogonal_factorization(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor m = q @ r with orthonormal columns in q and diag(r) >= 0.

    Fast path is one round of Cholesky QR: Gram matrix, Cholesky, and
    triangular inverse, with the inverse applied by one GEMM, so the cost
    stays linear in n for fixed r (LAPACK's Householder QR on tall panels
    is not).  The round's q is then tested: a panel it leaves within
    _CERTIFIED_TOL of orthonormal keeps q and r = L^T.  Any other panel
    (rank-deficient, badly conditioned, not finite, or one whose Cholesky
    fails) takes Householder QR, whose reflectors complete the basis
    deterministically (a zero matrix yields identity columns).  Callers
    never see an error.  The LAPACK calls run slice by slice and the
    fallback takes one stacked QR, which factors each slice on its own, so
    a slice gets the bits and layout of its lone call.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] < m.shape[-1]:
        raise ValueError(f"expected tall n x r matrices, got shape {m.shape}")
    eye = _eye(m.shape[-1])
    low, failed = _each(_dpotrf, m.mT @ m, 1, 1, 1)  # lower, clean, in place
    for k in failed:  # L = I, so q = m, kept only where m is orthonormal, as r = I
        low[k] = eye
    # Each L now has a positive diagonal, so its inverse exists.
    inv, _ = _each(_dtrtri, low, 1, 0, 1)  # lower, not unit, in place
    q, r = m @ inv.mT, low.copy().mT
    # The test also fails where q is not finite.
    passed = np.maximum.reduce(np.abs(q.mT @ q - eye), axis=(-2, -1)) <= _CERTIFIED_TOL
    if passed.all():
        return q, r
    # Householder QR of every other panel in one call (a 0-d mask adds an
    # axis), signs fixed to diag(r) >= 0 by exact products with -1.0 or 1.0.
    qh, rh = np.linalg.qr(m[~passed])
    sign = np.where(rh.diagonal(0, -2, -1) < 0.0, -1.0, 1.0)
    q[~passed], r[~passed] = qh * sign[:, None, :], rh * sign[:, :, None]
    return q, r


@functools.cache
def _eye(r: int) -> np.ndarray:
    """The r x r identity, built once per size: np.eye costs more than its use."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _each(lapack, mats: np.ndarray, *flags) -> tuple[np.ndarray, list]:
    """LAPACK in place on each matrix of a copy of a small matrix or stack
    (directly: numpy's wrapper costs more than the r x r work), ``flags``
    ending in the overwrite flag: the results, Fortran-ordered so a slice's
    products make the same BLAS calls stacked as alone, and failed indices."""
    out, failed = mats.mT.copy().mT, []
    for k, mat in enumerate(out.reshape((-1,) + out.shape[-2:])):
        res, info = lapack(mat, *flags)
        if res is not mat:  # not done in place
            mat[...] = res
        failed += [(k,)[:out.ndim - 2]] if info else []
    return out, failed


def _check_increment(factors: LowRankFactors, inc: RankOneIncrement) -> None:
    if inc.a.shape != factors.u.shape[:-1] or inc.b.shape != inc.a.shape:
        raise ValueError(
            f"increment vectors {inc.a.shape}/{inc.b.shape} do not match "
            f"factors of shape {factors.u.shape}"
        )


def projector_splitting_step(factors: LowRankFactors,
                             inc: RankOneIncrement) -> LowRankFactors:
    """Advance the factors by one first-order splitting step.

    Substeps (K, core, L):

        K1 = u0 @ s0 + dA @ v0         -> orthogonalize as u1 @ s1_hat
        s0_hat = s1_hat - u1.T @ dA @ v0
        L1 = v0 @ s0_hat.T + dA.T @ u1 -> orthogonalize as v1 @ s1.T

    with dA = weight * outer(a, b) contracted in factored form.  Cost is
    O(n r^2 + r^3).  The step reproduces the true sum exactly whenever
    the updated matrix stays within rank r and its row space is visible
    from v0 (generic increments).
    """
    _check_increment(factors, inc)
    return _splitting_step(factors, inc, _factor_panel)


def _warm_splitting_step(factors: LowRankFactors, inc: RankOneIncrement) -> LowRankFactors:
    """:func:`projector_splitting_step` for factors of rank below r < n, as
    from zero factors before step r.  Its panels have rank below r, so
    Cholesky QR would fail on them; each is factored through its
    (r+1) x r core instead (:func:`_factor_augmented`)."""
    return _splitting_step(factors, inc, _factor_augmented)


def _splitting_step(factors, inc, factor):
    """The substeps, with ``factor(basis, core, vec, row)`` giving q, r of
    the panel basis @ core + outer(vec, row), diag(r) >= 0."""
    u0, s0, v0 = factors.u, factors.s, factors.v
    a, b, weight = inc.a, inc.b, np.asarray(inc.weight)[..., None]  # one per slice

    bv = weight * (b[..., None, :] @ v0)[..., 0, :]     # row of dA @ v0
    u1, s1_hat = factor(u0, s0, a, bv)

    ua = (a[..., None, :] @ u1)[..., 0, :]              # u1.T @ a
    s0_hat = s1_hat - ua[..., :, None] * bv[..., None, :]

    au = weight * ua                                    # row of u1.T @ dA
    v1, s1_t = factor(v0, s0_hat.mT, b, au)

    return LowRankFactors(u1, s1_t.mT, v1)


def _factor_panel(basis, core, vec, row):
    """:func:`orthogonal_factorization` of the panel, formed, its rank-1
    term added in place (one BLAS ``dger`` per slice)."""
    n, r = basis.shape[-2:]
    panel = basis @ core
    for pk, vk, rk in zip(panel.mT.reshape(-1, r, n), vec.reshape(-1, n), row.reshape(-1, r)):
        _dger(1.0, rk, vk, a=pk, overwrite_a=True)
    return orthogonal_factorization(panel)


def _factor_augmented(basis, core, vec, row):
    """The panel's q, r through its structure.  With vec = basis c + rho w
    (w the unit residual direction, :func:`_split_against_basis`), the
    panel is [basis | w] C for the (r+1) x r core C = [core + c row^T;
    rho row^T], so with C = Q R it is q = basis Q[:r] + w Q[r] and r = R:
    :func:`orthogonal_factorization` of C, one n x r x r product and a
    rank-1 update.  [basis | w] is orthonormal, so C has the panel's
    singular values: where the panel's rank is below r, Cholesky QR fails
    on C as on the panel, and the fallback QR is of the small core.
    Where rho = 0, C's last row is zero and so is Q's (C R^-1 keeps it
    zero, and so does each Householder reflector), so w, then not a unit
    vector, drops out."""
    n, r = basis.shape[-2:]
    side, resid = _split_against_basis(basis.reshape(-1, n, r), vec.reshape(-1, n).copy())
    c = side.reshape(vec.shape[:-1] + (r + 1, 1)) * row[..., None, :]
    c[..., :r, :] += core
    q, rr = orthogonal_factorization(c)
    out = basis @ q[..., :r, :]
    for ok, wk, qk in zip(out.mT.reshape(-1, r, n), resid, q[..., r, :].reshape(-1, r)):
        _dger(1.0, qk, wk, a=ok, overwrite_a=True)  # in place
    return out, rr


def rank_one_svd_combine(factors: LowRankFactors,
                         inc: RankOneIncrement) -> LowRankFactors:
    """Best rank-r approximation of A + dA.

    The sum is exactly representable in the bases augmented by the
    components of a and b orthogonal to span(u) and span(v), as an
    (r+1) x (r+1) core M.  By Eckart-Young, dropping M's smallest singular
    triplet (x, sigma, y) is globally optimal in Frobenius norm: one
    Householder reflector per side maps x and y to the last coordinate,
    the leading r x r block of the reflected core is the new (general)
    core, and each basis takes one rank-1 update.  The triplet comes from
    :func:`_deflation`; where that finds none, and at rank 1, from a full
    SVD of the core.
    A side whose residual direction is missing (a in span(u), b in span(v),
    or rank = dim) has a zero row or column in M, and takes x or y =
    e_last, which drops it exactly.  Rank-deficient input never errors.
    The input is left as it is: the step runs on a stacked copy of its bases.
    """
    _check_increment(factors, inc)
    return _combine_in_place(np.array([factors.u, factors.v]), factors.s, inc)


def _combine_in_place(bases: np.ndarray, s: np.ndarray,
                      inc: RankOneIncrement) -> LowRankFactors:
    """:func:`rank_one_svd_combine` of the factors (bases[0], s, bases[1]),
    where ``bases`` is C-contiguous: it writes the new bases over the old
    ones, and returns factors whose bases are bases[0] and bases[1]."""
    k, (n, r) = math.prod(s.shape[:-2]), bases.shape[-2:]
    flat = bases.reshape(2 * k, n, r)  # a view: the K slices of u, then those of v
    side, resid = _split_against_basis(flat, np.array([inc.a, inc.b]).reshape(2 * k, n))
    w = np.asarray(inc.weight).reshape(-1, 1, 1)  # one per slice
    core = np.zeros((k, r + 1, r + 1))
    core[:, :r, :r] = s.reshape(k, r, r)
    core += w * (side[:k, :, None] * side[k:, None, :])

    # A 2 x 2 core's SVD costs less than its deflation at every stack size.
    xy, found = _deflation(core) if r > 1 else (np.empty((2, k, r + 1)), np.zeros(k, dtype=bool))
    if not found.all():  # a core with a missing direction is singular: never found
        missing = (side[:, r] == 0.0).reshape(2, k)
        redo = ~found & ~missing.all(axis=0)  # not found, and at least one direction
        if redo.any():
            uk, _, vkt = _svd(core[redo])
            xy[0, redo], xy[1, redo] = uk[:, :, r], vkt[:, r, :]
        xy[missing] = _eye(r + 1)[r]
    return LowRankFactors(bases[0], _reflect_out(core, flat, resid, xy).reshape(s.shape),
                          bases[1])


def _reflect_out(core, bases, resid, xy):
    """Drop each core's smallest triplet, whose singular vectors are xy[0]
    and xy[1] (overwritten, as resid is): each side's basis augmented by
    its residual direction, times that side's reflector I - 2 h h^T that
    maps its vector to the last coordinate, and the core between them, each
    cut to its leading r columns.  A basis cut so is the basis minus
    2 (basis h[:r] + residual h[r]) h[:r]^T: one BLAS rank-1 update of
    ``bases`` in place.  Returns the reflected cores."""
    r, k, hs = bases.shape[-1], len(core), xy.reshape(-1, xy.shape[-1])
    hs[:, -1] += np.copysign(1.0, hs[:, -1])  # (I - 2 h h^T) v = -+e_last
    hs /= np.sqrt(_sqnorm(hs))[:, None]
    resid *= hs[:, r:]
    c = (bases @ hs[:, :r, None])[..., 0]
    c += resid
    for hk, ck, ak in zip(hs[:, :r], c, bases.mT):
        _dger(-2.0, hk, ck, a=ak, overwrite_a=True)
    return _reflected_core(core, hs[:k], hs[k:])


def _svd(core: np.ndarray):
    """SVD of each core; one LAPACK cannot factor (non-finite) gives NaN."""
    try:
        return np.linalg.svd(core, full_matrices=False)
    except np.linalg.LinAlgError:
        if len(core) == 1:
            return tuple(np.full_like(x, np.nan) for x in _svd(np.zeros_like(core)))
        return tuple(map(np.concatenate, zip(*(_svd(c[None]) for c in core))))


def _deflation(core: np.ndarray):
    """The left and right singular vectors x, y of each core's smallest
    singular value, stacked as xy[0], xy[1], and the cores for which that
    triplet was found.

    With X the inverse of a core M (one LU per core), B = X X^T =
    (M^T M)^{-1} has y as its dominant eigenvector.  B is squared until it
    is rank one (1 - ||B||_F^2 <= tol at unit trace), tested after each
    count of squarings in _SQUARINGS.  B's column of largest diagonal
    entry gives y, one inverse-iteration step X^T y gives x and sigma, and
    the triplet must pass a residual test on M itself.  A core fails when
    its LU is singular (it returns at once when every LU is), when its gap
    cannot reach the tolerance by the last test (it at best squares with
    each squaring), or when the residual test fails.  The slices of a
    stack square together; each keeps B from the test it met, so its bits
    do not depend on its stack.
    """
    k, n = core.shape[:2]
    inv, failed = _each(_inverse, core)
    if len(failed) == k:
        return np.full((2, k, n), np.nan), np.zeros(k, dtype=bool)
    live = np.ones(k, dtype=bool)
    if failed:
        live[[i for i, in failed]] = False
    with np.errstate(all="ignore"):  # failed or unconverged slices may overflow
        # B at unit trace has eigenvalues <= 1, so no squaring overflows;
        # trace(B @ B) = ||B||_F^2 for a symmetric B.
        b = inv @ inv.mT
        b /= _sqnorm(inv.mT.reshape(k, -1))[:, None, None]
        top, done = np.nan, 0  # B where it met the test
        for squarings in _SQUARINGS:
            for _ in range(squarings - done - 1):
                b = b @ b
            trace, done = _sqnorm(b.reshape(k, -1)), squarings
            b = b @ b
            b /= trace[:, None, None]
            gap = 1.0 - _sqnorm(b.reshape(k, -1))
            met = live & (gap <= _RANK_ONE_TOL)
            if met.all():  # the common case: every core meets the first test
                top = b
                break
            top = np.where(met[:, None, None], b, top)
            # The second eigenvalue ratio is at least gap / (2 (n - 1)), and
            # at best it squares with each squaring.
            live &= ~met & (
                gap <= 2 * (n - 1) * _RANK_ONE_TOL ** 0.5 ** (_SQUARINGS[-1] - done))
            if not live.any():
                break
        # top ~ y y^T, so its row c over sqrt(top[c, c]) is y (NaN where the
        # test was not met, which then fails the residual test).
        diag = top.diagonal(0, 1, 2)
        col, rows = diag.argmax(axis=1), np.arange(k)
        y = (top[rows, col] / np.sqrt(diag[rows, col])[:, None])[..., None]
        x = inv.mT @ y
        sigma = 1.0 / np.sqrt(_sqnorm(x[..., 0]))[:, None, None]
        x *= sigma
        resid = _sqnorm(np.concatenate([core @ y - sigma * x, core.mT @ x - sigma * y],
                                       axis=1)[..., 0])
        found = resid <= _RESIDUAL_TOL ** 2 * _sqnorm(core.reshape(k, -1))
    return np.concatenate([x, y])[..., 0].reshape(2, k, n), found


def _inverse(m: np.ndarray):
    """Inverse of a square Fortran-ordered matrix in place, with LAPACK's info."""
    lu, piv, info = _dgetrf(m, overwrite_a=True)
    return (lu, info) if info else _dgetri(lu, piv, overwrite_lu=True)


def _sqnorm(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row, one BLAS dot per row as for a row alone."""
    return np.vecdot(rows, rows)


def _reflected_core(core, hx, hy):
    """Leading r x r block of (I - 2 hx hx^T) core (I - 2 hy hy^T)."""
    r = core.shape[-1] - 1
    m = core - 2.0 * hx[:, :, None] * (hx[:, None, :] @ core)
    return m[:, :r, :r] - 2.0 * (m[:, :r] @ hy[:, :, None]) * hy[:, None, :r]


def _split_against_basis(basis: np.ndarray, vec: np.ndarray):
    """Each vec of a stack in its basis augmented by its unit residual
    direction: the r coefficients and the residual norm, and the direction,
    written over vec.  The norm is 0 (the direction moot) where the residual
    is negligible, including where the basis spans the space."""
    n, r = basis.shape[1:]
    vec = vec[:, :, None]
    side = np.empty((len(basis), r + 1, 1))
    coeff, norm = side[:, :r], side[:, r:]
    scale = np.maximum(1.0, np.sqrt(vec.mT @ vec))
    np.matmul(basis.mT, vec, out=coeff)
    vec -= basis @ coeff
    # One reorthogonalization pass keeps the augmented basis orthonormal.
    correction = basis.mT @ vec
    vec -= basis @ correction
    coeff += correction
    np.sqrt(vec.mT @ vec, out=norm)
    # Where the basis spans the whole space the residual is round-off.
    norm *= norm > _SUBSPACE_TOL * scale if r < n else 0.0
    vec /= norm + (norm == 0.0)
    return side[:, :, 0], vec[:, :, 0]

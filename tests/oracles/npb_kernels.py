"""Real NumPy mini-kernels implementing the NAS algorithms.

These run the actual numerics at reduced scale, and
``tests/test_kernels.py`` checks each one the way NPB's verification
stage checks the full benchmark (CG convergence, MG residual reduction,
FT's identity at zero diffusion, EP's acceptance statistics, IS
sortedness, SP contraction, LU's SSOR convergence).  They are a
test-side numerics check: the timing simulation never runs them, its
phase descriptors are derived from the problem dimensions analytically.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


# ----------------------------------------------------------------------
# CG: conjugate gradient with a random sparse SPD matrix
# ----------------------------------------------------------------------
def make_sparse_spd(
    n: int, nonzer: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build a CSR-like random sparse symmetric positive-definite matrix.

    Mirrors NPB ``makea``: random sparsity with ``nonzer`` off-diagonal
    entries per row plus a dominant diagonal shift.

    Returns (data, indices, indptr).
    """
    rows = []
    cols = []
    vals = []
    for i in range(n):
        js = rng.choice(n, size=nonzer, replace=False)
        vs = rng.random(nonzer) * 2.0 - 1.0
        for j, v in zip(js, vs):
            # Symmetrize by emitting both (i, j) and (j, i).
            rows.append(i)
            cols.append(int(j))
            vals.append(v)
            rows.append(int(j))
            cols.append(i)
            vals.append(v)
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(float(2 * nonzer + 10))  # diagonal dominance -> SPD
    order = np.lexsort((np.array(cols), np.array(rows)))
    r = np.array(rows)[order]
    c = np.array(cols)[order]
    v = np.array(vals)[order]
    # Merge duplicates.
    key = r.astype(np.int64) * n + c
    uniq, inv = np.unique(key, return_inverse=True)
    data = np.zeros(len(uniq))
    np.add.at(data, inv, v)
    rr = (uniq // n).astype(np.int64)
    cc = (uniq % n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rr + 1, 1)
    indptr = np.cumsum(indptr)
    return data, cc, indptr


def spmv(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
         x: np.ndarray) -> np.ndarray:
    """CSR sparse matrix-vector product."""
    n = len(indptr) - 1
    y = np.zeros(n)
    for i in range(n):
        s, e = indptr[i], indptr[i + 1]
        y[i] = data[s:e] @ x[indices[s:e]]
    return y


def cg_solve(
    n: int = 256,
    nonzer: int = 5,
    niter: int = 15,
    shift: float = 10.0,
    seed: int = 314159,
) -> Tuple[float, float]:
    """NPB-CG power-method driver: returns (zeta, final residual norm).

    Each outer iteration runs 25 CG steps on ``A z = x`` and updates the
    shifted eigenvalue estimate ``zeta = shift + 1 / (x . z)``.
    """
    rng = np.random.default_rng(seed)
    data, indices, indptr = make_sparse_spd(n, nonzer, rng)
    x = np.ones(n)
    zeta = 0.0
    rnorm = 0.0
    for _ in range(niter):
        z, rnorm = _cg_inner(data, indices, indptr, x, 25)
        zeta = shift + 1.0 / float(x @ z)
        x = z / np.linalg.norm(z)
    return zeta, rnorm


def _cg_inner(data, indices, indptr, b, steps: int) -> Tuple[np.ndarray, float]:
    n = len(b)
    z = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(steps):
        q = spmv(data, indices, indptr, p)
        alpha = rho / float(p @ q)
        z = z + alpha * p
        r = r - alpha * q
        rho_new = float(r @ r)
        beta = rho_new / rho
        rho = rho_new
        p = r + beta * p
    return z, math.sqrt(rho)


# ----------------------------------------------------------------------
# MG: multigrid V-cycle for 3-D Poisson
# ----------------------------------------------------------------------
def mg_vcycle(n: int = 32, cycles: int = 4, seed: int = 7) -> float:
    """Run V-cycles of a 3-D multigrid Poisson solver on an n^3 grid.

    Returns the final residual L2 norm (must decrease monotonically; the
    test suite checks convergence order).  ``n`` must be a power of two.
    """
    if n & (n - 1):
        raise ValueError("grid size must be a power of two")
    rng = np.random.default_rng(seed)
    v = np.zeros((n, n, n))
    f = rng.standard_normal((n, n, n))
    f -= f.mean()  # compatibility condition for periodic Poisson
    for _ in range(cycles):
        v = _vcycle(v, f)
    return float(np.linalg.norm(_residual(v, f)))


def _laplacian(u: np.ndarray) -> np.ndarray:
    """Periodic 7-point Laplacian, unit grid spacing."""
    return (
        np.roll(u, 1, 0) + np.roll(u, -1, 0)
        + np.roll(u, 1, 1) + np.roll(u, -1, 1)
        + np.roll(u, 1, 2) + np.roll(u, -1, 2)
        - 6.0 * u
    )


def _residual(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    return f - _laplacian(v)


def _smooth(v: np.ndarray, f: np.ndarray, passes: int = 3) -> np.ndarray:
    """Damped Jacobi: with L = (neighbor sum) - 6 I and r = f - L v, the
    Jacobi update is v - omega * r / 6."""
    omega = 0.85
    for _ in range(passes):
        v = v - omega / 6.0 * _residual(v, f)
    return v


def _restrict(r: np.ndarray) -> np.ndarray:
    return 0.125 * (
        r[0::2, 0::2, 0::2] + r[1::2, 0::2, 0::2]
        + r[0::2, 1::2, 0::2] + r[0::2, 0::2, 1::2]
        + r[1::2, 1::2, 0::2] + r[1::2, 0::2, 1::2]
        + r[0::2, 1::2, 1::2] + r[1::2, 1::2, 1::2]
    )


def _prolong(e: np.ndarray) -> np.ndarray:
    n = e.shape[0] * 2
    out = np.zeros((n, n, n))
    out[0::2, 0::2, 0::2] = e
    out[1::2, :, :] = 0.5 * (out[0::2, :, :] + np.roll(out, -2, 0)[0::2, :, :])
    out[:, 1::2, :] = 0.5 * (out[:, 0::2, :] + np.roll(out, -2, 1)[:, 0::2, :])
    out[:, :, 1::2] = 0.5 * (out[:, :, 0::2] + np.roll(out, -2, 2)[:, :, 0::2])
    return out


def _vcycle(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    v = _smooth(v, f)
    if v.shape[0] <= 4:
        return _smooth(v, f, passes=8)
    r = _restrict(_residual(v, f))
    e = _vcycle(np.zeros_like(r), r)
    v = v + _prolong(e)
    return _smooth(v, f)


# ----------------------------------------------------------------------
# FT: 3-D FFT PDE evolution
# ----------------------------------------------------------------------
def ft_evolve(
    shape: Tuple[int, int, int] = (16, 16, 16),
    niter: int = 3,
    alpha: float = 1e-6,
    seed: int = 11,
) -> np.ndarray:
    """NPB-FT: evolve a PDE spectrally; returns per-iteration checksums.

    Computes ``u(t) = ifft(exp(-4 alpha pi^2 |k|^2 t) * fft(u0))`` and a
    checksum per time step (sum over a stride-probed subset, as NPB
    does).
    """
    rng = np.random.default_rng(seed)
    u0 = rng.random(shape) + 1j * rng.random(shape)
    u_hat = np.fft.fftn(u0)
    ks = [np.fft.fftfreq(n) * n for n in shape]
    kx, ky, kz = np.meshgrid(*ks, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    sums = []
    for t in range(1, niter + 1):
        w = u_hat * np.exp(-4.0 * alpha * np.pi**2 * k2 * t)
        u = np.fft.ifftn(w)
        flat = u.reshape(-1)
        idx = (np.arange(1024) * 17) % flat.size
        sums.append(complex(flat[idx].sum()))
    return np.array(sums)


# ----------------------------------------------------------------------
# EP: embarrassingly parallel Gaussian pairs
# ----------------------------------------------------------------------
def ep_pairs(log2_pairs: int = 16, seed: int = 271828183) -> Tuple[np.ndarray, float]:
    """NPB-EP: count Gaussian deviates per annulus via Marsaglia polar.

    Returns (counts per square annulus 0..9, sum of accepted pair count).
    Uses numpy's generator rather than NPB's linear congruential stream;
    the acceptance statistics (pi/4 accept rate) are what tests verify.
    """
    n = 1 << log2_pairs
    rng = np.random.default_rng(seed)
    x = rng.random(n) * 2.0 - 1.0
    y = rng.random(n) * 2.0 - 1.0
    t = x * x + y * y
    ok = t <= 1.0
    tt = t[ok]
    factor = np.sqrt(-2.0 * np.log(tt) / tt)
    gx = x[ok] * factor
    gy = y[ok] * factor
    m = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
    counts = np.bincount(np.clip(m, 0, 9), minlength=10)
    return counts, float(ok.sum())


# ----------------------------------------------------------------------
# IS: integer bucket sort
# ----------------------------------------------------------------------
def is_sort(
    n_keys: int = 1 << 14, max_key: int = 1 << 11, seed: int = 42
) -> Tuple[np.ndarray, bool]:
    """NPB-IS: bucket-sort integer keys; returns (ranks, sorted_ok)."""
    rng = np.random.default_rng(seed)
    # NPB generates keys as an average of 4 uniform randoms (binomial-ish).
    keys = (
        rng.integers(0, max_key, n_keys)
        + rng.integers(0, max_key, n_keys)
        + rng.integers(0, max_key, n_keys)
        + rng.integers(0, max_key, n_keys)
    ) // 4
    hist = np.bincount(keys, minlength=max_key)
    ranks = np.cumsum(hist) - hist  # starting rank of each key value
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    return ranks, bool(np.all(np.diff(sorted_keys) >= 0))


# ----------------------------------------------------------------------
# SP/BT/LU-style structured-grid sweeps
# ----------------------------------------------------------------------
def sp_line_solve(n: int = 24, iters: int = 2, seed: int = 5) -> float:
    """Scalar-pentadiagonal line sweeps along each dimension (SP's ADI
    pattern) on an n^3 scalar field; returns the field norm (stability
    check: norm must stay finite and decrease under diffusion)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n, n))
    # Diffusive implicit sweep approximated by tridiagonal
    # (Thomas algorithm) along each axis.
    for _ in range(iters):
        for axis in range(3):
            u = _thomas_diffuse(u, axis, dt=0.1)
    return float(np.linalg.norm(u))


def _thomas_diffuse(u: np.ndarray, axis: int, dt: float) -> np.ndarray:
    """Solve (I - dt * d2/dx2) u_new = u along ``axis`` (Dirichlet)."""
    u = np.moveaxis(u, axis, 0)
    n = u.shape[0]
    a = -dt * np.ones(n)  # sub
    b = (1.0 + 2.0 * dt) * np.ones(n)  # diag
    c = -dt * np.ones(n)  # super
    a[0] = c[-1] = 0.0
    rhs = u.reshape(n, -1).copy()
    cp = np.zeros(n)
    # Forward sweep.
    cp[0] = c[0] / b[0]
    rhs[0] /= b[0]
    for i in range(1, n):
        m = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / m
        rhs[i] = (rhs[i] - a[i] * rhs[i - 1]) / m
    # Back substitution.
    for i in range(n - 2, -1, -1):
        rhs[i] -= cp[i] * rhs[i + 1]
    return np.moveaxis(rhs.reshape(u.shape), 0, axis)


def lu_ssor_sweep(n: int = 16, iters: int = 3, omega: float = 1.2,
                  seed: int = 3) -> float:
    """LU's SSOR wavefront: lower+upper triangular sweeps of a 7-point
    operator; returns the residual norm after ``iters`` sweeps (must
    decrease: SSOR converges for diffusion-dominated systems)."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n, n))
    u = np.zeros((n, n, n))
    for _ in range(iters):
        # Lower (forward) wavefront sweep, Gauss-Seidel ordering.
        for k in range(1, n - 1):
            for j in range(1, n - 1):
                u[1:-1, j, k] = (1 - omega) * u[1:-1, j, k] + omega / 6.0 * (
                    u[:-2, j, k] + u[2:, j, k]
                    + u[1:-1, j - 1, k] + u[1:-1, j + 1, k]
                    + u[1:-1, j, k - 1] + u[1:-1, j, k + 1]
                    - f[1:-1, j, k]
                )
        # Upper (backward) sweep.
        for k in range(n - 2, 0, -1):
            for j in range(n - 2, 0, -1):
                u[1:-1, j, k] = (1 - omega) * u[1:-1, j, k] + omega / 6.0 * (
                    u[:-2, j, k] + u[2:, j, k]
                    + u[1:-1, j - 1, k] + u[1:-1, j + 1, k]
                    + u[1:-1, j, k - 1] + u[1:-1, j, k + 1]
                    - f[1:-1, j, k]
                )
    res = _laplacian(u) - f
    return float(np.linalg.norm(res[1:-1, 1:-1, 1:-1]))

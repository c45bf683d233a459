"""Tests for the real NumPy mini-kernels (algorithm verification).

Each class checks the algorithmic property NPB's verification stage
checks for that benchmark.
"""

import math

import numpy as np
import pytest

from tests.oracles import npb_kernels as kernels


class TestCGKernel:
    def test_spmv_matches_dense(self):
        rng = np.random.default_rng(0)
        data, indices, indptr = kernels.make_sparse_spd(40, 4, rng)
        dense = np.zeros((40, 40))
        for i in range(40):
            for k in range(indptr[i], indptr[i + 1]):
                dense[i, indices[k]] = data[k]
        x = rng.random(40)
        np.testing.assert_allclose(
            kernels.spmv(data, indices, indptr, x), dense @ x, rtol=1e-12
        )

    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(1)
        data, indices, indptr = kernels.make_sparse_spd(30, 3, rng)
        dense = np.zeros((30, 30))
        for i in range(30):
            for k in range(indptr[i], indptr[i + 1]):
                dense[i, indices[k]] = data[k]
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    def test_cg_converges(self):
        zeta, rnorm = kernels.cg_solve(n=128, nonzer=4, niter=5)
        assert np.isfinite(zeta)
        assert rnorm < 1e-6  # 25 CG steps on a well-conditioned system
        # The shifted eigenvalue estimate is positive and finite.
        zeta, rnorm = kernels.cg_solve(n=256, nonzer=5, niter=8)
        assert math.isfinite(zeta) and zeta > 0
        assert rnorm < 1e-8

    def test_cg_deterministic(self):
        a = kernels.cg_solve(n=64, nonzer=3, niter=3, seed=9)
        b = kernels.cg_solve(n=64, nonzer=3, niter=3, seed=9)
        assert a == b


class TestMGKernel:
    def test_residual_decreases_with_cycles(self):
        r1 = kernels.mg_vcycle(n=16, cycles=1)
        r4 = kernels.mg_vcycle(n=16, cycles=4)
        assert r4 < r1
        assert r4 / r1 < 0.35  # four V-cycles beat one by ~3x or more

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            kernels.mg_vcycle(n=24)

    def test_laplacian_of_constant_is_zero(self):
        u = np.full((8, 8, 8), 3.0)
        np.testing.assert_allclose(kernels._laplacian(u), 0.0, atol=1e-12)

    def test_restrict_prolong_shapes(self):
        r = np.ones((8, 8, 8))
        coarse = kernels._restrict(r)
        assert coarse.shape == (4, 4, 4)
        fine = kernels._prolong(coarse)
        assert fine.shape == (8, 8, 8)

    def test_restrict_preserves_mean(self):
        rng = np.random.default_rng(2)
        r = rng.random((8, 8, 8))
        assert kernels._restrict(r).mean() == pytest.approx(r.mean())


class TestFTKernel:
    def test_checksums_finite_and_decaying(self):
        sums = kernels.ft_evolve(shape=(16, 16, 16), niter=4, alpha=1e-3)
        assert np.all(np.isfinite(np.abs(sums)))
        sums = kernels.ft_evolve(shape=(8, 8, 8), niter=4, alpha=1e-2)
        mags = np.abs(sums)
        assert np.all(np.isfinite(mags))
        # Diffusion in Fourier space shrinks high-frequency content;
        # successive checksums evolve smoothly.
        assert mags[0] != mags[-1]

    def test_zero_alpha_is_identity_evolution(self):
        for shape in ((8, 8, 8), (16, 16, 16)):
            sums = kernels.ft_evolve(shape=shape, niter=3, alpha=0.0)
            assert np.allclose(sums, sums[0])

    def test_fft_roundtrip(self):
        rng = np.random.default_rng(3)
        u = rng.random((8, 8, 8)) + 1j * rng.random((8, 8, 8))
        np.testing.assert_allclose(
            np.fft.ifftn(np.fft.fftn(u)), u, atol=1e-12
        )


class TestEPKernel:
    def test_acceptance_rate_is_pi_over_four(self):
        for log2_pairs in (17, 18):
            counts, accepted = kernels.ep_pairs(log2_pairs=log2_pairs)
            n = 1 << log2_pairs
            assert accepted / n == pytest.approx(np.pi / 4, abs=0.01)

    def test_counts_sum_to_accepted(self):
        for log2_pairs in (14, 17):
            counts, accepted = kernels.ep_pairs(log2_pairs=log2_pairs)
            assert counts.sum() == int(accepted)

    def test_gaussian_concentration(self):
        counts, _ = kernels.ep_pairs(log2_pairs=16)
        # |max(x,y)| < 1 holds for most standard-normal pairs.
        assert counts[0] + counts[1] > 0.8 * counts.sum()


class TestISKernel:
    def test_sorted(self):
        for n_keys, max_key in ((4096, 512), (8192, 1024)):
            ranks, ok = kernels.is_sort(n_keys=n_keys, max_key=max_key)
            assert ok

    def test_ranks_are_prefix_sums(self):
        for n_keys, max_key in ((4096, 512), (8192, 1024)):
            ranks, _ = kernels.is_sort(n_keys=n_keys, max_key=max_key)
            assert ranks[0] == 0
            assert np.all(np.diff(ranks) >= 0)
            assert ranks[-1] <= n_keys


class TestSPKernel:
    def test_thomas_solves_tridiagonal(self):
        n = 16
        dt = 0.1
        rng = np.random.default_rng(4)
        u = rng.standard_normal((n, n, n))
        out = kernels._thomas_diffuse(u, axis=0, dt=dt)
        # Verify A @ out = u along axis 0 for one pencil.
        A = np.zeros((n, n))
        for i in range(n):
            A[i, i] = 1 + 2 * dt
            if i > 0:
                A[i, i - 1] = -dt
            if i < n - 1:
                A[i, i + 1] = -dt
        np.testing.assert_allclose(A @ out[:, 3, 5], u[:, 3, 5], atol=1e-10)

    def test_diffusion_contracts(self):
        n0 = kernels.sp_line_solve(n=12, iters=0)
        n2 = kernels.sp_line_solve(n=12, iters=2)
        assert n2 < n0
        n0 = kernels.sp_line_solve(n=16, iters=0)
        n3 = kernels.sp_line_solve(n=16, iters=3)
        assert n3 < n0


class TestLUKernel:
    def test_ssor_reduces_residual(self):
        r1 = kernels.lu_ssor_sweep(n=10, iters=1)
        r5 = kernels.lu_ssor_sweep(n=10, iters=5)
        r6 = kernels.lu_ssor_sweep(n=10, iters=6)
        assert r5 < r1
        assert r6 < r1

"""Tests for the real NPB implementations: RNG exactness, official
verification values, algorithmic invariants, and MMS convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, UnsupportedConfigurationError
from repro.npb import bt, cg, ep, ft, is_, lu, mg, sp
from repro.npb.common import check_rank_constraint, problem_class
from repro.npb.randdp import (
    DEFAULT_SEED,
    MOD,
    lcg_jump,
    lcg_power_table,
    randlc,
    ranlc_array,
    ranlc_blocks,
)


# ------------------------------------------------------------------- RNG


class TestRanddp:
    def test_vectorized_matches_scalar_exactly(self):
        x = DEFAULT_SEED
        scalar = []
        for _ in range(500):
            x = randlc(x)
            scalar.append(x / MOD)
        vec = ranlc_array(500, seed=DEFAULT_SEED)
        assert np.array_equal(np.array(scalar), vec)

    def test_jump_equals_stepping(self):
        x = DEFAULT_SEED
        for _ in range(137):
            x = randlc(x)
        assert lcg_jump(DEFAULT_SEED, 137) == x

    def test_jump_zero_is_identity(self):
        assert lcg_jump(DEFAULT_SEED, 0) == DEFAULT_SEED

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_jump_composes(self, a, b):
        # a^(m+n) x = a^m (a^n x): the property EP's block seeding relies on.
        assert lcg_jump(lcg_jump(DEFAULT_SEED, a), b) == lcg_jump(
            DEFAULT_SEED, a + b
        )

    def test_power_table_matches_pow(self):
        table = lcg_power_table(64)
        a = 5**13
        for i in (0, 1, 5, 31, 63):
            assert int(table[i]) == pow(a, i + 1, MOD)

    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=257))
    @settings(max_examples=25, deadline=None)
    def test_blocked_generation_matches_contiguous(self, total, block):
        blocks = list(ranlc_blocks(total, block))
        joined = np.concatenate(blocks)
        assert np.array_equal(joined, ranlc_array(total))

    def test_values_in_unit_interval(self):
        vals = ranlc_array(10000)
        assert np.all(vals > 0) and np.all(vals < 1)

    def test_bad_state_rejected(self):
        with pytest.raises(ConfigError):
            randlc(0)
        with pytest.raises(ConfigError):
            randlc(MOD)


# --------------------------------------------------- official verification


class TestOfficialVerification:
    """Each kernel must reproduce the official NPB reference values."""

    def test_ep_class_s(self):
        r = ep.run("S")
        assert r.verified
        assert r.details["sx"] == pytest.approx(-3.247834652034740e3, rel=1e-8)
        assert r.details["sy"] == pytest.approx(-6.958407078382297e3, rel=1e-8)

    def test_ep_counts_sum_to_accepted(self):
        r = ep.run("S")
        counts = sum(r.details[f"count_{i}"] for i in range(10))
        assert counts == r.details["accepted"]

    def test_ep_block_decomposition_exact(self):
        # The defining EP property: per-rank partial sums reproduce the
        # serial result exactly, regardless of the split.
        serial = ep.run("S")
        sx = sy = 0.0
        for rank in range(4):
            part = ep.run("S", rank=rank, n_ranks=4)
            sx += part.details["sx"]
            sy += part.details["sy"]
        assert sx == pytest.approx(serial.details["sx"], rel=1e-12)
        assert sy == pytest.approx(serial.details["sy"], rel=1e-12)

    def test_cg_class_s(self):
        r = cg.run("S")
        assert r.verified
        assert r.details["zeta"] == pytest.approx(8.5971775078648, abs=1e-9)

    def test_cg_matrix_structure(self):
        import scipy.sparse as sparse

        a = cg.make_matrix("S")
        # Symmetric by construction (sum of outer products).
        assert abs(a - a.T).max() < 1e-12
        # A = Σ ω·xxᵀ + (rcond − shift)·I: adding the shift back leaves a
        # positive-definite matrix (Σ ω·xxᵀ + rcond·I).
        shift = 10.0  # class S
        shifted = a + shift * sparse.eye(a.shape[0])
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.standard_normal(a.shape[0])
            assert v @ (shifted @ v) > 0

    @pytest.mark.parametrize(
        "problem, nnz, digest",
        [
            ("S", 78148,
             "0cbacb9b4f6706dbcdee345889ef10a6dbd678921f02a02456aa0208cb581dcd"),
            ("W", 508402,
             "77d338930dd9932fa875655c3193454561089afbdb988478069d8e9023386c52"),
        ],
    )
    def test_cg_matrix_bytes_pinned(self, problem, nnz, digest):
        # Digests of the Python triple-loop assembly; the vectorized
        # outer products must reproduce its CSR arrays byte for byte.
        import hashlib

        a = cg.make_matrix(problem)
        assert a.nnz == nnz
        assert (a.data.dtype, a.indices.dtype, a.indptr.dtype) == (
            np.float64, np.int32, np.int32,
        )
        h = hashlib.sha256(
            a.data.tobytes() + a.indices.tobytes() + a.indptr.tobytes()
        )
        assert h.hexdigest() == digest

    def test_cg_matrix_built_once_per_class(self):
        assert cg.make_matrix("S") is cg.make_matrix("s")
        assert cg.make_matrix() is cg.make_matrix("S")

    @pytest.mark.parametrize("field", ["data", "indices", "indptr"])
    def test_cg_matrix_read_only(self, field):
        arr = getattr(cg.make_matrix("S"), field)
        with pytest.raises(ValueError):
            arr[0] = arr[0]
        assert cg.run("S").verified  # the shared matrix is untouched

    def test_mg_class_s(self):
        r = mg.run("S")
        assert r.verified
        assert r.details["rnm2"] == pytest.approx(5.307707005734e-5, rel=1e-8)

    def test_ft_class_s_checksums(self):
        r = ft.run("S")
        assert r.verified
        assert r.details["chk1_re"] == pytest.approx(5.546087004964e02, rel=1e-11)
        assert r.details["chk6_im"] == pytest.approx(4.932597244941e02, rel=1e-11)

    def test_is_class_s(self):
        assert is_.run("S").verified


# ---------------------------------------------------------- MG invariants


class TestMgOperators:
    def test_resid_of_exact_zero_field(self):
        v = np.zeros((8, 8, 8))
        u = np.zeros((8, 8, 8))
        assert np.allclose(mg.resid(u, v), 0.0)

    def test_stencil_constant_field_nullspace(self):
        # The A stencil coefficients sum to 0: constants are in the
        # nullspace (periodic Poisson).
        u = np.full((8, 8, 8), 3.7)
        out = mg._apply_stencil(u, mg.A_COEFF)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_restriction_scales_constants_by_four(self):
        # NPB full-weighting weights sum to 4 (0.5 + 6·0.25 + 12·0.125 +
        # 8·0.0625): a constant restricts to 4× itself, absorbing the h²
        # rescaling of the coarse-grid operator.
        u = np.full((16, 16, 16), 2.5)
        coarse = mg.rprj3(u)
        assert coarse.shape == (8, 8, 8)
        assert np.allclose(coarse, 10.0)

    def test_interpolation_of_constant(self):
        c = np.full((4, 4, 4), 1.5)
        fine = mg.interp_add(np.zeros((8, 8, 8)), c)
        assert np.allclose(fine, 1.5)

    def test_vcycle_reduces_residual(self):
        n = 16
        v = mg.zran3(n)
        u = np.zeros((n, n, n))
        r = mg.resid(u, v)
        before = mg.norm2(r)
        u = mg.mg3p(u, v, r, mg.C_COEFF_SWA)
        after = mg.norm2(mg.resid(u, v))
        assert after < 0.2 * before

    def test_zran3_charge_counts(self):
        v = mg.zran3(16)
        assert (v == 1.0).sum() == 10
        assert (v == -1.0).sum() == 10
        assert ((v != 0) & (np.abs(v) != 1.0)).sum() == 0


# --------------------------------------------------------- FT invariants


class TestFtProperties:
    def test_parseval_energy_conservation(self):
        u = ft.initial_conditions(16, 16, 16)
        spec = np.fft.fftn(u)
        lhs = np.sum(np.abs(u) ** 2)
        rhs = np.sum(np.abs(spec) ** 2) / u.size
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_twiddle_bounded_and_unit_at_dc(self):
        tw = ft.twiddle_factors(16, 16, 16)
        assert tw[0, 0, 0] == pytest.approx(1.0)
        assert np.all(tw <= 1.0) and np.all(tw > 0.0)

    def test_evolution_decays_energy(self):
        u = ft.initial_conditions(16, 16, 16)
        spec = np.fft.fftn(u)
        tw = ft.twiddle_factors(16, 16, 16)
        e0 = np.sum(np.abs(spec) ** 2)
        e1 = np.sum(np.abs(spec * tw) ** 2)
        assert e1 < e0


# -------------------------------------------------- pseudo-apps (BT/SP/LU)


class TestPseudoApps:
    @pytest.mark.parametrize("module", [bt, sp, lu], ids=["BT", "SP", "LU"])
    def test_class_s_verifies(self, module):
        assert module.run("S").verified

    def test_bt_second_order_convergence(self):
        from repro.npb.pseudo_pde import PdeSetup, step_error

        errors = {}
        for n in (8, 16):
            setup = PdeSetup(n=n, steps=8)
            u = setup.exact(0.0)
            t = 0.0
            for _ in range(8):
                u = bt.adi_step(setup, u, t)
                t += setup.dt
            errors[n] = step_error(setup, u, t)
        # Halving h should cut the error by ~4 (allow slack for dt coupling).
        assert errors[8] / errors[16] > 2.5

    def test_lu_ssor_contracts_residual(self):
        from repro.npb.pseudo_pde import PdeSetup

        setup = PdeSetup(n=10, steps=1)
        solver = lu.SsorSolver(setup)
        rhs = setup.exact(0.0)
        _, residuals = solver.solve(rhs, np.zeros_like(rhs), sweeps=5)
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_thomas_solver_against_dense(self):
        from repro.npb.pseudo_pde import thomas_batched

        rng = np.random.default_rng(3)
        n = 12
        sub = rng.random((4, n)) * 0.3
        sup = rng.random((4, n)) * 0.3
        diag = 1.0 + rng.random((4, n))
        rhs = rng.random((4, n))
        x = thomas_batched(sub, diag, sup, rhs)
        for b in range(4):
            m = np.diag(diag[b]) + np.diag(sub[b, 1:], -1) + np.diag(sup[b, :-1], 1)
            assert np.allclose(m @ x[b], rhs[b], atol=1e-10)

    def test_penta_solver_against_dense(self):
        from repro.npb.pseudo_pde import penta_batched

        rng = np.random.default_rng(4)
        n = 12
        bands = [rng.random((3, n)) * 0.1 for _ in range(5)]
        bands[2] = 2.0 + rng.random((3, n))  # diagonally dominant
        rhs = rng.random((3, n))
        x = penta_batched(*bands, rhs)
        for b in range(3):
            m = (
                np.diag(bands[2][b])
                + np.diag(bands[1][b, 1:], -1)
                + np.diag(bands[0][b, 2:], -2)
                + np.diag(bands[3][b, :-1], 1)
                + np.diag(bands[4][b, :-2], 2)
            )
            assert np.allclose(m @ x[b], rhs[b], atol=1e-8)

    @given(st.integers(min_value=4, max_value=16))
    @settings(max_examples=10, deadline=None)
    def test_hyperplanes_partition_grid(self, n):
        planes = lu.hyperplanes(n)
        all_points = np.concatenate(planes)
        assert len(all_points) == n**3
        assert len(np.unique(all_points)) == n**3


# -------------------------------------------------------- rank constraints


class TestRankConstraints:
    def test_power_of_two_benchmarks(self):
        for b in ("CG", "MG", "FT", "LU"):
            check_rank_constraint(b, 64)
            check_rank_constraint(b, 128)
            with pytest.raises(UnsupportedConfigurationError):
                check_rank_constraint(b, 59)

    def test_square_benchmarks(self):
        for b in ("BT", "SP"):
            for r in (64, 121, 169, 225):
                check_rank_constraint(b, r)
            with pytest.raises(UnsupportedConfigurationError):
                check_rank_constraint(b, 128)

    def test_unconstrained_benchmarks(self):
        check_rank_constraint("EP", 7)
        check_rank_constraint("IS", 100)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            problem_class("Z")

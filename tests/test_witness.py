import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from _oracles import serial_find_witness

from horncone import witness
from horncone.cone import SpectrumFamily
from horncone.witness import (
    NumericalFailure,
    find_witness,
    hermitian_eigh,
    project_to_orbit,
    sample_orbit,
    verify_witness,
)


def check_no_attempt(monkeypatch, spectra, t, **options):
    """find_witness raises ValueError before any attempt runs."""
    waves = []
    wave = witness._wave

    def counting_wave(*args):
        waves.append(args)
        return wave(*args)

    monkeypatch.setattr(witness, "_wave", counting_wave)
    with pytest.raises(ValueError):
        find_witness(spectra, t, **options)
    assert not waves


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


class TestJacobi:
    def test_against_lapack(self):
        rng = np.random.default_rng(101)
        for n in (1, 2, 3, 4, 6, 8, 12):
            for _ in range(4):
                a = random_hermitian(rng, n)
                w, v = hermitian_eigh(a)
                ref = np.sort(np.linalg.eigvalsh(a))[::-1]
                assert np.max(np.abs(w - ref)) < 1e-10
                assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
                assert np.max(np.abs(a - (v * w) @ v.conj().T)) < 1e-10

    def test_eigenvalues_sorted_decreasing(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 5)
        w, _ = hermitian_eigh(a)
        assert all(x >= y for x, y in zip(w, w[1:]))

    def test_real_diagonal_input(self):
        w, v = hermitian_eigh(np.diag([3.0, 1.0, -2.0]))
        assert np.allclose(w, [3.0, 1.0, -2.0])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            hermitian_eigh(np.zeros((2, 3)))

    def test_sweep_exhaustion_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        monkeypatch.setattr(witness, "_JACOBI_SWEEPS", 0)
        with pytest.raises(NumericalFailure):
            hermitian_eigh(random_hermitian(rng, 4))

    def test_threshold_and_sweeps_are_not_arguments(self):
        # as arguments, tol=1.0 or max_sweeps=-1 returned the unrotated
        # diagonal [1, 1]
        w, v = hermitian_eigh([[1, 1], [1, 1]])
        assert np.allclose(w, [2, 0])
        assert np.allclose(np.abs(v), np.sqrt(0.5))
        for option in ({"tol": 1.0}, {"max_sweeps": -1}):
            with pytest.raises(TypeError):
                hermitian_eigh([[1, 1], [1, 1]], **option)

    def test_one_matrix_only(self):
        with pytest.raises(ValueError):
            hermitian_eigh(np.stack([np.eye(3), np.eye(3)]))
        with pytest.raises(ValueError):
            hermitian_eigh(np.ones(3))

    def test_matrix_kinds_decompose_without_warnings(self, monkeypatch):
        # a dense matrix, nearly diagonal ones (fewer sweeps, and tangents
        # so large that 1 + tau^2 rounds to tau^2), a block-diagonal one
        # whose cross-block rotations are all skipped, and a diagonal one
        # that is never rotated
        rng = np.random.default_rng(29)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in range(1, 13):
                dense = random_hermitian(rng, n)
                near = (np.diag(rng.standard_normal(n))
                        + 1e-9 * random_hermitian(rng, n))
                block = random_hermitian(rng, n)
                block[: n // 2, n // 2:] = 0
                block[n // 2:, : n // 2] = 0
                for m in (near, dense, block, 1e6 * near,
                          np.diag(np.arange(n, 0, -1.0))):
                    w, v = hermitian_eigh(m)
                    err = np.abs(m - (v * w) @ v.conj().T).max()
                    assert np.all(w[:-1] >= w[1:])
                    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
                    assert err < 1e-10 * max(1.0, np.abs(m).max())
        # the dense matrix needs more sweeps than the nearly diagonal one
        monkeypatch.setattr(witness, "_JACOBI_SWEEPS", 2)
        hermitian_eigh(near)
        with pytest.raises(NumericalFailure):
            hermitian_eigh(dense)


class TestSampleOrbit:
    def test_spectrum_matches(self):
        lam = [2.0, 0.5, 0.5, -3.0]
        m = sample_orbit(lam, seed=9)
        w, _ = hermitian_eigh(m)
        assert np.max(np.abs(w - lam)) < 1e-10

    def test_scalar_orbit_is_fixed(self):
        for seed in (0, 1, 2):
            m = sample_orbit([1.5, 1.5, 1.5], seed=seed)
            assert np.max(np.abs(m - 1.5 * np.eye(3))) < 1e-12

    def test_two_point_spectrum_invariants(self):
        m = sample_orbit([1.0, -1.0], seed=4)
        assert abs(np.trace(m)) < 1e-12
        assert abs(np.linalg.det(m).real + 1) < 1e-10

    def test_seed_determinism_and_variety(self):
        a = sample_orbit([1.0, 0.0, -1.0], seed=7)
        b = sample_orbit([1.0, 0.0, -1.0], seed=7)
        c = sample_orbit([1.0, 0.0, -1.0], seed=8)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-3
        wa, _ = hermitian_eigh(a)
        wc, _ = hermitian_eigh(c)
        assert np.max(np.abs(wa - wc)) < 1e-10

    def test_decreasing_required(self):
        with pytest.raises(ValueError):
            sample_orbit([0.0, 1.0], seed=0)
        with pytest.raises(ValueError):
            sample_orbit(list(range(13, 0, -1)), seed=0)


class TestProjectToOrbit:
    def test_fixed_point(self):
        m = sample_orbit([2.0, 1.0, -1.0], seed=3)
        p = project_to_orbit(m, [2.0, 1.0, -1.0])
        assert np.max(np.abs(p - m)) < 1e-9

    def test_diagonal_case(self):
        p = project_to_orbit(np.diag([2.0, 0.0]), [1.0, -1.0])
        assert np.max(np.abs(p - np.diag([1.0, -1.0]))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        x = random_hermitian(rng, 4)
        lam = [1.0, 0.5, -0.5, -1.0]
        p1 = project_to_orbit(x, lam)
        p2 = project_to_orbit(p1, lam)
        assert np.max(np.abs(p1 - p2)) < 1e-9

    def test_nearest_among_random_orbit_points(self):
        rng = np.random.default_rng(13)
        x = random_hermitian(rng, 3)
        lam = [1.0, 0.0, -2.0]
        p = project_to_orbit(x, lam)
        d0 = np.linalg.norm(x - p)
        for seed in range(25):
            q = sample_orbit(lam, seed=seed)
            assert np.linalg.norm(x - q) >= d0 - 1e-9

    def test_degenerate_input_lands_on_orbit(self):
        p = project_to_orbit(np.zeros((2, 2), dtype=complex), [1.0, -1.0])
        w, _ = hermitian_eigh(p)
        assert np.max(np.abs(w - [1.0, -1.0])) < 1e-10

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(17)
        xs = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        lams = np.sort(rng.standard_normal((6, 4)), axis=1)[:, ::-1]
        stacked = project_to_orbit(xs, lams)
        assert stacked.shape == xs.shape
        for x, lam, p in zip(xs, lams, stacked):
            assert np.max(np.abs(p - project_to_orbit(x, lam))) < 1e-12

    def test_stack_lands_on_orbits_by_jacobi(self):
        rng = np.random.default_rng(19)
        for r in range(1, 13):
            xs = np.stack([random_hermitian(rng, r) for _ in range(3)])
            lams = np.sort(rng.standard_normal((3, r)), axis=1)[:, ::-1]
            for p, lam in zip(project_to_orbit(xs, lams), lams):
                assert np.max(np.abs(p - p.conj().T)) == 0
                w, _ = hermitian_eigh(p)
                assert np.max(np.abs(w - lam)) < 1e-10

    def test_repeated_eigenvalues_land_on_orbit(self):
        # a degenerate input (eigenvalue 2 twice, 0 three times) and
        # degenerate targets: the eigenbasis is not unique, the image is
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(random_hermitian(rng, 5))
        x = (q * [2.0, 2.0, 0.0, 0.0, 0.0]) @ q.conj().T
        lams = np.array([[1.0, 1.0, 1.0, -2.0, -2.0],
                         [3.0, 0.5, 0.5, 0.5, 0.5],
                         [2.0, 2.0, 0.0, 0.0, 0.0]])
        stacked = project_to_orbit(np.stack([x, x, x]), lams)
        for p, lam in zip(stacked, lams):
            w, _ = hermitian_eigh(p)
            assert np.max(np.abs(w - lam)) < 1e-10
        # x already has the last spectrum, so it is its own projection
        assert np.max(np.abs(stacked[2] - x)) < 1e-10

    def test_stack_spectra_checked(self):
        with pytest.raises(ValueError):
            project_to_orbit(np.zeros((2, 2, 2)), [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (), (3, 2, 1)])
    def test_non_square_input_is_linalg_error(self, shape):
        # as numpy.linalg.eigh raised it
        with pytest.raises(np.linalg.LinAlgError):
            project_to_orbit(np.zeros(shape), [1.0, 0.0])

    def test_real_input_returns_complex(self):
        p = project_to_orbit(np.diag([2.0, 0.0]), [1.0, -1.0])
        assert p.dtype == np.complex128
        assert np.array_equal(p, project_to_orbit(np.diag([2.0, 0.0]) + 0j,
                                                  [1.0, -1.0]))


class TestKernel:
    """The search projects through numpy's LAPACK eigh gufunc, called
    directly under numpy.linalg.eigh's error state."""

    def test_equals_public_eigh(self):
        # the kernel is the gufunc numpy.linalg.eigh runs on complex
        # input, so the projections agree bit for bit
        rng = np.random.default_rng(31)
        for r in range(1, 13):
            q, _ = np.linalg.qr(random_hermitian(rng, r))
            repeated = (q * np.repeat([2.0, -1.0], [r // 2, r - r // 2])) \
                @ q.conj().T
            xs = np.stack([random_hermitian(rng, r) for _ in range(5)]
                          + [repeated, np.zeros((r, r), dtype=complex)])
            xs = xs.reshape(7, 1, r, r)
            lams = np.sort(rng.standard_normal((7, 1, r)), axis=-1)[..., ::-1]
            # repeated targets too: the top one r // 2 + 1 times
            lams[-2:, 0, : r // 2 + 1] = lams[-2:, 0, :1]
            ascending = lams[..., None, ::-1]
            with witness._eigh_errstate():
                got = witness._project(xs, ascending)
            ref = witness._conjugate(np.linalg.eigh(xs)[1], ascending)
            assert got.dtype == ref.dtype == np.complex128
            assert np.array_equal(got, ref)
            assert np.array_equal(project_to_orbit(xs, lams), ref)

    def test_invalid_flag_raises_and_error_state_is_restored(
            self, monkeypatch):
        # LAPACK non-convergence reaches numpy as the invalid flag
        kernel = witness._eigh_lo

        def failing(x, signature):
            result = kernel(x, signature=signature)
            np.sqrt(np.array(-1.0))
            return result

        monkeypatch.setattr(witness, "_eigh_lo", failing)

        def handler(err, flag):
            pass

        with np.errstate(call=handler, invalid="raise", over="warn",
                         divide="ignore", under="print"):
            state, call = np.geterr(), np.geterrcall()
            with pytest.raises(np.linalg.LinAlgError):
                find_witness([[1, -1]] * 3, 0, seed=2)
            with pytest.raises(np.linalg.LinAlgError):
                project_to_orbit(np.eye(2), [1.0, -1.0])
            assert np.geterr() == state and np.geterrcall() is call
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError):
            find_witness([[1, -1]] * 3, 0, seed=2, restarts=3)
        assert np.geterr() == before

    def test_search_leaves_error_state_alone(self):
        before, call = np.geterr(), np.geterrcall()
        assert find_witness([[1, -1]] * 3, 0, seed=2).converged
        assert np.geterr() == before and np.geterrcall() is call


class TestFindWitness:
    def test_member_converges(self):
        res = find_witness([[1, -1]] * 3, 0, seed=2)
        assert res.converged and res.residual <= 1e-8
        assert res.monotone

    def test_matches_hand_built_witness(self):
        # diag(1,-1), a reflection at 120 degrees and its complement sum
        # to zero, so the family is feasible
        a = np.diag([1.0, -1.0])
        b = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
        c = -(a + b)
        for m in (a, b, c):
            w, _ = hermitian_eigh(m)
            assert np.max(np.abs(w - [1.0, -1.0])) < 1e-12
        assert verify_witness([a, b, c], [[1, -1]] * 3, 0) < 1e-12

    def test_verify_takes_one_family(self):
        family = np.stack([np.diag([1.0, -1.0])] * 3)
        residual = verify_witness(family, [[1, -1]] * 3, 3)
        assert type(residual) is float and residual == 6.0
        with pytest.raises(ValueError):
            verify_witness(family[None], [[1, -1]] * 3, 3)
        with pytest.raises(ValueError):
            verify_witness(family[:2], [[1, -1]] * 3, 3)

    def test_non_member_never_converges(self):
        res = find_witness([[0, 0, 0], [0, 0, 0], [1, 0, -1]], 0, seed=2,
                           restarts=8)
        assert not res.converged
        assert res.residual > 0.5

    def test_facet_member_is_inconclusive_not_rejected(self):
        # an exact member sitting on a facet of the cone: the projections
        # approach the witness set monotonically but sublinearly, so the
        # search gives up without converging; that outcome is advisory
        # (inconclusive), never a non-membership certificate
        fractions = [
            [2.25, 2.0, -1.8],
            [2.5, -1.0, -1.5],
            [0.8, -1.0, -1.5],
        ]
        res = find_witness(fractions, 0.25, seed=2, max_iters=600, restarts=2)
        assert not res.converged
        assert res.monotone
        assert res.residual < 1e-2

    def test_scalar_family(self):
        res = find_witness([[2.5], [2.5], [2.5]], 7.5, seed=1)
        assert res.converged and res.residual < 1e-12

    def test_accepts_spectrum_family(self):
        fam = SpectrumFamily([[1, -1]] * 3, 0)
        res = find_witness(fam, seed=2)
        assert res.converged

    def test_converged_result_verifies_independently(self):
        res = find_witness([[2, 1, -1]] * 3, 2, seed=6)
        assert res.converged
        assert verify_witness(res.matrices, [[2, 1, -1]] * 3, 2) <= 1e-8

    def test_converged_result_confirmed_by_jacobi(self, monkeypatch):
        # the projections run on LAPACK; every spectrum a verification
        # recomputes goes through the independent Jacobi solver, one
        # matrix per call
        eigh_inputs = []
        verifications = []
        jacobi, verify = witness.hermitian_eigh, witness.verify_witness

        def counting_eigh(a, *args, **kwargs):
            eigh_inputs.append(np.array(a))
            return jacobi(a, *args, **kwargs)

        def counting_verify(matrices, *args):
            verifications.append(len(matrices))
            return verify(matrices, *args)

        monkeypatch.setattr(witness, "hermitian_eigh", counting_eigh)
        monkeypatch.setattr(witness, "verify_witness", counting_verify)
        res = find_witness([[2, 1, -1]] * 3, 2, seed=6)
        assert res.converged and res.iterations > 1
        assert verifications and len(eigh_inputs) == sum(verifications)
        assert all(m.shape == (3, 3) for m in eigh_inputs)
        for m, seen in zip(res.matrices, eigh_inputs[-3:]):
            assert np.array_equal(m, seen)

    @pytest.mark.parametrize("option", [{"restarts": 0}, {"restarts": -3},
                                        {"max_iters": 0}, {"tol": 0.0},
                                        {"tol": -1.0}, {"tol": float("nan")},
                                        {"tol": float("inf")}])
    def test_out_of_range_options_raise(self, option):
        with pytest.raises(ValueError):
            find_witness([[1, -1]] * 3, 0, seed=2, **option)

    @pytest.mark.parametrize("option", [{"restarts": 2.5},
                                        {"max_iters": 300.5},
                                        {"seed": 1.5}, {"seed": 2.0}])
    def test_non_integral_options_raise_before_any_attempt(self, option,
                                                           monkeypatch):
        check_no_attempt(monkeypatch, [[1, -1]] * 3, 0, **option)

    @pytest.mark.parametrize("option", ["restarts", "max_iters", "seed",
                                        "tol"])
    def test_bool_options_raise_before_any_attempt(self, option,
                                                   monkeypatch):
        # restarts=True ran one attempt: a bool is an Integral
        for value in (True, np.True_):
            check_no_attempt(monkeypatch, [[1, -1]] * 3, 0, **{option: value})

    def test_numpy_integer_options(self, monkeypatch):
        monkeypatch.setattr(witness, "_STALL_WINDOW", 20)
        family = [[0, 0], [0, 0], [1, -1]]
        options = {"restarts": 3, "max_iters": 40, "seed": 2}
        plain = find_witness(family, 0, **options)
        for kind in (np.int64, np.int32):
            res = find_witness(family, 0, **{k: kind(v)
                                             for k, v in options.items()})
            assert res.to_json() == plain.to_json()
            assert type(res.attempts) is int

    @pytest.mark.parametrize("spectra", [[], [[1, -1], [1, 0, -1]]])
    def test_empty_or_ragged_family_raises(self, spectra):
        with pytest.raises(ValueError):
            find_witness(spectra, 0)

    def test_attempts_are_the_restarts(self):
        res = find_witness([[0, 0], [0, 0], [1, -1]], 0, seed=2, restarts=3,
                           max_iters=40)
        assert not res.converged and res.attempts == 3

    def test_residual_log(self):
        log = io.StringIO()
        find_witness([[1, -1]] * 3, 0, seed=2, residual_log=log)
        lines = log.getvalue().strip().split("\n")
        assert lines[0] == "attempt,iteration,residual"
        assert len(lines) > 2
        attempt, iteration, residual = lines[1].split(",")
        float(residual)

    def test_json_output(self):
        res = find_witness([[1, -1]] * 3, 0, seed=2)
        data = res.to_json()
        assert data["converged"] is True
        entry = data["matrices"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2


class TestStackedSearch:
    """The search runs attempts 1.. as one stack; it returns bit for bit
    what running the attempts one after another returns."""

    # Weyl-breaking non-members: a top eigenvalue of 5 where A + B + C = 0
    # allows at most 2
    RANK6 = [[5, 0, 0, 0, 0, -5], [1, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, -1]]
    RANK8 = [[5] + [0] * 6 + [-5], [1] + [0] * 6 + [-1], [1] + [0] * 6 + [-1]]
    # a member whose attempt 0 reaches max_iters: in the stack attempt 2
    # converges at iteration 36 while attempt 1 runs on to the cap
    LATE = [[5.089, 0.304, -3.393], [3.36, 0.355, -6.715],
            [6.21, -0.384, -4.826]]
    CASES = {
        "member": ([[1, -1]] * 3, 0, {"seed": 2}),
        "non_member": ([[0, 0, 0], [0, 0, 0], [1, 0, -1]], 0,
                       {"seed": 2, "restarts": 8}),
        "member_one_restart": ([[2, 1, -1]] * 3, 2,
                               {"seed": 6, "restarts": 1}),
        "non_member_one_restart": ([[0, 0], [0, 0], [1, -1]], 0,
                                   {"seed": 2, "restarts": 1}),
        "facet_two_restarts": ([[2.25, 2.0, -1.8], [2.5, -1.0, -1.5],
                                [0.8, -1.0, -1.5]], 0.25,
                               {"seed": 2, "max_iters": 600, "restarts": 2}),
        "capped_two_restarts": (LATE, 0, {"max_iters": 60, "restarts": 2}),
        "later_attempt": (LATE, 0, {"max_iters": 60, "restarts": 6}),
        # a boundary member: attempt 1 converges after attempts above it
        # have stalled and left the stack
        "higher_attempts_stall_first": ([[4, -1, -2], [1, -3, -4],
                                         [4, 2, -4]], -1,
                                        {"seed": 83, "stall_window": 30,
                                         "max_iters": 3000,
                                         "restarts": 10}),
        # non-members whose stalled families are verified only while they
        # can still win: attempt 0 with the first wave, then each wave
        "rank6_two_waves": (RANK6, 0, {"seed": 3, "restarts": 40}),
        "rank8": (RANK8, 0, {"seed": 5, "restarts": 20}),
        # a rank-4 member with the options of the benchmark's witness
        # searches
        "rank4_benchmark_options": ([[2.7, -0.42, -2.17, -3.63],
                                     [2.05, 0.58, -0.22, -2.73],
                                     [6.43, 4.01, 1.76, -0.36]], 2,
                                    {"seed": 1, "tol": 1e-6,
                                     "max_iters": 500}),
    }

    # with waves of two: attempts 0 | 1 2 | 3 4 | 5 6 | 7 8 | ...
    WAVE_CASES = {
        "non_member": ([[0, 0, 0], [0, 0, 0], [1, 0, -1]], 0,
                       {"seed": 2, "restarts": 7}),
        # attempt 8 converges, the last of the fifth wave
        "member_last_of_a_wave": (LATE, 0, {"seed": 4, "max_iters": 40,
                                            "restarts": 12}),
        # attempt 5 converges, the first of the fourth wave
        "member_first_of_a_wave": (LATE, 0, {"seed": 5, "max_iters": 40,
                                             "restarts": 9}),
        # the trace fails by 2, so every attempt stalls near ||sum - t*I||
        # = sqrt(2); attempts 3 and 4, one wave, tie at the lowest bound
        # and residual, and attempt 3 wins
        "bound_tie": ([[1, -1]] * 3, 1, {"seed": 9, "restarts": 7}),
    }
    STALL = [[3, 0, -3], [1, 0, -1], [1, 0, -1]]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_serial_search(self, case, monkeypatch):
        self.check_serial(*self.CASES[case], monkeypatch)

    @pytest.mark.parametrize("case", sorted(WAVE_CASES))
    def test_waves_equal_serial_search(self, case, monkeypatch):
        monkeypatch.setattr(witness, "_WAVE", 2)
        self.check_serial(*self.WAVE_CASES[case], monkeypatch)

    def check_serial(self, spectra, t, options, monkeypatch):
        # the search's stall window is a module constant, the oracle's an
        # argument
        options = dict(options)
        window = options.pop("stall_window", witness._STALL_WINDOW)
        monkeypatch.setattr(witness, "_STALL_WINDOW", window)
        log, serial_log = io.StringIO(), io.StringIO()
        res = find_witness(spectra, t, residual_log=log, **options)
        ref = serial_find_witness(spectra, t, residual_log=serial_log,
                                  stall_window=window, **options)
        assert len(res.matrices) == len(ref.matrices)
        for m, m_ref in zip(res.matrices, ref.matrices):
            assert np.array_equal(m, m_ref)
        assert res.residual == ref.residual
        assert (res.iterations, res.attempts, res.converged, res.monotone) \
            == (ref.iterations, ref.attempts, ref.converged, ref.monotone)
        assert log.getvalue() == serial_log.getvalue()

    def test_memory_does_not_grow_with_restarts(self, monkeypatch):
        monkeypatch.setattr(witness, "_WAVE", 2)

        def peak(restarts):
            tracemalloc.start()
            try:
                res = find_witness(self.STALL, 3, seed=1, max_iters=40,
                                   restarts=restarts)
                assert not res.converged
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # lazy imports and first-use caches
        # each restart held at once would add about 5 KB
        assert peak(81) < peak(5) + 4096

    def test_twenty_restarts_verify_only_families_that_can_win(
            self, monkeypatch):
        # the CLI default runs as one wave after attempt 0; Jacobi verifies
        # the stalled families in increasing order of ||sum - t*I||, a
        # lower bound on the residual, while it does not exceed the best
        # residual found
        waves, verified = [], []
        wave, verify = witness._wave, witness.verify_witness

        def counting_wave(indices, *args):
            waves.append(list(indices))
            return wave(indices, *args)

        def counting_verify(matrices, *args):
            residual = verify(matrices, *args)
            bound = np.linalg.norm(np.sum(matrices, axis=0) - 3 * np.eye(3))
            verified.append((bound, residual))
            return residual

        monkeypatch.setattr(witness, "_wave", counting_wave)
        monkeypatch.setattr(witness, "verify_witness", counting_verify)
        log = io.StringIO()
        res = find_witness(self.STALL, 3, seed=1, max_iters=40, restarts=20,
                           residual_log=log)
        assert not res.converged
        assert waves == [[0], list(range(1, 20))]
        last = {}
        for line in log.getvalue().split()[1:]:
            attempt, _, residual = line.split(",")
            last[int(attempt)] = float(residual)
        bounds = [bound for bound, _ in verified]
        assert bounds == sorted(bounds) and 0 < len(bounds) < 20
        for i in range(1, len(verified)):
            assert bounds[i] <= min(r for _, r in verified[:i])
        skipped = sorted(last.values())
        for bound in bounds:
            skipped.remove(bound)
        assert all(bound > res.residual for bound in skipped)

    def test_later_attempt_converges_while_a_lower_one_runs(self):
        log = io.StringIO()
        res = find_witness(self.LATE, 0, residual_log=log, max_iters=60,
                           restarts=6)
        runs = {}
        for line in log.getvalue().split()[1:]:
            attempt = int(line.split(",")[0])
            runs[attempt] = runs.get(attempt, 0) + 1
        assert res.converged and res.attempts == 3
        assert runs == {0: 60, 1: 60, 2: 36}
        assert res.iterations == 156


class TestBools:
    """float() reads a bool as 0 or 1; SpectrumFamily rejects bools and
    so does every witness entry point."""

    BAD_SPECTRA = [[True, False], [1, False], [True, 0.5],
                   np.array([True, False]), [np.True_, 0.0],
                   np.array([True, 0.5], dtype=object)]

    @pytest.mark.parametrize("t", [True, False, np.True_, np.array(True)])
    def test_t(self, t, monkeypatch):
        # find_witness([[1, -1]] * 3, True) ran with t = 1.0
        check_no_attempt(monkeypatch, [[1, -1]] * 3, t)
        with pytest.raises(ValueError):
            verify_witness(np.zeros((3, 2, 2)), [[1, -1]] * 3, t)

    @pytest.mark.parametrize("bad", BAD_SPECTRA)
    def test_spectrum_entries(self, bad, monkeypatch):
        check_no_attempt(monkeypatch, [[1, -1], [1, -1], bad], 0)
        # verify_witness(np.zeros((3, 2, 2)), [[True, False]] * 3, True)
        # returned 1.414
        with pytest.raises(ValueError):
            verify_witness(np.zeros((3, 2, 2)), [[1, -1], [1, -1], bad], 0)
        with pytest.raises(ValueError):
            sample_orbit(bad)
        with pytest.raises(ValueError):
            project_to_orbit(np.eye(2), bad)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spectrum(self, bad):
        spectrum = [bad, 0.0] if bad != -math.inf else [0.0, bad]
        with pytest.raises(ValueError):
            find_witness([spectrum] * 3, 0)
        with pytest.raises(ValueError):
            sample_orbit(spectrum)
        with pytest.raises(ValueError):
            project_to_orbit(np.eye(2), spectrum)
        with pytest.raises(ValueError):
            verify_witness([np.eye(2)] * 3, [spectrum] * 3, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_t(self, bad):
        with pytest.raises(ValueError):
            find_witness([[1, -1]] * 3, bad)
        with pytest.raises(ValueError):
            verify_witness([np.eye(2)] * 3, [[1, -1]] * 3, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrix(self, bad):
        a = np.eye(3, dtype=complex)
        a[0, 2] = bad
        with pytest.raises(ValueError):
            hermitian_eigh(a)
        with pytest.raises(ValueError):
            hermitian_eigh(np.diag([1.0, bad]))


class TestMagnitude:
    """Spectra whose own arithmetic overflows float64 are refused before
    any attempt runs, with the bound in the message."""

    @pytest.mark.parametrize("value", [1e300, 1.7e308])
    def test_huge_spectra(self, value, monkeypatch):
        # at 1e300 the search returned residual inf; at 1.7e308 it raised
        # LinAlgError("Eigenvalues did not converge")
        spectra = [[value, -value]] * 3
        check_no_attempt(monkeypatch, spectra, 0)
        with pytest.raises(ValueError, match=r"at most 1\.25e\+149"):
            find_witness(spectra, 0, restarts=2, max_iters=200)
        with pytest.raises(ValueError, match=r"at most 1\.25e\+149"):
            verify_witness(np.zeros((3, 2, 2)), spectra, 0)

    def test_huge_t(self, monkeypatch):
        check_no_attempt(monkeypatch, [[1, -1]] * 3, 1e300)
        with pytest.raises(ValueError, match="in magnitude"):
            verify_witness(np.zeros((3, 2, 2)), [[1, -1]] * 3, 1e300)

    @pytest.mark.parametrize("s, r", [(3, 2), (3, 4), (5, 12)])
    def test_bound_is_accepted_and_does_not_overflow(self, s, r):
        # at the bound no entry of sum - t*I exceeds 1e150 / r, so the
        # residuals stay finite, with RuntimeWarning an error or not
        bound = 1e150 / (r * (s + 1))
        spectra = [[bound] + [0.0] * (r - 2) + [-bound]] * s
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = find_witness(spectra, bound, restarts=2, max_iters=50)
            assert math.isfinite(res.residual)
            assert math.isfinite(verify_witness(res.matrices, spectra, bound))
        with pytest.raises(ValueError):
            find_witness(spectra, bound * 1.01, restarts=2, max_iters=50)

"""Spectral representation against dense linear-algebra oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    STRESS_CASES,
    dense_smoother,
    member_matrix,
    random_problem,
    random_spd,
    stress_problem,
)

from qagg import spectral
from qagg.aggregate import SimplexWeights, make_weights, member_fits, solve_q_aggregation
from qagg.smoother import FamilyUnion, GroundTruth
from qagg.spectral import (
    GRAM_TOL,
    DesignProblem,
    SpectralFamily,
    apply_member,
    apply_weights,
    build_tikhonov_family,
    recover_coefficients,
)


class TestDesignProblem:
    def test_lambdas_are_sorted(self):
        problem = DesignProblem(X=np.eye(3), K=np.eye(3), lambdas=[2.0, 0.5, 1.0])
        assert np.array_equal(problem.lambdas, [0.5, 1.0, 2.0])

    def test_duplicate_lambdas_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignProblem(X=np.eye(3), K=np.eye(3), lambdas=[1.0, 1.0, 2.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            DesignProblem(X=np.eye(3), K=np.eye(3), lambdas=[-1.0])

    def test_asymmetric_penalty_rejected(self):
        K = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            DesignProblem(X=np.eye(2), K=K, lambdas=[1.0])

    def test_indefinite_penalty_reports_eigenvalue(self):
        K = np.diag([1.0, -2.0])
        with pytest.raises(ValueError, match="(?s)not positive definite.*-2"):
            DesignProblem(X=np.eye(2), K=K, lambdas=[1.0])

    def test_singular_penalty_reports_eigenvalue(self):
        with pytest.raises(ValueError, match=r"not positive definite \(smallest eigenvalue"):
            DesignProblem(X=np.eye(2), K=np.diag([1.0, 0.0]), lambdas=[1.0])

    def test_penalty_factor_is_cholesky(self, rng):
        K = random_spd(rng, 5)
        L = DesignProblem(X=np.eye(5), K=K, lambdas=[1.0]).penalty_factor
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.T - K).max() < 1e-12

    @pytest.mark.parametrize("shape", [(0, 3), (6, 0)])
    def test_empty_design_rejected_before_the_penalty(self, shape):
        # K = eye(3) does not match a 6 x 0 design: the design is reported first
        with pytest.raises(ValueError, match=rf"a row and a column, got shape \({shape[0]}, "):
            DesignProblem(X=np.zeros(shape), K=np.eye(3), lambdas=[1.0])

    def test_penalty_shape_must_match_design(self):
        with pytest.raises(ValueError, match="penalty matrix must be"):
            DesignProblem(X=np.ones((4, 3)), K=np.eye(2), lambdas=[1.0])

    def test_inputs_are_immutable(self):
        problem = DesignProblem(X=np.eye(2), K=np.eye(2), lambdas=[1.0])
        with pytest.raises(ValueError):
            problem.X[0, 0] = 5.0

    def test_writeable_design_is_copied(self, rng):
        X = rng.standard_normal((6, 3))
        problem = DesignProblem(X=X, K=np.eye(3), lambdas=[1.0])
        kept = problem.X.copy()
        X[0, 0] += 1.0
        assert np.array_equal(problem.X, kept)
        assert not np.shares_memory(problem.X, X)

    def test_read_only_design_is_shared(self, rng):
        X = rng.standard_normal((6, 3))
        X.setflags(write=False)
        assert np.shares_memory(DesignProblem(X=X, K=np.eye(3), lambdas=[1.0]).X, X)

    def test_read_only_view_of_a_writeable_array_is_copied(self, rng):
        base = rng.standard_normal(18)
        X = base.reshape(6, 3)
        X.setflags(write=False)
        assert not np.shares_memory(DesignProblem(X=X, K=np.eye(3), lambdas=[1.0]).X, base)

    def test_exactly_symmetric_read_only_penalty_is_shared(self, rng):
        K = random_spd(rng, 4)
        K = 0.5 * (K + K.T)
        K.setflags(write=False)
        assert np.shares_memory(DesignProblem(X=np.eye(4), K=K, lambdas=[1.0]).K, K)

    def test_writeable_penalty_is_copied(self, rng):
        K = random_spd(rng, 4)
        K = 0.5 * (K + K.T)
        problem = DesignProblem(X=np.eye(4), K=K, lambdas=[1.0])
        assert K.flags.writeable  # the caller's flags are left alone
        assert not np.shares_memory(problem.K, K)
        assert np.array_equal(problem.K, K)

    def test_slightly_asymmetric_penalty_is_symmetrized(self, rng):
        K = random_spd(rng, 4)
        K = 0.5 * (K + K.T)
        K[0, 1] += 1e-12
        K.setflags(write=False)
        problem = DesignProblem(X=np.eye(4), K=K, lambdas=[1.0])
        assert np.array_equal(problem.K, 0.5 * (K + K.T))
        assert not np.array_equal(problem.K, K)


class TestBuildTikhonovFamily:
    def test_identity_design_lambda_zero_is_identity(self):
        problem = DesignProblem(X=np.eye(2), K=np.eye(2), lambdas=[0.0])
        family = build_tikhonov_family(problem)
        np.testing.assert_allclose(family.alphas, [[1.0, 1.0]])
        np.testing.assert_allclose(member_matrix(family, 0), np.eye(2), atol=1e-12)

    def test_identity_design_lambda_one_halves(self):
        problem = DesignProblem(X=np.eye(2), K=np.eye(2), lambdas=[1.0])
        family = build_tikhonov_family(problem)
        np.testing.assert_allclose(family.alphas, [[0.5, 0.5]], atol=1e-14)

    def test_matches_dense_solve(self, rng):
        X = rng.standard_normal((5, 3))
        K = np.diag([1.0, 2.0, 3.0])
        problem = DesignProblem(X=X, K=K, lambdas=[0.5, 2.0])
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(5)
        for j, lam in enumerate(problem.lambdas):
            expected = dense_smoother(X, K, lam) @ y
            assert np.abs(apply_member(family, j, y) - expected).max() < 1e-8

    def test_eigenvalue_law(self, rng):
        for _ in range(10):
            problem = random_problem(rng, n=9, p=5, M=4)
            family = build_tikhonov_family(problem)
            mu2 = family.sing_vals**2
            expected = mu2[None, :] / (mu2[None, :] + problem.lambdas[:, None])
            assert np.abs(family.alphas - expected).max() < 1e-12

    def test_eigenvalues_monotone_in_lambda(self, rng):
        for _ in range(10):
            problem = random_problem(rng, n=8, p=6, M=5)
            family = build_tikhonov_family(problem)
            assert np.all(np.diff(family.alphas, axis=0) <= 1e-15)

    def test_basis_orthonormal(self, rng):
        family = build_tikhonov_family(random_problem(rng, n=12, p=7, M=3))
        gram = family.basis.T @ family.basis
        assert np.abs(gram - np.eye(family.rank)).max() < 1e-10

    def test_rank_deficient_lambda_zero_is_min_norm_fit(self, rng):
        X = rng.standard_normal((6, 4))
        X[:, 3] = X[:, 0] + X[:, 1]  # rank 3
        problem = DesignProblem(X=X, K=np.eye(4), lambdas=[0.0, 1.0])
        family = build_tikhonov_family(problem)
        assert family.rank == 3
        y = rng.standard_normal(6)
        expected = X @ np.linalg.pinv(X) @ y
        assert np.abs(apply_member(family, 0, y) - expected).max() < 1e-10


def ill_conditioned_design(rng, n, p, cond):
    """An n x p design whose singular values run geometrically from 1 to 1/cond."""
    left, _ = np.linalg.qr(rng.standard_normal((n, p)))
    right, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (left * np.geomspace(1.0, 1.0 / cond, p)) @ right.T


# Each stress case with the route the certificate sends it down.
STRESS_ROUTES = {
    "lambda0-rank-deficient": "svd",
    "n-below-p": "svd",
    "single-member": "gram",
    "zero-response": "gram",
    "near-duplicate-lambdas": "gram",
}


class TestFactorizationRoutes:
    """Each route of the family build against a dense oracle at the AC-1 tolerance."""

    @staticmethod
    def assert_matches_dense(problem, family, y):
        for j, lam in enumerate(problem.lambdas):
            if lam == 0.0:  # the minimum-norm least-squares fit
                expected = problem.X @ np.linalg.pinv(problem.X) @ y
            else:
                expected = dense_smoother(problem.X, problem.K, lam) @ y
            assert np.abs(apply_member(family, j, y) - expected).max() < 1e-8

    @pytest.mark.parametrize("n, p", [(40, 8), (160, 70)])  # 70 > 64: L^{-1} is built by halves
    def test_well_conditioned_takes_gram(self, rng, n, p):
        problem = random_problem(rng, n=n, p=p, M=6)
        family = build_tikhonov_family(problem)
        assert family.factorization == "gram"
        assert family.orthogonality_defect <= GRAM_TOL
        self.assert_matches_dense(problem, family, rng.standard_normal(n))

    @pytest.mark.parametrize("p", [1, 63, 64, 150])
    def test_triangular_inverse(self, rng, p):
        L = np.linalg.cholesky(random_spd(rng, p, cond=1e3))
        L_inv = spectral._tril_inv(L)
        assert np.array_equal(L_inv, np.tril(L_inv))
        assert np.abs(L_inv @ L - np.eye(p)).max() < 1e-12

    @pytest.mark.parametrize("p", [1, 50, 64, 150])
    @pytest.mark.parametrize("exponent", [0.0, 1.5, 3.0])  # identity and diag-power penalties
    def test_diagonal_inverse_is_the_general_inverse(self, p, exponent):
        L = np.linalg.cholesky(np.diag(np.arange(1.0, p + 1.0) ** exponent))
        assert spectral._tril_inv(L).tobytes() == np.linalg.inv(L).tobytes()

    def test_ill_conditioned_takes_svd(self, rng):
        X = ill_conditioned_design(rng, 30, 6, cond=1e6)
        problem = DesignProblem(X=X, K=np.eye(6), lambdas=np.geomspace(1e-4, 10.0, 5))
        family = build_tikhonov_family(problem)
        assert family.factorization == "svd"
        assert family.rank == 6
        self.assert_matches_dense(problem, family, rng.standard_normal(30))

    def test_gram_screen_passes_but_certificate_fails(self, rng):
        # kappa(B) = 1e4 clears mu_min^2 > GRAM_TOL * mu_max^2, but its defect is near u * 1e8
        X = ill_conditioned_design(rng, 200, 50, cond=1e4)
        problem = DesignProblem(X=X, K=np.eye(50), lambdas=[1e-3, 1.0])
        family = build_tikhonov_family(problem)
        assert family.factorization == "svd"
        self.assert_matches_dense(problem, family, rng.standard_normal(200))

    @pytest.mark.parametrize("case", STRESS_CASES)
    def test_stress_families(self, rng, case):
        X, y, lambdas = stress_problem(rng, case)
        problem = DesignProblem(X=X, K=np.eye(X.shape[1]), lambdas=lambdas)
        family = build_tikhonov_family(problem)
        assert family.factorization == STRESS_ROUTES[case]
        self.assert_matches_dense(problem, family, y + rng.standard_normal(y.size))

    @pytest.mark.parametrize("n, p", [(30, 7), (160, 70)])  # at 70, L^{-1} is built by halves
    def test_routes_give_the_same_family(self, rng, monkeypatch, n, p):
        problem = random_problem(rng, n=n, p=p, M=4)
        gram = build_tikhonov_family(problem)
        monkeypatch.setattr(spectral, "GRAM_TOL", 0.0)  # no defect is certified: L^{-1} rebuilt
        svd = build_tikhonov_family(problem)
        assert (gram.factorization, svd.factorization) == ("gram", "svd")
        for family in (gram, svd):  # U = X R^T / mu with R = V^T L^{-1}
            implied = problem.X @ family.right_factor.T / family.sing_vals
            assert np.abs(implied - family.basis).max() < 1e-12
        assert np.abs(gram.sing_vals - svd.sing_vals).max() < 1e-12 * svd.sing_vals[0]
        # basis vectors are oriented alike, so the two bases agree entrywise
        assert np.abs(gram.basis - svd.basis).max() < 1e-12
        scale = np.abs(svd.right_factor).max()
        assert np.abs(gram.right_factor - svd.right_factor).max() < 1e-12 * scale

    def test_synthetic_family_computes_its_defect(self):
        family = SpectralFamily(np.eye(3)[:, :2], [[0.5, 0.5]])
        assert family.orthogonality_defect == 0.0
        build = (family.sing_vals, family.right_factor, family.lambdas, family.factorization)
        assert build == (None, None, None, None)

    @pytest.mark.parametrize("basis", ["orthonormal", "perturbed", "empty"])
    def test_defect_matches_its_definition_bitwise(self, rng, basis):
        U = {
            "orthonormal": np.linalg.qr(rng.standard_normal((40, 7)))[0],
            "perturbed": np.linalg.qr(rng.standard_normal((40, 7)))[0]
            + 1e-6 * rng.standard_normal((40, 7)),
            "empty": np.zeros((40, 0)),
        }[basis]
        expected = np.abs(U.T @ U - np.eye(U.shape[1])).max(initial=0.0)
        assert spectral._orthogonality_defect(U) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="member eigenvalues must be finite"):
            SpectralFamily(np.eye(3)[:, :2], [[0.5, bad]])

    def test_family_without_members_rejected(self):
        with pytest.raises(ValueError, match="at least one member, got 0"):
            SpectralFamily(np.eye(3)[:, :2], np.zeros((0, 2)))

    @pytest.mark.parametrize("name", ["family_id", "sing_vals", "right_factor", "lambdas",
                                      "factorization", "fitted", "response"])
    def test_constructors_take_only_their_inputs(self, name):
        with pytest.raises(TypeError, match=name):
            if name in ("fitted", "response"):
                SimplexWeights([0.5, 0.5], **{name: None})
            else:
                SpectralFamily(np.eye(3)[:, :2], [[0.5, 0.5]], **{name: None})

    def test_build_takes_only_the_problem(self, rng):
        with pytest.raises(TypeError):
            build_tikhonov_family(random_problem(rng, n=6, p=3, M=2), "tikhonov")

    def test_array_holding_types_compare_by_identity(self, rng):
        problem = random_problem(rng, n=30, p=7, M=4)
        y = rng.standard_normal(30)
        builds = []
        for _ in range(2):  # two builds of one problem: equal arrays, distinct objects
            family = build_tikhonov_family(problem)
            report = solve_q_aggregation(family, y, 1.0)
            builds.append((DesignProblem(X=problem.X, K=problem.K, lambdas=problem.lambdas),
                           family, FamilyUnion.of(family), report, report.weights,
                           GroundTruth(mu=y, sigma=1.0)))
        for a, b in zip(*builds):
            assert a == a and not a != a and hash(a) == hash(a)
            assert a != b and not a == b and len({a, b}) == 2, type(a).__name__

    def test_build_attaches_its_arrays_read_only_without_copies(self, rng, monkeypatch):
        made = {}
        attach = spectral._family

        def spy(U, mu, right, kind, defect, lambdas):
            made.update(sing_vals=mu, right_factor=right, lambdas=lambdas)
            return attach(U, mu, right, kind, defect, lambdas)

        monkeypatch.setattr(spectral, "_family", spy)
        family = build_tikhonov_family(random_problem(rng, n=12, p=5, M=4))
        for name, array in made.items():
            kept = getattr(family, name)
            assert kept is array and not kept.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0

    @pytest.mark.parametrize("shape, scale", [((3, 6), 1e200), ((6, 3), 1e160)])
    def test_overflowing_squares_rejected_without_warnings(self, rng, shape, scale):
        # mu^2 overflows, so every alpha = mu^2 / (mu^2 + lambda) is nan: on the SVD route
        # (n < p) and where B^T B itself overflows (n >= p)
        X = scale * rng.standard_normal(shape)
        problem = DesignProblem(X=X, K=np.eye(shape[1]), lambdas=[1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="member eigenvalues must be finite"):
                build_tikhonov_family(problem)

    def test_caller_cannot_set_the_defect(self):
        basis = [[1.0, 0.9], [0.0, 0.5], [0.0, 0.0]]
        with pytest.raises(TypeError, match="orthogonality_defect"):
            SpectralFamily(basis, [[0.5, 0.5]], orthogonality_defect=0.0)
        with pytest.raises(ValueError, match="not orthonormal"):
            SpectralFamily(basis, [[0.5, 0.5]])

    def test_gram_build_measures_the_defect_once(self, rng, monkeypatch):
        calls = []
        measure = spectral._orthogonality_defect
        monkeypatch.setattr(
            spectral, "_orthogonality_defect", lambda U: calls.append(1) or measure(U)
        )
        family = build_tikhonov_family(random_problem(rng, n=40, p=8, M=5))
        assert family.factorization == "gram"
        assert len(calls) == 1

    def test_regrid_equals_a_fresh_build(self, rng, monkeypatch):
        problem = random_problem(rng, n=30, p=7, M=4)
        f = build_tikhonov_family(problem)
        other = DesignProblem(X=problem.X, K=problem.K, lambdas=np.geomspace(1e-3, 1e3, 9))
        fresh = build_tikhonov_family(other)
        monkeypatch.setattr(spectral, "_orthogonality_defect", None)  # reused, not re-measured
        regrid = spectral._regrid(f, other.lambdas)
        for name in ("basis", "sing_vals", "alphas", "right_factor", "lambdas"):
            assert np.array_equal(getattr(regrid, name), getattr(fresh, name)), name
        assert regrid.orthogonality_defect == fresh.orthogonality_defect
        assert regrid.factorization == fresh.factorization
        assert regrid.basis is f.basis and regrid.right_factor is f.right_factor
        assert regrid.sing_vals is f.sing_vals

    def test_build_holds_at_most_two_design_sized_arrays(self, rng):
        # B = X L^{-T} and U; the read-only X is kept, not copied, and U is not copied again
        n, p = 600, 150
        X = rng.standard_normal((n, p))
        X.setflags(write=False)
        K, lambdas = random_spd(rng, p), np.geomspace(1e-2, 1e2, 20)
        tracemalloc.start()
        try:
            family = build_tikhonov_family(DesignProblem(X=X, K=K, lambdas=lambdas))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family.factorization == "gram"
        assert peak <= 2 * X.nbytes + 10 * p * p * 8, peak / X.nbytes

    @pytest.mark.parametrize("n, p", [(2000, 100), (800, 200)])
    def test_build_holds_one_design_sized_array(self, rng, n, p):
        # the Gram route never forms B = X L^{-T}; V and L^{-1} are freed once R = V^T L^{-1}
        # is formed, so U = X R^T / mu meets only R and the r x r defect array
        X = rng.standard_normal((n, p))
        X.setflags(write=False)
        K, lambdas = random_spd(rng, p), np.geomspace(1e-2, 1e2, 20)
        problem = DesignProblem(X=X, K=K, lambdas=lambdas)
        tracemalloc.start()
        try:
            family = build_tikhonov_family(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family.factorization == "gram"
        assert peak <= X.nbytes + 2.5 * p * p * 8, (peak - X.nbytes) / (p * p * 8)


class TestApplyMember:
    def test_zero_smoother_returns_zero(self):
        family = SpectralFamily(np.eye(3)[:, :2], [[0.0, 0.0]])
        np.testing.assert_array_equal(apply_member(family, 0, np.ones(3)), np.zeros(3))

    def test_identity_on_range(self, rng):
        problem = DesignProblem(
            X=rng.standard_normal((5, 3)), K=np.eye(3), lambdas=[0.0]
        )
        family = build_tikhonov_family(problem)
        y = family.basis @ rng.standard_normal(family.rank)  # y in span(U)
        np.testing.assert_allclose(apply_member(family, 0, y), y, atol=1e-12)

    def test_contraction(self, rng):
        for _ in range(10):
            family = build_tikhonov_family(random_problem(rng, n=10, p=6, M=4))
            y = rng.standard_normal(10)
            for j in range(family.member_count):
                assert np.linalg.norm(apply_member(family, j, y)) <= np.linalg.norm(y) + 1e-12

    def test_dimension_mismatch(self, small_family):
        _, family = small_family
        with pytest.raises(ValueError, match="length 5"):
            apply_member(family, 0, np.ones(4))

    def test_index_bounds(self, small_family):
        _, family = small_family
        with pytest.raises(IndexError):
            apply_member(family, 3, np.ones(5))


class TestRecoverCoefficients:
    def test_vertex_recovers_single_member(self, rng, small_family):
        problem, family = small_family
        y = rng.standard_normal(5)
        weights = make_weights(family, np.array([1.0, 0.0, 0.0]), y)
        expected = np.linalg.solve(
            problem.X.T @ problem.X + problem.lambdas[0] * problem.K, problem.X.T @ y
        )
        np.testing.assert_allclose(recover_coefficients(family, weights), expected, atol=1e-10)

    def test_even_mixture_averages_ridge_coefficients(self, rng):
        X = rng.standard_normal((6, 1))
        problem = DesignProblem(X=X, K=np.eye(1), lambdas=[0.5, 3.0])
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(6)
        weights = make_weights(family, np.array([0.5, 0.5]), y)
        singles = [
            np.linalg.solve(X.T @ X + lam * np.eye(1), X.T @ y) for lam in problem.lambdas
        ]
        np.testing.assert_allclose(
            recover_coefficients(family, weights), 0.5 * (singles[0] + singles[1]), atol=1e-12
        )

    def test_coefficients_reproduce_aggregate_fit(self, rng, small_family):
        problem, family = small_family
        y = rng.standard_normal(5)
        theta = np.array([0.3, 0.7, 0.0])
        weights = make_weights(family, theta, y)
        w_tilde = recover_coefficients(family, weights)
        assert np.linalg.norm(problem.X @ w_tilde - apply_weights(family, theta, y)) < 1e-10

    def test_weights_off_the_simplex_fit_as_renormalized(self, rng):
        X = rng.standard_normal((8, 3))
        problem = DesignProblem(X=X, K=np.eye(3), lambdas=[0.1, 1.0, 10.0])
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(8)
        weights = make_weights(family, np.array([0.5, 0.4, 0.0]), y)
        theta = np.array([5.0, 4.0, 0.0]) / 9.0
        np.testing.assert_allclose(weights.theta, theta, rtol=1e-15)
        want = member_fits(family, y).T @ theta
        np.testing.assert_allclose(weights.fitted, want, rtol=1e-12, atol=1e-14)
        coefficients = recover_coefficients(family, weights)
        np.testing.assert_allclose(X @ coefficients, want, rtol=1e-10, atol=1e-12)

    def test_synthetic_family_has_no_coefficient_factor(self):
        family = SpectralFamily(np.eye(2), [[0.5, 0.5]])
        weights = make_weights(family, np.array([1.0]), np.ones(2))
        with pytest.raises(ValueError, match="coefficient-space factor"):
            recover_coefficients(family, weights)


def degrees_of_freedom(family):
    """trace(A_j) of every member, as the candidate set caches it."""
    return FamilyUnion.of(family).df


class TestDegreesOfFreedom:
    def test_ols_on_full_rank_design_has_df_p(self, rng):
        X = rng.standard_normal((7, 4))
        problem = DesignProblem(X=X, K=np.eye(4), lambdas=[0.0])
        family = build_tikhonov_family(problem)
        assert abs(degrees_of_freedom(family)[0] - 4.0) < 1e-10

    def test_half_eigenvalues_sum_to_one(self):
        problem = DesignProblem(X=np.eye(2), K=np.eye(2), lambdas=[1.0])
        family = build_tikhonov_family(problem)
        assert abs(degrees_of_freedom(family)[0] - 1.0) < 1e-14

    def test_matches_dense_trace(self, rng):
        X = rng.standard_normal((5, 3))
        K = np.diag([1.0, 2.0, 3.0])
        problem = DesignProblem(X=X, K=K, lambdas=[2.0])
        family = build_tikhonov_family(problem)
        dense = dense_smoother(X, K, 2.0)
        assert abs(degrees_of_freedom(family)[0] - np.trace(dense)) < 1e-10


class TestSpectralDenseEquivalence:
    """Randomized sweep of the whole spectral stack against dense oracles."""

    def test_random_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 21))
            p = int(rng.integers(1, 11))
            M = int(rng.integers(1, 6))
            problem = random_problem(rng, n=n, p=p, M=M)
            family = build_tikhonov_family(problem)
            y = rng.standard_normal(n)
            j = int(rng.integers(M))
            dense = dense_smoother(problem.X, problem.K, problem.lambdas[j])
            assert np.abs(apply_member(family, j, y) - dense @ y).max() < 1e-8
            assert abs(degrees_of_freedom(family)[j] - np.trace(dense)) < 1e-8

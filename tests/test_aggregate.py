"""Aggregation objective, solver certificates and selection baselines."""

import warnings

import numpy as np
import pytest

import qagg.aggregate

from conftest import (
    STRESS_CASES,
    _solve_simplex_qp,
    certify_kkt,
    dense_excess_bound_gap,
    dense_smoother,
    first_vertex_faces,
    member_matrix,
    q_objective_penalized,
    random_problem,
    random_spd,
    reference_solve,
    stress_problem,
    union_and_dense,
)

from qagg.aggregate import (
    FACE_RIDGE,
    KKT_TOL,
    SOLVE_STAGES,
    SimplexWeights,
    _block_solve,
    _certificate,
    _certify,
    _cp,
    _face_solve,
    _gcv_scores,
    _qp_linear,
    _response,
    _softmax,
    cp_values,
    excess_bound_gap,
    exponential_weights,
    make_weights,
    member_fits,
    q_gradient,
    q_objective,
    select_cp,
    select_gcv,
    solve_q_aggregation,
)
from qagg.smoother import FamilyUnion, _sq_norms
from qagg.spectral import (
    DesignProblem,
    SpectralFamily,
    apply_member,
    apply_weights,
    build_tikhonov_family,
    recover_coefficients,
)


THETA3 = np.array([0.5, 0.25, 0.25])  # weights on a three-member family

# every public function that takes a response, called on a three-member family on 5 points
RESPONSE_TAKERS = {
    "solve_q_aggregation": lambda f, y: solve_q_aggregation(f, y, 1.0),
    "cp_values": lambda f, y: cp_values(f, y, 1.0),
    "select_cp": lambda f, y: select_cp(f, y, 1.0),
    "select_gcv": select_gcv,
    "exponential_weights": lambda f, y: exponential_weights(f, y, 1.0),
    "member_fits": member_fits,
    "make_weights": lambda f, y: make_weights(f, THETA3, y),
    "q_objective": lambda f, y: q_objective(f, THETA3, y, 1.0),
    "q_gradient": lambda f, y: q_gradient(f, THETA3, y, 1.0),
    "excess_bound_gap": lambda f, y: excess_bound_gap(f, THETA3, y, 1.0, np.zeros(5)),
    "apply_member": lambda f, y: apply_member(f, 0, y),
    "apply_weights": lambda f, y: apply_weights(f, THETA3, y),
    "spectral_coords": lambda f, y: f.spectral_coords(y),
    "recover_coefficients": lambda f, y: recover_coefficients(f, make_weights(f, THETA3, y)),
}


def random_interior_theta(rng, M):
    theta = rng.uniform(0.05, 1.0, size=M)
    return theta / theta.sum()


class TestResponsePass:
    def test_every_method_gives_the_same_result_from_the_pass(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 7, 3, 3))
        f2 = build_tikhonov_family(random_problem(rng, 7, 4, 2))
        for cands in (f1, FamilyUnion(families=(f1, f2))):
            y = rng.standard_normal(7)
            resp = _response(cands, y)
            theta = random_interior_theta(rng, FamilyUnion.of(cands).member_count)
            for fn, args in (
                (cp_values, (1.1,)),
                (select_cp, (1.1,)),
                (select_gcv, ()),
                (member_fits, ()),
            ):
                np.testing.assert_array_equal(fn(cands, resp, *args), fn(cands, y, *args))
            for fn in (q_objective, q_objective_penalized, q_gradient, certify_kkt):
                np.testing.assert_array_equal(fn(cands, theta, resp, 1.1), fn(cands, theta, y, 1.1))
            a, b = solve_q_aggregation(cands, resp, 1.1), solve_q_aggregation(cands, y, 1.1)
            np.testing.assert_array_equal(a.weights.theta, b.weights.theta)
            np.testing.assert_array_equal(a.weights.fitted, b.weights.fitted)
            np.testing.assert_array_equal(
                exponential_weights(cands, resp, 1.1).fitted,
                exponential_weights(cands, y, 1.1).fitted,
            )

    def test_pass_of_other_candidates_rejected(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 6, 3, 2))
        f2 = build_tikhonov_family(random_problem(rng, 6, 3, 2))
        union = FamilyUnion(families=(f1, f2))
        y = rng.standard_normal(6)
        for made_for, used_with in ((f1, f2), (union, f1), (f1, union)):
            resp = _response(made_for, y)
            with pytest.raises(ValueError, match="different candidates"):
                cp_values(used_with, resp, 1.0)
        # a pass of one family serves the union of that family alone
        assert cp_values(FamilyUnion(families=(f1,)), _response(f1, y), 1.0).shape == (2,)

    def test_one_response_functions_reject_a_block(self, rng):
        family = build_tikhonov_family(random_problem(rng, 6, 3, 2))
        Y = rng.standard_normal((6, 2))
        # a 2-d y, even of one column, and a pass of two columns
        for y in (Y[:, :1], Y, _response(family, Y, block=True)):
            with pytest.raises(ValueError, match="expected one response of length 6"):
                cp_values(family, y, 1.0)
        # one response is a block of one column, and the function reads column 0
        single = _response(family, Y[:, 0])
        assert single.y.shape == (6, 1) and single.resid_sq.shape == (1, 2)
        expected = single.resid_sq[0] + 2.0 * FamilyUnion.of(family).df
        np.testing.assert_array_equal(cp_values(family, single, 1.0), expected)

    def test_union_quantities_match_dense(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 8, 3, 3))
        f2 = build_tikhonov_family(random_problem(rng, 8, 5, 2))
        # a single family and a union of two designs (Q from the SVD of [U_1 U_2])
        for union in (FamilyUnion(families=(f1,)), FamilyUnion(families=(f1, f2))):
            dense = [member_matrix(f, j) for f in union.families for j in range(f.member_count)]
            y = rng.standard_normal(8)
            resp = _response(union, y)
            cp = cp_values(union, resp, 0.7)
            for j, A in enumerate(dense):
                assert np.abs(member_fits(union, resp)[j] - A @ y).max() < 1e-10
                assert abs(union.df[j] - np.trace(A)) < 1e-10
                expected = np.sum((A @ y - y) ** 2) + 2 * 0.7**2 * np.trace(A)
                assert abs(cp[j] - expected) < 1e-10
            theta = random_interior_theta(rng, union.member_count)
            expected = sum(t * A for t, A in zip(theta, dense)) @ y
            assert np.abs(union.coords @ resp.qp_fit(theta[None])[:, 0] - expected).max() < 1e-10
            self.check_qp_view(rng, union, dense, resp, theta)

    @staticmethod
    def check_qp_view(rng, union, dense, resp, theta):
        """The pass's QP coordinates, mapped back to R^n, against dense member matrices."""
        n, y, to_rn = union.n, resp.y[:, 0], union.coords
        fits = np.column_stack([A @ y for A in dense])  # n x M
        M = union.member_count
        rows = resp.qp_member_rows(np.zeros(M, dtype=int), np.arange(M))
        assert np.abs(to_rn @ rows.T - fits).max() < 1e-10
        fit_theta = sum(t * A for t, A in zip(theta, dense)) @ y
        assert np.abs(to_rn @ resp.qp_fit(theta[None])[:, 0] - fit_theta).max() < 1e-10
        # 1/2 ||phi^T theta - target||^2 + offset is 1/2 ||A_theta y - y||^2
        r = (resp.qp_fit(theta[None]) - resp.target)[:, 0]
        expected = 0.5 * np.sum((fit_theta - y) ** 2)
        assert abs(0.5 * r @ r + resp.offset[0] - expected) < 1e-10
        assert np.abs(resp.qp_grad(r[:, None])[0] - fits.T @ (to_rn @ r)).max() < 1e-10
        # losses against a mean off every family's range, on a block of responses
        mu = rng.standard_normal(n)
        Y = mu[:, None] + rng.standard_normal((n, 3))
        block, mean = _response(union, Y, block=True), _response(union, mu)
        members = rng.integers(0, union.member_count, size=3)
        Theta = np.vstack([random_interior_theta(rng, union.member_count) for _ in range(3)])
        for b, (j, th) in enumerate(zip(members, Theta)):
            expected = np.sum((dense[j] @ Y[:, b] - mu) ** 2)
            assert abs(block.member_losses(members, mean)[b] - expected) < 1e-10
            expected = np.sum((sum(t * A for t, A in zip(th, dense)) @ Y[:, b] - mu) ** 2)
            assert abs(block.weight_losses(Theta, mean)[b] - expected) < 1e-10

    def test_per_member_arrays_are_member_contiguous(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 8, 3, 3))
        f2 = build_tikhonov_family(random_problem(rng, 8, 5, 2))
        # reductions over members (argmin, min, sums against theta) read contiguous rows
        for union in (FamilyUnion(families=(f1,)), FamilyUnion(families=(f1, f2))):
            B, M = 5, union.member_count
            resp = _response(union, rng.standard_normal((8, B)), block=True)
            lin, cp = _qp_linear(resp, 0.7), _cp(resp, 0.7)
            theta = np.vstack([random_interior_theta(rng, M) for _ in range(B)])
            g = _certify(resp, lin, theta, resp.qp_fit(theta) - resp.target)[0]
            for a in (resp.resid_sq, cp, lin, _gcv_scores(resp), _softmax(cp, 0.7), g):
                assert a.shape == (B, M) and a.flags.c_contiguous
            cols = np.array([0, 2, 3])
            grad = resp.qp_grad(resp.target[:, cols], cols)
            assert grad.shape == (cols.size, M) and grad.flags.c_contiguous


class TestCoordinates:
    """Every candidate set's QP lives in one basis Q = coords, with U_f = Q W_f."""

    @staticmethod
    def check_against_dense(rng, union, sigma=0.8):
        """Q, the W_f, the pass (check_qp_view) and the solve against member_matrix (AC-1)."""
        Q = union.coords
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-8
        for fam, W in zip(union.families, union.rotations):
            assert np.abs((Q if W is None else Q @ W) - fam.basis).max() < 1e-8
        dense = [member_matrix(f, j) for f in union.families for j in range(f.member_count)]
        y = rng.standard_normal(union.n)
        resp = _response(union, y)
        TestResponsePass.check_qp_view(
            rng, union, dense, resp, random_interior_theta(rng, union.member_count)
        )
        # the same QP posed in R^n on the dense fits
        fits = np.column_stack([A @ y for A in dense])
        c = np.sum((fits - y[:, None]) ** 2, axis=0)
        lin = 2 * sigma**2 * np.array([np.trace(A) for A in dense]) + 0.5 * c
        _, fval, *_ = _solve_simplex_qp(fits.T, y, lin)
        report = solve_q_aggregation(union, y, sigma)
        assert report.converged
        assert abs(report.objective - fval) < 1e-8 * (1 + abs(fval))

    def test_one_design_takes_the_first_basis(self, rng):
        X = rng.standard_normal((12, 5))
        families = tuple(
            build_tikhonov_family(DesignProblem(X=X, K=K, lambdas=[0.1, 1.0, 10.0]))
            for K in (np.eye(5), random_spd(rng, 5), np.diag([1.0, 4, 9, 16, 25]))
        )
        union = FamilyUnion(families=families)
        assert union.coords is families[0].basis
        assert union.rotations[0] is None  # W_0 = I
        self.check_against_dense(rng, union)

    @pytest.mark.parametrize("shapes", [((9, 3), (9, 4)), ((6, 4), (6, 5))])
    def test_two_designs_take_the_svd(self, rng, shapes):
        families = tuple(build_tikhonov_family(random_problem(rng, n, p, 3)) for n, p in shapes)
        union = FamilyUnion(families=families)
        assert union.coords is not families[0].basis
        # the span of both designs: 3 + 4 = 7 of 9 dimensions, or all 6
        assert union.coords.shape[1] == min(shapes[0][0], shapes[0][1] + shapes[1][1])
        self.check_against_dense(rng, union)

    def test_single_family_pass_is_spectral(self, rng):
        family = build_tikhonov_family(random_problem(rng, 10, 4, 3))
        union = FamilyUnion.of(family)
        assert union.coords is family.basis
        assert union.rotations == (None,)  # W_0 = I
        Y = rng.standard_normal((10, 3))
        for y, block in ((Y[:, 0], False), (Y, True)):
            resp = _response(family, y, block=block)
            assert resp.target.tobytes() == family.spectral_coords(y).tobytes()
            assert resp.z[0].tobytes() == resp.target.tobytes()
        self.check_against_dense(rng, union)


class TestSimplexWeights:
    def test_renormalizes(self):
        w = SimplexWeights([2.0, 2.0])
        np.testing.assert_allclose(w.theta, [0.5, 0.5])
        assert abs(w.theta.sum() - 1.0) < 1e-12

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SimplexWeights([0.5, -0.5])

    @pytest.mark.parametrize(
        "theta, message",
        [([[0.5, 0.5]], "weights must form a nonempty vector, got shape (1, 2)"),
         ([0.5, np.nan], "weights must be finite"),
         ([0.0, 0.0], "weights must have positive total mass")],
        ids=["2-d", "non-finite", "zero-total"],
    )
    def test_rejects_malformed_weights_naming_them(self, theta, message):
        with pytest.raises(ValueError) as info:
            SimplexWeights(theta)
        assert str(info.value) == message


class TestCpCriterion:
    def test_zero_smoother_gives_response_norm(self, rng):
        family = SpectralFamily(np.eye(3)[:, :2], [[0.0, 0.0]])
        y = rng.standard_normal(3)
        assert abs(cp_values(family, y, 1.0)[0] - y @ y) < 1e-12

    def test_saturated_fit_costs_twice_variance_times_n(self, rng):
        n = 5
        problem = DesignProblem(X=np.eye(n), K=np.eye(n), lambdas=[0.0])
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(n)
        sigma = 0.6
        assert abs(cp_values(family, y, sigma)[0] - 2 * sigma**2 * n) < 1e-12

    def test_matches_dense(self, rng):
        problem = random_problem(rng, n=6, p=4, M=3)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(6)
        sigma = 0.9
        values = cp_values(family, y, sigma)
        for j, lam in enumerate(problem.lambdas):
            A = dense_smoother(problem.X, problem.K, lam)
            expected = np.sum((A @ y - y) ** 2) + 2 * sigma**2 * np.trace(A)
            assert abs(values[j] - expected) < 1e-10

    def test_sigma_must_be_positive(self, small_family):
        _, family = small_family
        with pytest.raises(ValueError, match="sigma"):
            cp_values(family, np.zeros(5), 0.0)
        with pytest.raises(ValueError, match="sigma"):
            cp_values(family, np.zeros(5), np.inf)


class TestQObjective:
    def test_single_member_equals_cp(self, rng):
        problem = random_problem(rng, n=6, p=4, M=1)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(6)
        assert abs(
            q_objective(family, np.array([1.0]), y, 1.0) - cp_values(family, y, 1.0)[0]
        ) < 1e-12

    def test_vertices_equal_cp(self, rng, small_family):
        _, family = small_family
        y = rng.standard_normal(5)
        cp = cp_values(family, y, 0.8)
        for k in range(3):
            theta = np.zeros(3)
            theta[k] = 1.0
            for form in (q_objective, q_objective_penalized):
                assert abs(form(family, theta, y, 0.8) - cp[k]) < 1e-10

    def test_convex_and_penalized_forms_agree(self, rng):
        for _ in range(25):
            problem = random_problem(rng, n=int(rng.integers(4, 10)), p=3, M=int(rng.integers(2, 5)))
            family = build_tikhonov_family(problem)
            y = rng.standard_normal(family.n) * float(rng.uniform(0.5, 4))
            theta = random_interior_theta(rng, family.member_count)
            sigma = float(rng.uniform(0.3, 2.0))
            a = q_objective(family, theta, y, sigma)
            b = q_objective_penalized(family, theta, y, sigma)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_forms_agree_on_union(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 7, 3, 2))
        f2 = build_tikhonov_family(random_problem(rng, 7, 4, 3))
        union = FamilyUnion(families=(f1, f2))
        y = rng.standard_normal(7)
        theta = random_interior_theta(rng, 5)
        a = q_objective(union, theta, y, 1.1)
        b = q_objective_penalized(union, theta, y, 1.1)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_convexity_witness(self, rng, small_family):
        _, family = small_family
        y = rng.standard_normal(5)
        for _ in range(20):
            th1 = random_interior_theta(rng, 3)
            th2 = random_interior_theta(rng, 3)
            t = float(rng.uniform())
            mix = q_objective(family, t * th1 + (1 - t) * th2, y, 1.0)
            bound = t * q_objective(family, th1, y, 1.0) + (1 - t) * q_objective(
                family, th2, y, 1.0
            )
            assert mix <= bound + 1e-9


class TestGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(10):
            problem = random_problem(rng, n=8, p=4, M=4)
            family = build_tikhonov_family(problem)
            y = rng.standard_normal(8) * 2.0
            sigma = float(rng.uniform(0.5, 1.5))
            theta = random_interior_theta(rng, 4)
            grad = q_gradient(family, theta, y, sigma)
            h = 1e-6
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd = (
                    q_objective(family, theta + e, y, sigma)
                    - q_objective(family, theta - e, y, sigma)
                ) / (2 * h)
                assert abs(grad[k] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestSolver:
    def test_single_member(self, rng):
        problem = random_problem(rng, n=6, p=3, M=1)
        family = build_tikhonov_family(problem)
        report = solve_q_aggregation(family, rng.standard_normal(6), 1.0)
        np.testing.assert_array_equal(report.weights.theta, [1.0])
        assert report.converged

    def test_duplicate_members_reach_single_member_objective(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        alpha = np.array([0.7, 0.5, 0.2])
        single = SpectralFamily(basis, [alpha])
        doubled = SpectralFamily(basis, [alpha, alpha])
        y = rng.standard_normal(6)
        rep1 = solve_q_aggregation(single, y, 0.9)
        rep2 = solve_q_aggregation(doubled, y, 0.9)
        assert rep2.converged
        assert abs(rep1.objective - rep2.objective) < 1e-10

    def test_matches_grid_search_m3(self, rng):
        for _ in range(5):
            problem = random_problem(rng, n=8, p=4, M=3)
            family = build_tikhonov_family(problem)
            y = rng.standard_normal(8)
            sigma = 1.0
            report = solve_q_aggregation(family, y, sigma)
            assert report.converged
            # independent oracle: evaluate the objective from member fits
            fits = np.stack([apply_member(family, j, y) for j in range(3)])
            df = FamilyUnion.of(family).df
            resid = np.einsum("ij,ij->i", fits - y, fits - y)
            step = 1e-3
            t1 = np.arange(0.0, 1.0 + step / 2, step)
            best = np.inf
            for a in t1:
                t2 = np.arange(0.0, 1.0 - a + step / 2, step)
                theta = np.column_stack([np.full_like(t2, a), t2, 1.0 - a - t2])
                agg = theta @ fits
                vals = (
                    0.5 * np.einsum("ij,ij->i", agg - y, agg - y)
                    + 2 * sigma**2 * theta @ df
                    + 0.5 * theta @ resid
                )
                best = min(best, float(vals.min()))
            assert report.objective <= best + 1e-7
            assert abs(report.objective - best) < 1e-5

    def test_certificate_at_solution(self, rng):
        for _ in range(10):
            problem = random_problem(rng, n=10, p=5, M=6)
            family = build_tikhonov_family(problem)
            y = rng.standard_normal(10) * float(rng.uniform(0.5, 3))
            report = solve_q_aggregation(family, y, 1.0)
            assert report.kkt_residual >= -1e-7 * (1.0 + abs(report.objective))
            recheck = certify_kkt(family, report.weights.theta, y, 1.0)
            assert recheck >= -1e-7 * (1.0 + abs(report.objective))

    def test_solver_on_union(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 9, 4, 3))
        f2 = build_tikhonov_family(random_problem(rng, 9, 5, 4))
        union = FamilyUnion(families=(f1, f2))
        y = rng.standard_normal(9)
        report = solve_q_aggregation(union, y, 1.0)
        assert report.converged
        np.testing.assert_allclose(
            report.weights.fitted,
            member_fits(union, y).T @ report.weights.theta,
            atol=1e-12,
        )

    def test_sigma_validation(self, small_family):
        _, family = small_family
        with pytest.raises(ValueError, match="sigma"):
            solve_q_aggregation(family, np.zeros(5), -1.0)
        with pytest.raises(ValueError, match="sigma"):
            solve_q_aggregation(family, np.zeros(5), np.inf)
        # sigma^2 overflows to inf or underflows to 0; at 1e154 sigma^2 is finite,
        # but 2 sigma^2 df and 4 sigma^2 are not
        for sigma in (1e200, 1e-200, 1e154):
            with pytest.raises(ValueError, match="sigma"):
                solve_q_aggregation(family, np.zeros(5), sigma)

    def test_non_finite_response_rejected(self, small_family):
        _, family = small_family
        for bad in (np.full(5, np.nan), np.array([0.0, 1.0, np.inf, 0.0, 0.0])):
            with pytest.raises(ValueError, match="response y"):
                solve_q_aggregation(family, bad, 1.0)
            with pytest.raises(ValueError, match="response y"):
                cp_values(family, bad, 1.0)
        with pytest.raises(ValueError, match="response y"):
            _response(family, np.full((5, 2), np.nan), block=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("taker", sorted(RESPONSE_TAKERS))
    def test_every_response_taker_rejects_a_non_finite_response(self, small_family, taker, bad):
        _, family = small_family
        y = np.array([0.0, 1.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="response y"):
            RESPONSE_TAKERS[taker](family, y)

    def test_report_lists_support_and_no_fallbacks_on_a_separated_grid(self, rng):
        for _ in range(10):
            family = build_tikhonov_family(random_problem(rng, n=12, p=6, M=10))
            report = solve_q_aggregation(family, rng.standard_normal(12) * 2.0, 0.5)
            assert report.converged
            assert report.support == tuple(np.flatnonzero(report.weights.theta > 0))
            assert report.ridge_fallbacks == 0

    def test_singular_face_falls_back_to_the_ridge_system(self, rng):
        # a face holding two copies of one member has a singular KKT system;
        # small integers keep every product and sum of the system exact.  It is
        # stacked with the face of the first two members alone, its third slot
        # pinned at zero as the kernel pins a pruned slot.
        phi = rng.integers(-3, 4, size=(3, 4)).astype(float)
        phi[2] = phi[0]
        c = phi @ rng.integers(-3, 4, size=4).astype(float) - np.array([0.5, 0.25, 0.5])
        kkt = np.ones((2, 4, 4))
        kkt[:, :3, :3] = phi @ phi.T
        kkt[:, 3, 3] = 0.0
        kkt[1, 2, :], kkt[1, :, 2], kkt[1, 2, 2] = 0.0, 0.0, 1.0
        rhs = np.ones((2, 4))
        rhs[:, :3] = c
        rhs[1, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(kkt, rhs[..., None])
        ridge = FACE_RIDGE * float(np.einsum("ij,ij->i", phi, phi).max())
        theta, fell_back = _face_solve(kkt, rhs, lambda bad: np.full(bad.size, ridge))
        assert fell_back.tolist() == [True, False]
        assert np.all(np.isfinite(theta)) and np.abs(theta.sum(axis=1) - 1.0).max() < 1e-8
        # the pinned face's weights are those of its two-member system
        two = np.ones((3, 3))
        two[:2, :2], two[2, 2] = phi[:2] @ phi[:2].T, 0.0
        exact = np.linalg.solve(two, np.append(c[:2], 1.0))[:2]
        np.testing.assert_allclose(theta[1], np.append(exact, 0.0), rtol=0, atol=1e-12)

    def test_face_singular_after_the_ridge_falls_back_to_least_squares(self):
        # the constraint row is zero, so no ridge on the Gram diagonal makes the
        # system regular
        kkt = np.zeros((1, 3, 3))
        kkt[0, :2, :2] = [[2.0, 1.0], [1.0, 2.0]]
        rhs = np.ones((1, 3))
        theta, fell_back = _face_solve(kkt, rhs, lambda bad: np.full(bad.size, FACE_RIDGE))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(kkt[0] + FACE_RIDGE * np.diag([1.0, 1.0, 0.0]), rhs[0])
        assert fell_back.tolist() == [True]
        np.testing.assert_allclose(theta, [[1.0 / (3.0 + FACE_RIDGE)] * 2], rtol=1e-12)

    def test_fallback_solves_still_certify(self, rng, monkeypatch):
        # Active-set pivots never build a singular face from these inputs, so
        # every stacked exact face solve is made to return a non-finite point;
        # each face then goes through its own ridge system.  Only responses
        # whose optimum needs three or more pivots reach a face solve: the
        # vertex and segment stages decide the others in closed form.
        family = build_tikhonov_family(random_problem(rng, n=12, p=6, M=10))
        mu = 2.0 * family.basis @ (np.arange(1, family.rank + 1) ** -1.0)
        solve = np.linalg.solve
        calls = []

        def exact_systems_fail(a, b):
            if a.ndim == 3:  # the kernel's stacked solve of the exact systems
                return np.full(b.shape, np.nan)
            calls.append(a.shape[0])
            return solve(a, b)

        checked = 0
        for _ in range(200):
            y = mu + rng.standard_normal(12)
            exact = solve_q_aggregation(family, y, 1.0)
            if exact.iterations < 3:
                continue
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", exact_systems_fail)
                report = solve_q_aggregation(family, y, 1.0)
            assert exact.ridge_fallbacks == 0
            assert report.ridge_fallbacks == len(calls) > 0
            assert report.converged
            recheck = certify_kkt(family, report.weights.theta, y, 1.0)
            assert recheck >= -1e-7 * (1.0 + abs(report.objective))
            assert abs(report.objective - exact.objective) <= 1e-8 * (1.0 + abs(exact.objective))
            checked += 1
            if checked == 10:
                break
        assert checked == 10

    def test_stalled_pivot_is_counted(self, rng, monkeypatch):
        # A face solve that never leaves the face's first vertex makes the next
        # pivot pick a member already in the support, which stops the solve.
        family = build_tikhonov_family(random_problem(rng, n=12, p=6, M=10))
        mu = 2.0 * family.basis @ (np.arange(1, family.rank + 1) ** -1.0)
        for _ in range(100):  # a response whose optimum needs the kernel's pivots
            y = mu + rng.standard_normal(12)
            exact = solve_q_aggregation(family, y, 1.0)
            assert exact.converged and exact.stalled_pivots == 0
            if exact.iterations >= 3:
                break
        assert exact.iterations >= 3
        monkeypatch.setattr(qagg.aggregate, "_face_solve", first_vertex_faces)
        report = solve_q_aggregation(family, y, 1.0)
        assert report.stalled_pivots == 1
        assert not report.converged
        assert report.iterations == 3 and len(report.support) == 1


@pytest.mark.parametrize("case", STRESS_CASES)
def test_stress_families_solve_and_certify(rng, case):
    X, y, lambdas = stress_problem(rng, case)
    family = build_tikhonov_family(DesignProblem(X=X, K=np.eye(X.shape[1]), lambdas=lambdas))
    report = solve_q_aggregation(family, y, 0.5)
    assert report.converged
    assert report.kkt_residual >= -1e-7 * (1.0 + abs(report.objective))
    recheck = certify_kkt(family, report.weights.theta, y, 0.5)
    assert recheck >= -1e-7 * (1.0 + abs(report.objective))
    assert report.ridge_fallbacks == 0 and report.stalled_pivots == 0


def synthetic_family(rng, n, r, M):
    """Tikhonov-shaped members on a random orthonormal basis, not built from a design."""
    basis = np.linalg.qr(rng.standard_normal((n, r)))[0]
    mu2 = np.sort(rng.uniform(0.1, 10.0, r))[::-1]
    lambdas = np.geomspace(0.05, 20.0, M)
    alphas = mu2[None, :] / (mu2[None, :] + lambdas[:, None])
    return SpectralFamily(basis, alphas)


class TestMetamorphic:
    """Relations between solves on transformed inputs; they guard the face solve."""

    def candidate_sets(self, rng):
        a = synthetic_family(rng, 14, 6, 9)
        b = synthetic_family(rng, 14, 5, 7)
        return a, FamilyUnion(families=(a, b))

    def draws(self, rng, cands, count=8):
        cands = FamilyUnion.of(cands)
        fam = cands.families[0]
        mu = 3.0 * fam.basis @ (np.arange(1, fam.rank + 1) ** -1.0)
        return [mu + rng.standard_normal(cands.n) for _ in range(count)]

    def test_scaling_response_and_noise(self, rng):
        for cands in self.candidate_sets(rng):
            for y in self.draws(rng, cands):
                base = solve_q_aggregation(cands, y, 1.0)
                for c in (0.7, 3.0):
                    scaled = solve_q_aggregation(cands, c * y, c * 1.0)
                    assert scaled.converged
                    assert np.abs(scaled.weights.theta - base.weights.theta).max() <= 1e-8
                    assert abs(scaled.objective - c**2 * base.objective) <= 1e-10 * (
                        c**2 * abs(base.objective)
                    )

    def test_permuting_members_permutes_weights(self, rng):
        family, union = self.candidate_sets(rng)
        perm = rng.permutation(family.member_count)
        shuffled = SpectralFamily(family.basis, family.alphas[perm])
        # reversing the families of a union permutes the global member order
        a, b = union.families
        reversed_union = FamilyUnion(families=(b, a))
        union_perm = np.r_[np.arange(a.member_count, union.member_count), np.arange(a.member_count)]
        for cands, moved, order in ((family, shuffled, perm), (union, reversed_union, union_perm)):
            for y in self.draws(rng, cands):
                base = solve_q_aggregation(cands, y, 1.0)
                other = solve_q_aggregation(moved, y, 1.0)
                assert other.converged
                assert np.abs(other.weights.theta - base.weights.theta[order]).max() <= 1e-8
                assert abs(other.objective - base.objective) <= 1e-10 * abs(base.objective)

    def test_pooling_a_copy_keeps_the_optimum(self, rng):
        family, union = self.candidate_sets(rng)
        doubled_family = FamilyUnion(families=(family, family))
        doubled_union = FamilyUnion(families=union.families * 2)
        for cands, pooled in ((family, doubled_family), (union, doubled_union)):
            for y in self.draws(rng, cands):
                base = solve_q_aggregation(cands, y, 1.0)
                both = solve_q_aggregation(pooled, y, 1.0)
                assert both.converged
                assert abs(both.objective - base.objective) <= 1e-10 * abs(base.objective)
                # the copies come after the originals; folding their weights
                # back gives an optimum of the original candidates
                M = FamilyUnion.of(cands).member_count
                folded = both.weights.theta[:M] + both.weights.theta[M:]
                folded_objective = q_objective(cands, folded, y, 1.0)
                assert abs(folded_objective - base.objective) <= 1e-10 * abs(base.objective)


class TestCertifyKkt:
    def test_negative_at_suboptimal_vertex(self, rng):
        problem = random_problem(rng, n=8, p=4, M=3)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(8)
        cp = cp_values(family, y, 1.0)
        worst = int(np.argmax(cp))
        theta = np.zeros(3)
        theta[worst] = 1.0
        if cp.max() - cp.min() > 1e-6:
            assert certify_kkt(family, theta, y, 1.0) < 0.0


class TestSelectCp:
    def test_single_member(self, rng):
        problem = random_problem(rng, n=5, p=3, M=1)
        family = build_tikhonov_family(problem)
        assert select_cp(family, rng.standard_normal(5), 1.0) == 0

    def test_zero_response_selects_smallest_df(self, rng):
        problem = random_problem(rng, n=6, p=4, M=4)
        family = build_tikhonov_family(problem)
        assert select_cp(family, np.zeros(6), 1.0) == 3  # largest lambda

    def test_matches_dense_evaluation(self, rng):
        problem = random_problem(rng, n=7, p=4, M=5)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(7)
        sigma = 0.8
        dense_cp = []
        for lam in problem.lambdas:
            A = dense_smoother(problem.X, problem.K, lam)
            dense_cp.append(np.sum((A @ y - y) ** 2) + 2 * sigma**2 * np.trace(A))
        assert select_cp(family, y, sigma) == int(np.argmin(dense_cp))


class TestSelectGcv:
    def test_single_member(self, rng):
        problem = random_problem(rng, n=5, p=3, M=1)
        family = build_tikhonov_family(problem)
        assert select_gcv(family, rng.standard_normal(5)) == 0

    def test_interpolating_member_excluded(self, rng):
        problem = DesignProblem(X=np.eye(3), K=np.eye(3), lambdas=[0.0, 1.0])
        family = build_tikhonov_family(problem)  # member 0 has trace n
        y = rng.standard_normal(3)
        with pytest.warns(RuntimeWarning, match="degenerate denominator"):
            assert select_gcv(family, y) == 1

    def test_all_excluded_raises(self):
        problem = DesignProblem(X=np.eye(2), K=np.eye(2), lambdas=[0.0])
        family = build_tikhonov_family(problem)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="GCV"):
                select_gcv(family, np.ones(2))

    def test_matches_dense_evaluation(self, rng):
        problem = random_problem(rng, n=8, p=4, M=5)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(8)
        scores = []
        for lam in problem.lambdas:
            A = dense_smoother(problem.X, problem.K, lam)
            scores.append(np.sum((A @ y - y) ** 2) / (8 - np.trace(A)) ** 2)
        assert select_gcv(family, y) == int(np.argmin(scores))


class TestExponentialWeights:
    def test_identical_members_get_uniform_weights(self, rng):
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        alpha = np.array([0.6, 0.3])
        family = SpectralFamily(basis, [alpha, alpha, alpha])
        w = exponential_weights(family, rng.standard_normal(5), 1.0)
        np.testing.assert_allclose(w.theta, np.full(3, 1 / 3), atol=1e-14)

    def test_small_temperature_concentrates_on_cp_winner(self, rng):
        problem = random_problem(rng, n=8, p=4, M=4)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(8) * 2
        sigma = np.sqrt(1e-8 / 4)  # temperature 4 sigma^2 = 1e-8
        winner = select_cp(family, y, sigma)
        w = exponential_weights(family, y, sigma)
        assert np.all(np.isfinite(w.theta))
        assert w.theta[winner] > 1.0 - 1e-12

    def test_closed_form_geometric_weights(self):
        # one-coordinate members with criterion values {c, c + t log 2, c + t log 4}
        y = np.array([2.0])
        t = 0.5
        sigma = np.sqrt(t / 4)  # temperature 4 sigma^2 = t
        targets = np.array([3.0, 3.0 + t * np.log(2), 3.0 + t * np.log(4)])
        # solve (a - 1)^2 y^2 + 2 sigma^2 a = target for a in [0, 0.75]
        alphas = []
        for c in targets:
            roots = np.roots([y[0] ** 2, -2 * y[0] ** 2 + 2 * sigma**2, y[0] ** 2 - c])
            alphas.append(float(min(r for r in roots if 0 <= r <= 0.75)))
        family = SpectralFamily(np.eye(1), np.array(alphas)[:, None])
        got = cp_values(family, y, sigma)
        np.testing.assert_allclose(got, targets, atol=1e-12)
        w = exponential_weights(family, y, sigma)
        np.testing.assert_allclose(w.theta, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)


class TestExcessBound:
    """Pointwise excess inequality on simulated draws with known mean and noise."""

    def test_holds_at_certified_solutions(self, rng):
        problem = random_problem(rng, n=12, p=6, M=8)
        family = build_tikhonov_family(problem)
        mu = 1.5 * family.basis @ (np.arange(1, family.rank + 1) ** -1.0)
        sigma = 1.0
        for _ in range(50):
            y = mu + sigma * rng.standard_normal(12)
            report = solve_q_aggregation(family, y, sigma)
            gap = excess_bound_gap(family, report.weights.theta, y, sigma, mu)
            slack = max(0.0, -report.kkt_residual) + 1e-9 * (1.0 + abs(report.objective))
            assert gap <= slack

    def test_detects_violations_for_bad_weights(self, rng):
        # far-from-optimal weights should eventually break the bound
        problem = random_problem(rng, n=10, p=5, M=4)
        family = build_tikhonov_family(problem)
        mu = np.zeros(10)
        worst = 0.0
        for _ in range(20):
            y = mu + rng.standard_normal(10)
            theta = np.zeros(4)
            theta[0] = 1.0  # smallest lambda: heavy overfit when mu = 0
            worst = max(worst, excess_bound_gap(family, theta, y, 1.0, mu))
        assert worst > 0.0

    @pytest.mark.parametrize("designs", [1, 2])
    def test_union_matches_dense(self, rng, designs):
        union, mats = union_and_dense(rng, designs)
        mu = 2.0 * union.families[1].basis[:, 0] + 0.5 * rng.standard_normal(union.n)
        for _ in range(10):
            y = mu + rng.standard_normal(union.n)
            for theta in (solve_q_aggregation(union, y, 1.0).weights.theta,
                          rng.dirichlet(np.ones(union.member_count))):
                want = dense_excess_bound_gap(mats, theta, y, 1.0, mu)
                got = excess_bound_gap(union, theta, y, 1.0, mu)
                # relative to the size of its terms: the gap is 0 at a vertex
                assert abs(got - want) <= 1e-10 * (y @ y)

    def test_rejects_a_mean_that_is_not_a_finite_length_n_vector(self, small_family):
        _, family = small_family
        theta = np.full(3, 1.0 / 3.0)
        for mu in (np.zeros(4), np.zeros((5, 1)), np.full(5, np.nan), [0, 0, np.inf, 0, 0]):
            with pytest.raises(ValueError, match="mu"):
                excess_bound_gap(family, theta, np.ones(5), 1.0, mu)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_a_noise_level_outside_the_sigma_rule(self, small_family, sigma):
        _, family = small_family
        theta = np.full(3, 1.0 / 3.0)
        with pytest.raises(ValueError, match="sigma"):
            excess_bound_gap(family, theta, np.ones(5), sigma, np.zeros(5))


def block_matches_scalar(cands, Y, sigma):
    """Stage counts of _block_solve on the columns of Y, each checked against the reference.

    Every column must have the reference solve's support, pivot count,
    convergence, ridge fallbacks and stalls, with weights, objective and
    certificate within 1e-10.  A column decided at the vertex takes one
    pivot, a segment column two, and an active_set column, decided by the
    kernel's pivots, three or more.  Also returns the prune steps the
    reference solves took.
    """
    resp = _response(cands, Y, block=True)
    theta, objective, kkt, stage, pivots, converged, ridge, stalls = _block_solve(resp, sigma)
    assert theta.shape == resp.resid_sq.shape
    prunes = 0
    for b, s in enumerate(stage):
        th, obj, res, iters, conv, fell, stalled, pruned = reference_solve(cands, Y[:, b], sigma)
        assert pivots[b] == iters, (b, SOLVE_STAGES[s], pivots[b], iters)
        assert iters >= 3 if SOLVE_STAGES[s] == "active_set" else iters == s + 1
        assert (converged[b], ridge[b], stalls[b]) == (conv, fell, stalled), b
        assert tuple(np.flatnonzero(theta[b] > 0)) == tuple(np.flatnonzero(th > 0))
        np.testing.assert_allclose(theta[b], th, rtol=0, atol=1e-10)
        scale = 1.0 + abs(obj)
        assert abs(objective[b] - obj) <= 1e-10 * scale
        assert abs(kkt[b] - res) <= 1e-10 * scale
        assert not conv or kkt[b] >= -KKT_TOL * (1.0 + abs(objective[b]))
        prunes += pruned
    return dict(zip(SOLVE_STAGES, np.bincount(stage, minlength=len(SOLVE_STAGES)).tolist())), prunes


def noisy_responses(rng, X, B, noise=1.0):
    """B responses X beta + noise on one design, as the columns of an n x B matrix."""
    signal = X @ rng.standard_normal(X.shape[1])
    return signal[:, None] + noise * rng.standard_normal((X.shape[0], B))


class TestBlockSolve:
    """The block's vertex and segment stages and its active-set kernel against the reference."""

    def test_single_family(self, rng):
        problem = random_problem(rng, 30, 12, 15, identity_penalty=True)
        family = build_tikhonov_family(problem)
        stages, _ = block_matches_scalar(family, noisy_responses(rng, problem.X, 40), 1.0)
        assert stages["vertex"] > 0 and stages["segment"] > 0

    def test_union_of_three_families(self, rng):
        X = rng.standard_normal((60, 30))
        families = tuple(
            build_tikhonov_family(
                DesignProblem(
                    X=X, K=np.diag(np.arange(1.0, 31.0) ** g), lambdas=np.geomspace(1e-2, 1e2, 16)
                )
            )
            for g in (0.0, 1.5, 3.0)
        )
        union = FamilyUnion(families=families)
        stages, _ = block_matches_scalar(union, noisy_responses(rng, X, 40), 1.0)
        assert min(stages.values()) > 0

    def test_union_whose_kernel_columns_prune(self, rng):
        X = rng.standard_normal((60, 30))
        families = tuple(
            build_tikhonov_family(
                DesignProblem(
                    X=X, K=np.diag(np.arange(1.0, 31.0) ** g), lambdas=np.geomspace(1e-2, 1e2, 16)
                )
            )
            for g in np.linspace(0.0, 3.0, 8)
        )
        union = FamilyUnion(families=families)
        stages, prunes = block_matches_scalar(union, noisy_responses(rng, X, 64), 1.0)
        assert stages["active_set"] > 0 and prunes > 0

    def test_singular_face_column_among_regular_ones(self, rng):
        # With dyadic eigenvalues on coordinate axes every product of the solve
        # is exact.  Column 3, the first axis, has collinear member fits, so its
        # third pivot builds an exactly singular face; its stacked solve holds
        # the kernel's other columns too, which must stay exact.
        alphas = np.array([
            [0.625, 0.875, 0.5, 0.375], [0.75, 0.25, 0.375, 1.0], [0.0, 0.25, 0.375, 0.875],
            [1.0, 0.125, 0.875, 0.5], [0.0, 0.375, 0.375, 0.25], [0.5, 0.25, 0.875, 1.0],
            [0.375, 0.75, 0.5, 0.5], [0.125, 0.625, 0.75, 0.875],
        ])
        family = SpectralFamily(np.eye(8)[:, :4], alphas)
        Y = 1.5 * rng.standard_normal((8, 24))
        Y[:, 3] = np.eye(8)[0]
        stages, _ = block_matches_scalar(family, Y, 0.5)
        _, _, _, stage, _, _, ridge, _ = _block_solve(_response(family, Y, block=True), 0.5)
        assert stage[3] == SOLVE_STAGES.index("active_set") and stages["active_set"] >= 3
        assert np.flatnonzero(ridge).tolist() == [3]

    @pytest.mark.parametrize("case", STRESS_CASES)
    def test_stress_families(self, rng, case):
        X, y, lambdas = stress_problem(rng, case)
        family = build_tikhonov_family(DesignProblem(X=X, K=np.eye(X.shape[1]), lambdas=lambdas))
        noise = 0.0 if case == "zero-response" else 2.0
        Y = y[:, None] + noise * rng.standard_normal((y.size, 24))
        stages, _ = block_matches_scalar(family, Y, 2.0)
        assert stages["active_set"] == 0
        if case in ("single-member", "zero-response"):
            assert stages["vertex"] == 24

    def test_narrow_grid_of_ten_thousand_members(self, rng):
        X = rng.standard_normal((40, 20))
        scale = float(np.mean(np.linalg.svd(X, compute_uv=False) ** 2))
        lambdas = scale * np.geomspace(0.5, 2.0, 10_000)
        family = build_tikhonov_family(DesignProblem(X=X, K=np.eye(20), lambdas=lambdas))
        stages, _ = block_matches_scalar(family, noisy_responses(rng, X, 8), 1.0)
        assert stages["active_set"] == 0

    def test_one_tolerance_for_both_stages(self, rng, monkeypatch):
        # with a tolerance no certificate can miss, the block stage and the
        # scalar solve both stop at the starting vertex of every draw
        problem = random_problem(rng, 30, 12, 15, identity_penalty=True)
        family = build_tikhonov_family(problem)
        Y = noisy_responses(rng, problem.X, 40)
        vertex = SOLVE_STAGES.index("vertex")
        assert (_block_solve(_response(family, Y, block=True), 1.0)[3] != vertex).any()
        monkeypatch.setattr(qagg.aggregate, "KKT_TOL", 1e300)
        stage = _block_solve(_response(family, Y, block=True), 1.0)[3]
        assert (stage == vertex).all()
        for b in range(Y.shape[1]):
            report = solve_q_aggregation(family, Y[:, b], 1.0)
            assert report.converged and report.iterations == 1


def textbook_stages(resp, sigma):
    """The vertex and segment stages in dense form: sums against one-hot theta and the
    segment test on every column.  Returns (theta, fval, res, stage, g) per column."""
    cands = resp.candidates
    lin = 2.0 * sigma**2 * cands.df + 0.5 * resp.resid_sq
    B, M = lin.shape
    rows = np.arange(B)
    j0 = (resp.resid_sq + 2.0 * sigma**2 * cands.df).argmin(axis=1)
    theta = np.zeros((B, M))
    theta[rows, j0] = 1.0
    vertex = resp.qp_member_rows(rows, j0).T
    resid = vertex - resp.target
    g = resp.qp_grad(resid) + lin
    fval, res, at_vertex = _certificate(g, theta, resid, lin)
    jadd = g.argmin(axis=1)
    d = resp.qp_member_rows(rows, jadd).T - vertex
    t = np.clip(np.divide(-res, _sq_norms(d), out=np.zeros(B), where=~at_vertex), 0.0, 1.0)
    theta[rows, jadd] += t
    theta[rows, j0] -= t
    g_t = resp.qp_grad(resid + t * d) + lin
    fval_t, res_t, ok = _certificate(g_t, theta, resid + t * d, lin)
    stage = np.where(at_vertex, 0, np.where(ok, 1, 2))
    moved = ~at_vertex
    fval[moved], res[moved], g[moved] = fval_t[moved], res_t[moved], g_t[moved]
    return theta, fval, res, stage, g


class TestBlockArithmetic:
    """The block pipeline's in-place and gathered arithmetic equals its textbook forms exactly."""

    SIGMA = 0.9

    @pytest.fixture
    def passes(self, rng):
        """A single-family pass and a q = 3 union pass whose draws reach every solve stage."""
        Q = np.linalg.qr(rng.standard_normal((12, 6)))[0]
        single = SpectralFamily(Q, rng.uniform(0.0, 1.0, (8, 6)))  # unordered: pivots happen
        Y1 = 2.0 * Q @ rng.standard_normal((6, 1)) + rng.standard_normal((12, 64))
        X = rng.standard_normal((30, 12))
        union = FamilyUnion(families=tuple(
            build_tikhonov_family(DesignProblem(
                X=X, K=np.diag(np.arange(1.0, 13.0) ** g), lambdas=np.geomspace(1e-2, 1e2, 6)
            ))
            for g in (0.0, 1.5, 3.0)
        ))
        Y2 = (X @ rng.standard_normal(12))[:, None] + rng.standard_normal((30, 64))
        out = [_response(single, Y1, block=True), _response(union, Y2, block=True)]
        for resp in out:
            stages = np.bincount(_block_solve(resp, self.SIGMA)[3], minlength=len(SOLVE_STAGES))
            assert stages.min() > 0, stages
        return out

    def test_criteria_equal_their_formulas(self, passes):
        s = self.SIGMA
        for resp in passes:
            df = resp.candidates.df
            assert np.array_equal(_qp_linear(resp, s), 2.0 * s**2 * df + 0.5 * resp.resid_sq)
            cp = _cp(resp, s)
            w = np.exp(-(cp - cp.min(axis=1, keepdims=True)) / (4.0 * s**2))
            assert np.array_equal(_softmax(cp, s), w / w.sum(axis=1, keepdims=True))

    def test_stages_equal_their_dense_forms(self, passes):
        # the vertex certificate's sums against the one-hot theta are gathers, and the
        # segment test runs on the whole block, as textbook_stages does
        for resp in passes:
            theta, fval, res, stage, *_ = _block_solve(resp, self.SIGMA)
            th, fv, rs, st, _ = textbook_stages(resp, self.SIGMA)
            assert np.array_equal(stage, st)
            early = stage < SOLVE_STAGES.index("active_set")
            assert np.array_equal(theta[early], th[early])
            assert np.array_equal(fval[early], (fv + resp.offset)[early])
            assert np.array_equal(res[early], rs[early])

    def test_products_skip_the_identity_rotation_exactly(self, passes, rng):
        for resp in passes:
            cands = resp.candidates
            B, M = resp.resid_sq.shape
            assert cands.rotations[0] is None and cands.coords is cands.families[0].basis
            # the same candidates with an explicit W_0 = np.eye multiply by it
            eye = FamilyUnion(families=cands.families)
            object.__setattr__(eye, "rotations", (np.eye(cands.coords.shape[1]),
                                                  *cands.rotations[1:]))
            full = _response(eye, resp.y, block=True)
            assert all(np.array_equal(a, b) for a, b in zip(resp.z, full.z))
            assert np.array_equal(resp.resid_sq, full.resid_sq)
            theta = np.vstack([random_interior_theta(rng, M) for _ in range(B)])
            assert np.array_equal(resp.qp_fit(theta), full.qp_fit(theta))
            r, cols = resp.qp_fit(theta) - resp.target, np.arange(0, B, 3)
            assert np.array_equal(resp.qp_grad(r[:, cols], cols), full.qp_grad(r[:, cols], cols))
            members = rng.integers(0, M, B)
            rows = resp.qp_member_rows(np.arange(B), members)
            assert np.array_equal(rows, full.qp_member_rows(np.arange(B), members))

    def test_one_family_groups_equal_the_general_grouping(self, passes, rng):
        # beside a second family on the same basis, the family's members take the
        # general grouping of a union, and their rows and losses are unchanged
        resp = passes[0]
        family = resp.candidates.families[0]
        other = SpectralFamily(family.basis, rng.uniform(0.0, 1.0, (3, family.rank)))
        pair = _response(FamilyUnion(families=(family, other)), resp.y, block=True)
        B, M = resp.resid_sq.shape
        cols, members = np.arange(B), rng.integers(0, M, B)
        rows = resp.qp_member_rows(cols, members)
        assert np.array_equal(rows, pair.qp_member_rows(cols, members))
        mu = rng.standard_normal(family.n)
        losses = resp.member_losses(members, _response(family, mu))
        assert np.array_equal(losses, pair.member_losses(members, _response(pair.candidates, mu)))

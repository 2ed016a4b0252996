"""Axiom checks, exact risks and the risk metric."""

import bisect

import numpy as np
import pytest

from conftest import (
    dense_smoother,
    member_matrix,
    pair_distance,
    random_problem,
    random_spd,
    union_and_dense,
)

from qagg.aggregate import solve_q_aggregation
from qagg.smoother import (
    FamilyUnion,
    GroundTruth,
    _COMBINATION_SEED,
    _check_ordered_pairwise,
    _shared_basis_certificate,
    check_ordered,
    member_risks,
    oracle_index,
)
from qagg.spectral import (
    DesignProblem,
    SpectralFamily,
    build_tikhonov_family,
)


class TestGroundTruth:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            GroundTruth(mu=np.zeros(3), sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            GroundTruth(mu=np.zeros(3), sigma=np.inf)
        for sigma in (1e200, 1e-200):  # sigma^2 overflows or underflows
            with pytest.raises(ValueError, match="sigma"):
                GroundTruth(mu=np.zeros(3), sigma=sigma)

    def test_sigma_bound_scales_with_n(self):
        # 4 n sigma^2 must be finite: sigma^2 = 1e306 allows n <= 44, not n = 45
        GroundTruth(mu=np.zeros(44), sigma=1e153)
        with pytest.raises(ValueError, match=r"sigma.*n = 45"):
            GroundTruth(mu=np.zeros(45), sigma=1e153)

    def test_mean_must_be_finite(self):
        for mu in (np.full(3, np.nan), np.array([0.0, np.inf, 0.0])):
            with pytest.raises(ValueError, match="mu"):
                GroundTruth(mu=mu, sigma=1.0)

    def test_dimension(self):
        assert GroundTruth(mu=np.zeros(4), sigma=1.0).n == 4

    def test_mean_must_be_a_vector(self):
        with pytest.raises(ValueError, match=r"mean must be a vector, got shape \(2, 2\)"):
            GroundTruth(mu=np.zeros((2, 2)), sigma=1.0)


def locate(union, j):
    """Map a global member index of a union to (family index, local index)."""
    j = int(j)
    if not 0 <= j < union.member_count:
        raise IndexError(f"member index {j} out of range for {union.member_count} members")
    k = bisect.bisect_right(union.offsets, j) - 1
    return k, j - union.offsets[k]


class TestFamilyUnion:
    def test_default_built_families_with_different_penalties_pool_and_solve(self, rng):
        X = rng.standard_normal((12, 5))
        lambdas = np.geomspace(1e-2, 1e2, 6)
        families = tuple(
            build_tikhonov_family(DesignProblem(X=X, K=K, lambdas=lambdas))
            for K in (np.eye(5), random_spd(rng, 5))
        )
        union = FamilyUnion(families=families)
        np.testing.assert_array_equal(union.lambdas, np.concatenate([lambdas, lambdas]))
        y = X @ rng.standard_normal(5) + rng.standard_normal(12)
        report = solve_q_aggregation(union, y, 1.0)
        assert report.converged and report.weights.theta.shape == (12,)

    def test_counts_and_locate(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 5, 3, 2))
        f2 = build_tikhonov_family(random_problem(rng, 5, 3, 3))
        union = FamilyUnion(families=(f1, f2))
        assert union.q == 2
        assert union.member_count == 5
        k, local = locate(union, 3)
        assert union.families[k] is f2 and local == 1
        assert union.offsets == (0, 2, 5)
        with pytest.raises(IndexError):
            locate(union, 5)

    @pytest.mark.parametrize(
        "make, error, message",
        [(lambda f, g: FamilyUnion(families=()), ValueError,
          "a family union needs at least one family"),
         (lambda f, g: FamilyUnion(families=(f, g)), ValueError,
          "all families in a union must share the response dimension"),
         (lambda f, g: FamilyUnion.of([f]), TypeError,
          "expected SpectralFamily or FamilyUnion, got list")],
        ids=["no-family", "mismatched-n", "not-a-family"],
    )
    def test_malformed_union_rejected_naming_it(self, rng, make, error, message):
        f = build_tikhonov_family(random_problem(rng, 5, 3, 2))
        g = build_tikhonov_family(random_problem(rng, 6, 3, 2))
        with pytest.raises(error) as info:
            make(f, g)
        assert str(info.value) == message


class TestCheckOrdered:
    def test_scaled_identities_pass(self):
        mats = [np.zeros((3, 3)), np.eye(3), 0.5 * np.eye(3)]
        report = check_ordered(mats, tol=1e-10)
        assert report.passed
        assert report.failures == ()

    def test_incomparable_projections_fail_axiom_iii(self):
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        report = check_ordered(mats, tol=1e-10)
        assert report.shrinkage_ok and report.commute_ok
        assert not report.comparable_ok
        assert any("axiom (iii)" in msg for msg in report.failures)

    def test_asymmetric_matrix_fails_axiom_i(self):
        report = check_ordered([np.array([[0.5, 0.3], [0.0, 0.5]])], tol=1e-10)
        assert not report.shrinkage_ok

    def test_expansive_matrix_fails_axiom_i(self):
        report = check_ordered([2.0 * np.eye(2)], tol=1e-10)
        assert not report.shrinkage_ok
        assert any("spectrum" in msg for msg in report.failures)

    def test_noncommuting_pair_fails_axiom_ii(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        mats = [np.diag([1.0, 0.0]), np.outer(v, v)]
        report = check_ordered(mats, tol=1e-10)
        assert not report.commute_ok

    def test_materialized_tikhonov_family_passes(self, rng):
        X = rng.standard_normal((5, 4))
        problem = DesignProblem(X=X, K=random_spd(rng, 4), lambdas=[0.1, 1.0, 10.0])
        family = build_tikhonov_family(problem)
        mats = [member_matrix(family, j) for j in range(3)]
        assert check_ordered(mats).passed

    def test_default_tolerance_is_absolute(self):
        # the default is the absolute 1e-8 of `qagg validate --tol`, whatever the scale
        assert check_ordered([0.5 * np.eye(2)]).tol == 1e-8
        report = check_ordered([(1.0 + 2e-8) * np.eye(2)])
        assert report.tol == 1e-8 and not report.shrinkage_ok

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # with tol = inf the stack {I, 3I}, spectrum 3, would pass every axiom
        with pytest.raises(ValueError, match="tolerance"):
            check_ordered([np.eye(2), 3.0 * np.eye(2)], tol=tol)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            check_ordered([])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            check_ordered([np.eye(2), np.eye(3)])

    def test_zero_size_matrices_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            check_ordered([np.zeros((0, 0)), np.zeros((0, 0))])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused_by_the_certificate_and_rejected(self, value):
        # every pairwise comparison with a nan is False: the pairwise check alone passes it
        A = 0.5 * np.eye(3)
        A[1, 2] = value
        with np.errstate(all="ignore"):
            assert _shared_basis_certificate([A, np.eye(3)], 1e-8)[0] is False
            with pytest.raises(ValueError, match="matrix 1 must be finite"):
                check_ordered([np.eye(3), A])

    def test_failed_eigh_leaves_the_pairwise_check_without_a_basis(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        mats = [np.zeros((3, 3)), 0.5 * np.eye(3), np.eye(3)]
        assert _shared_basis_certificate(mats, 1e-8) == (False, None)
        report = check_ordered(mats)
        assert report.passed and report.method == "pairwise" and report.off_diagonal is None


def same_as_pairwise(mats, tol):
    """check_ordered's report, asserted to decide exactly as the pairwise check does."""
    report = check_ordered(mats, tol)
    oracle = _check_ordered_pairwise(mats, tol)
    fields = ("passed", "shrinkage_ok", "commute_ok", "comparable_ok", "failures")
    assert [getattr(report, f) for f in fields] == [getattr(oracle, f) for f in fields]
    assert report.tol == oracle.tol == tol
    if not report.passed:  # the certificate never decides a failure
        assert report.method == "pairwise"
    return report


def rotated(rng, *diagonals):
    """Matrices with the given spectra on one random orthonormal basis."""
    n = len(diagonals[0])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return [(Q * np.asarray(w, dtype=float)) @ Q.T for w in diagonals]


def tikhonov_stack(rng, n, p, lambdas, rank=None):
    """Dense members of a Tikhonov family (member_matrix output, symmetric up to rounding)."""
    X = rng.standard_normal((n, p))
    if rank is not None:
        X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
    family = build_tikhonov_family(DesignProblem(X=X, K=random_spd(rng, p), lambdas=lambdas))
    return [member_matrix(family, j) for j in range(family.member_count)]


class TestCheckOrderedMatchesPairwise:
    """check_ordered decides every input as the pairwise check does."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_random_tikhonov_families(self, rng, tol):
        for _ in range(12):
            n = int(rng.integers(1, 12))
            p = int(rng.integers(1, 9))
            M = int(rng.integers(1, 7))
            lambdas = np.sort(rng.uniform(0.0, 50.0, size=M))
            lambdas[0] = 0.0  # alpha = 1 exactly on the fitted coordinates
            rank = int(rng.integers(1, min(n, p) + 1))
            mats = tikhonov_stack(rng, n, p, lambdas, rank=rank)
            report = same_as_pairwise(mats, tol)
            assert report.passed and report.method == "shared-basis"

    def test_duplicated_members_single_member_and_n_1(self, rng):
        mats = tikhonov_stack(rng, 7, 4, [0.0, 0.5, 2.0])
        for stack in (mats + mats[1:2], mats[1:2], [np.array([[0.25]]), np.array([[1.0]])]):
            report = same_as_pairwise(stack, 1e-8)
            assert report.passed and report.method == "shared-basis"

    def test_clustered_and_zero_spectra(self, rng):
        # a four-fold cluster on every member, a two-fold one and a zero block
        base = np.array([0.9, 0.9, 0.9, 0.9, 0.5, 0.5, 0.0, 0.0, 0.0])
        mats = rotated(rng, base, base**2, base**3, np.zeros(9))
        report = same_as_pairwise(mats, 1e-8)
        assert report.passed and report.method == "shared-basis"
        assert report.off_diagonal < 1e-12

    def test_near_symmetric_inputs(self, rng, tmp_path):
        mats = tikhonov_stack(rng, 9, 5, [0.1, 1.0, 10.0])
        assert any(np.any(A != A.T) for A in mats)
        path = tmp_path / "stack.csv"
        np.savetxt(path, np.vstack(mats), delimiter=",", fmt="%.12g")
        rows = np.loadtxt(path, delimiter=",")
        loaded = [rows[i : i + 9] for i in range(0, 27, 9)]
        for stack in (mats, loaded):
            assert same_as_pairwise(stack, 1e-8).method == "shared-basis"

    def test_commuting_but_crossing_diagonals(self, rng):
        mats = rotated(rng, [0.9, 0.6, 0.2], [0.8, 0.5, 0.1], [0.7, 0.7, 0.0])
        report = same_as_pairwise(mats, 1e-8)
        assert report.commute_ok and not report.comparable_ok

    def test_noncommuting(self, rng):
        mats = rotated(rng, [0.9, 0.5, 0.1]) + rotated(rng, [0.8, 0.4, 0.1])
        report = same_as_pairwise(mats, 1e-8)
        assert not report.commute_ok
        assert report.off_diagonal > 1e-3

    def test_nearly_commuting(self, rng):
        # ordered spectra, one basis turned by 1e-7 in a plane: axiom (ii) fails
        # by about 1e-8 while (i) and (iii) hold with room to spare
        A, B = rotated(rng, [0.9, 0.6, 0.4, 0.2], [0.8, 0.5, 0.3, 0.1])
        c, s = np.cos(1e-7), np.sin(1e-7)
        G = np.eye(4)
        G[np.ix_([0, 3], [0, 3])] = [[c, -s], [s, c]]
        report = same_as_pairwise([A, G @ B @ G.T], 1e-8)
        assert report.shrinkage_ok and report.comparable_ok and not report.commute_ok

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_nearly_commuting_sweep(self, rng, tol):
        # the same construction turned by 1e-10 ... 1e-4: the certificate passes only
        # what the pairwise check passes, and decides the smallest turn itself
        A, B = rotated(rng, [0.9, 0.6, 0.4, 0.2], [0.8, 0.5, 0.3, 0.1])
        methods = []
        for angle in np.geomspace(1e-10, 1e-4, 13):
            c, s = np.cos(angle), np.sin(angle)
            G = np.eye(4)
            G[np.ix_([0, 3], [0, 3])] = [[c, -s], [s, c]]
            report = same_as_pairwise([A, G @ B @ G.T], tol)
            methods.append(report.method)
        assert methods[0] == "shared-basis" and methods[-1] == "pairwise"

    def test_exactly_symmetric_stack_and_a_skewed_copy(self, rng):
        # an exactly symmetric member is its own symmetric part; a 1e-13 skew is symmetrized
        mats = [0.5 * (A + A.T) for A in tikhonov_stack(rng, 12, 5, [0.0, 0.3, 3.0, 30.0])]
        skew = rng.standard_normal((12, 12))
        skewed = list(mats)
        skewed[2] = mats[2] + 1e-13 * (skew - skew.T)
        reports = [same_as_pairwise(stack, 1e-8) for stack in (mats, skewed)]
        for report in reports:
            assert report.passed and report.method == "shared-basis"
        assert abs(reports[0].off_diagonal - reports[1].off_diagonal) < 1e-12
        assert not same_as_pairwise(skewed, 1e-13).shrinkage_ok

    @pytest.mark.parametrize(
        "n, size, flags",
        [(6, 3e-9, (True, True)), (6, 3e-8, (False, False)), (60, 3e-9, (True, False))],
    )
    def test_asymmetric_within_and_beyond_tol(self, rng, n, size, flags):
        # max |A - A^T| is 2 * size; at n = 60 an asymmetry within tol breaks commutation
        mats = tikhonov_stack(rng, n, 4, [0.2, 2.0])
        skew = rng.standard_normal((n, n))
        mats[1] = mats[1] + size * (skew - skew.T) / np.abs(skew - skew.T).max()
        report = same_as_pairwise(mats, 1e-8)
        assert (report.shrinkage_ok, report.commute_ok) == flags

    @pytest.mark.parametrize("excess", [-5e-9, 5e-9, 2e-8])
    def test_spectrum_at_the_edges_of_the_unit_interval(self, rng, excess):
        for top, bottom in ((1.0 + excess, 0.1), (0.7, -excess)):
            mats = rotated(rng, [top, 0.6, 0.3], [0.5, 0.4, bottom])
            report = same_as_pairwise(mats, 1e-8)
            assert report.shrinkage_ok == (excess < 1e-8)
            assert report.commute_ok and report.comparable_ok

    def test_benchmark_sized_stack_is_certified(self, rng):
        # n = 200, 50 members of rank 40: a 160-dimensional zero cluster
        n, M, r = 200, 50, 40
        U = np.linalg.qr(rng.standard_normal((n, r)))[0]
        mu2 = np.geomspace(1.0, 1e3, r)
        mats = []
        for lam in np.geomspace(1e-1, 1e4, M):
            A = (U * (mu2 / (mu2 + lam))) @ U.T
            mats.append(0.5 * (A + A.T))
        report = check_ordered(mats, tol=1e-8)
        assert report.passed and report.method == "shared-basis"
        assert report.off_diagonal < 1e-12


def all_pairs_certificate(mats, tol):
    """The shared-basis certificate with A - A^T formed for every member and every
    pair bounded in turn: the reference _shared_basis_certificate's outputs equal."""
    n, count = mats[0].shape[0], len(mats)
    unit = np.finfo(float).eps / 2
    gamma = n * unit / (1.0 - n * unit)
    c = np.random.default_rng(_COMBINATION_SEED).uniform(1.0, 2.0, size=count)
    combo = np.zeros((n, n))
    for cj, A in zip(c, mats):
        combo += cj * A
    try:
        _, Q = np.linalg.eigh(0.5 * (combo + combo.T))
    except np.linalg.LinAlgError:
        return False, None
    eta = float(np.linalg.norm(Q.T @ Q - np.eye(n))) + n * gamma
    margin = 4.0 * (eta + np.sqrt(n) * gamma)
    d = np.empty((count, n))
    eps, delta, nu, asym = (np.empty(count) for _ in range(4))
    for j, A in enumerate(mats):
        skew = A - A.T
        asym[j] = skew.max()
        nu[j] = 0.5 * np.linalg.norm(skew)
        S = A if asym[j] == 0.0 else 0.5 * (A + A.T)
        P = S @ Q
        d[j] = np.einsum("ij,ij->j", Q, P)
        P -= Q * d[j]
        eps[j] = np.linalg.norm(P)
        delta[j] = margin * np.linalg.norm(S)
    off_diagonal = float(eps.max())
    if not eta < 0.25:
        return False, off_diagonal
    rho = eps / (1.0 - eta) + delta
    lo, hi = d.min(axis=1), d.max(axis=1)
    if not np.all((asym <= tol) & (lo - rho >= -tol) & (hi + rho <= 1.0 + tol)):
        return False, off_diagonal
    spread = hi - lo
    s = np.maximum(hi, -lo) + rho
    for j in range(count - 1):
        k = slice(j + 1, None)
        comm = (
            spread[j] * rho[k]
            + spread[k] * rho[j]
            + 2.0 * rho[j] * rho[k]
            + 2.0 * (s[j] * nu[k] + s[k] * nu[j] + nu[j] * nu[k])
        )
        diff = d[k] - d[j]
        slack = rho[k] + rho[j] - tol
        ordered = (diff.min(axis=1) >= slack) | (-diff.max(axis=1) >= slack)
        if not (np.all(comm <= tol) and np.all(ordered)):
            return False, off_diagonal
    return True, off_diagonal


def certificate_case(rng, kind):
    """A random stack of one kind for the certificate's equivalence test."""
    n, M = int(rng.integers(1, 13)), int(rng.integers(1, 9))
    if kind == "ordered":  # an ordered stack, members shuffled
        mats = rotated(rng, *np.sort(rng.uniform(0.0, 1.0, size=(M, n)), axis=0))
        return [mats[j] for j in rng.permutation(M)]
    if kind == "ties":  # repeated members and repeated eigenvalues
        w = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0], size=(M, n)), axis=0)
        mats = rotated(rng, *w)
        return mats + [mats[int(rng.integers(M))] for _ in range(int(rng.integers(1, 4)))]
    if kind == "nested":  # projections onto nested coordinate subspaces of one basis
        sizes = rng.integers(0, n + 1, size=M)
        return rotated(rng, *[(np.arange(n) < k).astype(float) for k in sizes])
    if kind == "low-rank":
        p = int(rng.integers(1, 9))
        lambdas = np.sort(rng.uniform(0.0, 50.0, size=M))
        return tikhonov_stack(rng, max(n, 2), p, lambdas, rank=int(rng.integers(1, 3)))
    if kind == "crossing":  # commuting; the first two spectra cross by 0.1 or more
        w = rng.uniform(0.0, 1.0, size=(max(M, 2), max(n, 2)))
        w[:2, :2] = [[0.6, 0.2], [0.4, 0.3]]
        return rotated(rng, *w)
    if kind == "skewed":  # an ordered stack, one member 1e-12 off symmetric
        spectra = np.sort(rng.uniform(0.0, 1.0, size=(M, n)), axis=0)
        mats = rotated(rng, *spectra)
        skew = rng.standard_normal((n, n))
        mats[int(rng.integers(M))] += 1e-12 * (skew - skew.T)
        return mats
    # non-commuting: ordered spectra in two bases
    w = np.sort(rng.uniform(0.0, 1.0, size=(2, max(n, 2))), axis=0)
    return rotated(rng, w[0]) + rotated(rng, w[1])


class TestCertificateMatchesAllPairs:
    """The sorted pass decides nothing the all-pairs bound would decide otherwise."""

    KINDS = ("ordered", "ties", "nested", "low-rank", "crossing", "skewed", "non-commuting")

    @pytest.mark.parametrize("tol", [1e-8, 1e-14])
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_outputs_as_all_pairs(self, rng, kind, tol):
        certified = 0
        for _ in range(60):
            mats = certificate_case(rng, kind)
            got = _shared_basis_certificate(mats, tol)
            assert got == all_pairs_certificate(mats, tol)
            certified += got[0]
        if tol == 1e-8 and kind in ("ordered", "ties", "nested", "low-rank", "skewed"):
            assert certified == 60
        if kind in ("crossing", "non-commuting"):
            assert certified == 0


class TestExactRisk:
    def test_zero_smoother_zero_mean(self):
        family = SpectralFamily(np.eye(3)[:, :2], [[0.0, 0.0]])
        truth = GroundTruth(mu=np.zeros(3), sigma=1.0)
        assert member_risks(family, truth)[0] == 0.0

    def test_identity_smoother_pure_variance(self, rng):
        n = 4
        problem = DesignProblem(X=np.eye(n), K=np.eye(n), lambdas=[0.0])
        family = build_tikhonov_family(problem)
        mu = family.basis @ rng.standard_normal(n)
        truth = GroundTruth(mu=mu, sigma=0.5)
        assert abs(member_risks(family, truth)[0] - n * 0.25) < 1e-10

    def test_matches_monte_carlo(self, rng):
        problem = random_problem(rng, n=6, p=4, M=3)
        family = build_tikhonov_family(problem)
        truth = GroundTruth(mu=rng.standard_normal(6), sigma=0.8)
        A = dense_smoother(problem.X, problem.K, problem.lambdas[1])
        draws = 1_000_000
        eps = truth.sigma * rng.standard_normal((draws, 6))
        losses = np.sum(((truth.mu + eps) @ A.T - truth.mu) ** 2, axis=1)
        mc_mean = losses.mean()
        mc_se = losses.std(ddof=1) / np.sqrt(draws)
        assert abs(member_risks(family, truth)[1] - mc_mean) < 3 * mc_se

    def test_ideal_shrinkage_beats_every_member(self, rng):
        # the best coordinatewise shrinker m_i^2 / (m_i^2 + sigma^2) lower-bounds
        # the family risks; sanity for the oracle notion
        for _ in range(10):
            problem = random_problem(rng, n=9, p=5, M=5)
            family = build_tikhonov_family(problem)
            truth = GroundTruth(mu=family.basis @ rng.standard_normal(family.rank), sigma=0.8)
            m = family.basis.T @ truth.mu
            best = m**2 / (m**2 + truth.sigma**2)
            ideal_risk = float(
                truth.sigma**2 * (best**2).sum() + (best - 1.0) ** 2 @ m**2
            )
            risks = member_risks(family, truth)
            assert ideal_risk <= risks.min() + 1e-12

    def test_mean_outside_span_contributes_fixed_bias(self, rng):
        X = rng.standard_normal((6, 2))
        problem = DesignProblem(X=X, K=np.eye(2), lambdas=[1.0])
        family = build_tikhonov_family(problem)
        mu_in = family.basis @ rng.standard_normal(2)
        q, _ = np.linalg.qr(np.column_stack([family.basis, rng.standard_normal(6)]))
        mu_out = 2.0 * q[:, -1]  # orthogonal to span(U)
        risk_in = member_risks(family, GroundTruth(mu=mu_in, sigma=1.0))[0]
        risk_both = member_risks(family, GroundTruth(mu=mu_in + mu_out, sigma=1.0))[0]
        assert abs(risk_both - risk_in - mu_out @ mu_out) < 1e-10


    @pytest.mark.parametrize("designs", [1, 2])
    def test_union_matches_dense(self, rng, designs):
        union, mats = union_and_dense(rng, designs)
        assert (union.coords is union.families[0].basis) == (designs == 1)
        truth = GroundTruth(mu=rng.standard_normal(union.n), sigma=0.7)
        want = [
            truth.sigma**2 * np.sum(A**2) + np.sum((A @ truth.mu - truth.mu) ** 2) for A in mats
        ]
        np.testing.assert_allclose(member_risks(union, truth), want, rtol=1e-10, atol=0)


class TestPairDistance:
    def test_identical_members(self, rng, small_family):
        _, family = small_family
        truth = GroundTruth(mu=rng.standard_normal(5), sigma=1.0)
        assert pair_distance(family, 1, 1, truth) == 0.0

    def test_zero_mean_reduces_to_frobenius(self, small_family):
        _, family = small_family
        truth = GroundTruth(mu=np.zeros(5), sigma=0.7)
        expected = 0.7 * np.linalg.norm(family.alphas[0] - family.alphas[2])
        assert abs(pair_distance(family, 0, 2, truth) - expected) < 1e-12

    def test_matches_dense(self, rng):
        problem = random_problem(rng, n=7, p=4, M=3)
        family = build_tikhonov_family(problem)
        truth = GroundTruth(mu=rng.standard_normal(7), sigma=1.3)
        A0 = dense_smoother(problem.X, problem.K, problem.lambdas[0])
        A2 = dense_smoother(problem.X, problem.K, problem.lambdas[2])
        diff = A0 - A2
        expected = np.sqrt(
            truth.sigma**2 * np.sum(diff**2) + np.sum((diff @ truth.mu) ** 2)
        )
        assert abs(pair_distance(family, 0, 2, truth) - expected) < 1e-10

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(10):
            problem = random_problem(rng, n=8, p=5, M=3)
            family = build_tikhonov_family(problem)
            truth = GroundTruth(mu=rng.standard_normal(8), sigma=0.9)
            d01 = pair_distance(family, 0, 1, truth)
            d12 = pair_distance(family, 1, 2, truth)
            d02 = pair_distance(family, 0, 2, truth)
            assert d01 == pair_distance(family, 1, 0, truth)
            assert d02 <= d01 + d12 + 1e-9


class TestOracleIndex:
    def test_zero_mean_prefers_largest_lambda(self, rng):
        problem = random_problem(rng, n=8, p=5, M=4)
        family = build_tikhonov_family(problem)
        truth = GroundTruth(mu=np.zeros(8), sigma=1.0)
        j_star, r_star = oracle_index(family, truth)
        assert j_star == family.member_count - 1
        assert abs(r_star - (family.alphas[-1] ** 2).sum()) < 1e-12

    def test_single_member(self, rng):
        problem = random_problem(rng, n=6, p=3, M=1)
        family = build_tikhonov_family(problem)
        truth = GroundTruth(mu=rng.standard_normal(6), sigma=1.0)
        j_star, r_star = oracle_index(family, truth)
        assert j_star == 0
        assert r_star == member_risks(family, truth)[0]

    def test_matches_exhaustive_scan_and_monte_carlo(self, rng):
        problem = random_problem(rng, n=10, p=6, M=6)
        family = build_tikhonov_family(problem)
        coef = np.arange(1, family.rank + 1) ** -1.0
        truth = GroundTruth(mu=2.0 * family.basis @ coef, sigma=1.0)
        j_star, r_star = oracle_index(family, truth)
        risks = member_risks(family, truth)
        assert j_star == int(np.argmin(risks))
        assert r_star == risks.min()
        # Monte Carlo cross-check of the winning member's risk
        A = dense_smoother(problem.X, problem.K, problem.lambdas[j_star])
        draws = 200_000
        eps = rng.standard_normal((draws, 10))
        losses = np.sum(((truth.mu + eps) @ A.T - truth.mu) ** 2, axis=1)
        assert abs(r_star - losses.mean()) < 3 * losses.std(ddof=1) / np.sqrt(draws)

    def test_union_indexing(self, rng):
        f1 = build_tikhonov_family(random_problem(rng, 6, 3, 2))
        f2 = build_tikhonov_family(random_problem(rng, 6, 4, 3))
        union = FamilyUnion(families=(f1, f2))
        truth = GroundTruth(mu=rng.standard_normal(6), sigma=1.0)
        risks = member_risks(union, truth)
        assert risks.shape == (5,)
        j_star, r_star = oracle_index(union, truth)
        assert risks[j_star] == r_star == risks.min()

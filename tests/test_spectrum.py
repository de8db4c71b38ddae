"""Link spectrum tests: the shooting and finite-difference oracles of
oracles.py, the first eigenvalue from the margin root against them, and
indicial roots."""

import math
import sys

import pytest

import conelab._backend
import oracles
from conelab.cli import main
from conelab.cone import (
    ConeParams,
    Verdict,
    find_root,
    indicial_roots,
    stability_margin,
    verdict,
)
from conelab.errors import BracketFailure, NonConvergenceError
from oracles import (
    Mode,
    _fd_matrix,
    _lowest_eigenvalue,
    boundary_rhs,
    fd_oracle_lambda1,
    find_eigenvalue,
    shoot,
)


class TestShoot:
    def test_constant_solution_at_zero(self):
        p = ConeParams(8, 3)
        d, zeros = shoot(p, find_root(p), 0.0)
        assert d == 0.0 and zeros == 0

    def test_profile_identity(self):
        # lambda = alpha (alpha + n - 2) at alpha = 4-n turns the shot into
        # the subsolution profile: mismatch equals the criterion margin
        p = ConeParams(9, 4)
        root = find_root(p)
        lam = (4.0 - 9.0) * (4.0 - 9.0 + 9.0 - 2.0)
        d, zeros = shoot(p, root, lam)
        _, rhs = boundary_rhs(p, root)
        margin = stability_margin(p, 4.0 - 9.0, root)
        assert zeros == 0
        assert math.isclose(d - rhs, margin, rel_tol=1e-7, abs_tol=1e-9)

    def test_oscillation_direction(self):
        # zero counts are monotone in lambda: disconjugate far below the
        # first eigenvalue, oscillatory above the second
        p = ConeParams(9, 4)
        root = find_root(p)
        _, zeros_low = shoot(p, root, -240.0)
        assert zeros_low == 0
        lam2 = find_eigenvalue(p, root, index=1).lam
        _, zeros_high = shoot(p, root, lam2 + 2.0)
        assert zeros_high >= 1

    def test_launch_insensitive(self, monkeypatch):
        cones = [(p, find_root(p)) for p in (ConeParams(7, 3), ConeParams(12, 10))]
        assert oracles.T_LAUNCH == 1e-6
        at_default = [find_eigenvalue(p, root).lam for p, root in cones]
        monkeypatch.setattr(oracles, "T_LAUNCH", 5e-7)
        for (p, root), lam in zip(cones, at_default):
            assert abs(find_eigenvalue(p, root).lam - lam) <= 1e-11


class TestFindEigenvalue:
    def test_table_values(self):
        for (n, k, neg_lam) in [(7, 1, 5.698), (12, 10, 10.531), (10, 8, 8.536)]:
            p = ConeParams(n, k)
            res = find_eigenvalue(p, find_root(p))
            assert abs(-res.lam - neg_lam) < 5e-4
            assert res.zeros_interior == 0
            assert res.bc_residual <= 1e-9

    def test_boundary_residual_contract_across_family(self):
        for n in (5, 9, 14, 20):
            for k in (1, n // 2, n - 2):
                p = ConeParams(n, k)
                assert find_eigenvalue(p, find_root(p)).bc_residual <= 1e-9

    def test_gamma_from_table_seven_one(self):
        p = ConeParams(7, 1)
        res = find_eigenvalue(p, find_root(p))
        # gamma+ = -5/2 + sqrt(25/4 + lambda1)
        want = -2.5 + math.sqrt(6.25 + res.lam)
        assert math.isclose(res.gamma_plus, want, rel_tol=1e-12)
        assert abs(res.gamma_plus - (-1.757)) < 5e-4

    def test_higher_index_ordering(self):
        p = ConeParams(7, 2)
        root = find_root(p)
        l0 = find_eigenvalue(p, root, index=0)
        l1 = find_eigenvalue(p, root, index=1)
        l2 = find_eigenvalue(p, root, index=2)
        assert l0.lam < l1.lam < l2.lam
        assert (l0.zeros_interior, l1.zeros_interior, l2.zeros_interior) == (0, 1, 2)

    def test_bracket_widening_small_n(self):
        p = ConeParams(3, 1)
        res = find_eigenvalue(p, find_root(p))
        assert res.lam < -((3 - 2) / 2.0) ** 2  # unstable cone

    def test_mode_monotonicity(self):
        p = ConeParams(8, 4)
        r = find_root(p)
        base = find_eigenvalue(p, r, Mode(0, 0)).lam
        assert find_eigenvalue(p, r, Mode(1, 0)).lam >= base - 1e-10
        assert find_eigenvalue(p, r, Mode(0, 1)).lam >= base - 1e-10
        assert find_eigenvalue(p, r, Mode(0, 2)).lam >= find_eigenvalue(p, r, Mode(0, 1)).lam - 1e-10
        assert find_eigenvalue(p, r, Mode(2, 0)).lam >= find_eigenvalue(p, r, Mode(1, 0)).lam - 1e-10

    def test_first_eigenfunction_positive(self):
        for (n, k) in [(7, 1), (10, 5), (13, 11)]:
            p = ConeParams(n, k)
            res = find_eigenvalue(p, find_root(p))
            assert res.zeros_interior == 0

    def test_exhausted_bracket(self):
        # eigenvalues grow like index^2; two widenings from the default
        # bracket cannot reach the 50th one
        p = ConeParams(7, 1)
        with pytest.raises(BracketFailure, match="above lambda=3684.0"):
            find_eigenvalue(p, find_root(p), index=50)

    def test_shot_budget(self, monkeypatch):
        # the Pruefer-angle solve, widenings and final shot included
        calls = _count_shots(monkeypatch)
        for n in range(3, 41):
            for k in sorted({1, n // 2, n - 2}):
                p = ConeParams(n, k)
                root = find_root(p)
                before = len(calls)
                find_eigenvalue(p, root)
                assert 0 < len(calls) - before <= 30, (n, k, len(calls) - before)

    def test_boundary_residual_bound_enforced(self, monkeypatch):
        # a log-derivative that jumps over the Robin side by +-1e-6 has no
        # root: the solver converges onto the jump and must not report it
        p = ConeParams(7, 1)
        root = find_root(p)
        _, rhs = boundary_rhs(p, root)

        def jumping_shoot(pars, root, lam, *rest):
            return rhs + (1e-6 if lam < -5.0 else -1e-6), 0

        monkeypatch.setattr("oracles.shoot", jumping_shoot)
        with pytest.raises(NonConvergenceError,
                           match=r"mode \(0,0\) at \(n,k\)=\(7,1\).*1\.000e-06"):
            find_eigenvalue(p, root)


def _count_shots(monkeypatch):
    """Count robin_shoot calls through every namespace binding it: the
    conelab modules and the oracles."""
    raw = conelab._backend.robin_shoot
    calls = []

    def counted(*args):
        calls.append(args)
        return raw(*args)

    for name, mod in list(sys.modules.items()):
        if ((name.startswith("conelab.") or name == "oracles")
                and getattr(mod, "robin_shoot", None) is raw):
            monkeypatch.setattr(mod, "robin_shoot", counted)
    return calls


class TestFirstEigenvalue:
    def test_matches_shooting(self):
        # the margin root in lambda against the independent shooting solve:
        # every cell with n <= 6 (complex gamma+-), three per n above
        for n in range(3, 41):
            for k in (range(1, n - 1) if n <= 6 else sorted({1, n // 2, n - 2})):
                p = ConeParams(n, k)
                root = find_root(p)
                dual, shot = verdict(p, root), find_eigenvalue(p, root)
                assert shot.zeros_interior == 0
                assert dual.residual <= 1e-9
                assert (dual.gamma_plus is None) == (shot.gamma_plus is None) == (n <= 6)
                for got, want in [(dual.lambda1, shot.lam), (dual.gamma_plus, shot.gamma_plus),
                                  (dual.gamma_minus, shot.gamma_minus)]:
                    if want is not None:
                        assert math.isclose(got, want, rel_tol=1e-9), (n, k, got, want)

    def test_complex_pair_shoots(self):
        # (6, 2) is unstable: gamma+- are complex, and the margin root in
        # lambda agrees with shooting
        p = ConeParams(6, 2)
        root = find_root(p)
        rep = verdict(p, root)
        assert math.isclose(rep.lambda1, find_eigenvalue(p, root).lam, rel_tol=1e-9)
        assert rep.gamma_plus is None

    def test_table_does_not_shoot(self, capsys, monkeypatch):
        calls = _count_shots(monkeypatch)
        assert main(["table", "--n", "7", "8"]) == 0
        # the n <= 6 cells take the margin root in lambda too
        assert main(["scan", "--n-max", "6"]) == 0
        assert main(["analyze", "--n", "6", "--k", "2"]) == 0
        assert len(calls) == 0
        # verify's Riccati cross-check still shoots, by design
        assert main(["verify", "--suite", "riccati"]) == 0
        assert len(calls) > 0
        capsys.readouterr()


class TestIndicialRoots:
    def test_lambda_zero(self):
        gm, gp = indicial_roots(0.0, 9)
        assert gm == 2.0 - 9.0 and gp == 0.0

    def test_double_root(self):
        n = 8
        lam = -((n - 2) / 2.0) ** 2
        gm, gp = indicial_roots(lam, n)
        assert gm == gp == (2.0 - n) / 2.0

    def test_complex_flag(self):
        assert indicial_roots(-10.0, 8) is None

    def test_sum_identity(self):
        for (lam, n) in [(-5.698, 7), (-8.5, 10), (-0.3, 12)]:
            gm, gp = indicial_roots(lam, n)
            assert abs(gm + gp - (2.0 - n)) < 1e-10
            assert abs(gm * gp - (-lam)) < 1e-9  # product = -(lambda)


class TestFdOracle:
    def test_matches_shooting(self):
        for (n, k) in [(7, 1), (9, 4)]:
            p = ConeParams(n, k)
            root = find_root(p)
            lam_shoot = find_eigenvalue(p, root).lam
            l1 = fd_oracle_lambda1(p, root, grid_n=2000)
            l2 = fd_oracle_lambda1(p, root, grid_n=4000)
            rich = (4.0 * l2 - l1) / 3.0
            assert abs(rich - lam_shoot) <= 1e-4 * abs(lam_shoot)

    def test_negative_for_all(self):
        for (n, k) in [(3, 1), (6, 2), (7, 5), (12, 6)]:
            p = ConeParams(n, k)
            assert fd_oracle_lambda1(p, find_root(p), grid_n=800) < 0.0

    def test_second_order_convergence(self):
        p = ConeParams(8, 3)
        root = find_root(p)
        exact = find_eigenvalue(p, root).lam
        errs = [abs(fd_oracle_lambda1(p, root, grid_n=g) - exact)
                for g in (500, 1000, 2000)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for o in orders:
            assert 1.7 < o < 2.3

    def test_translation_modes_are_exact_zero_modes(self):
        # coordinate translations produce degree-0 Jacobi fields, so the
        # first eigenvalue of the (1,0) and (0,1) modes vanishes exactly
        p = ConeParams(8, 4)
        root = find_root(p)
        assert abs(find_eigenvalue(p, root, Mode(0, 1)).lam) < 1e-9
        assert abs(find_eigenvalue(p, root, Mode(1, 0)).lam) < 1e-9
        rich = (4.0 * fd_oracle_lambda1(p, root, Mode(0, 1), grid_n=4000)
                - fd_oracle_lambda1(p, root, Mode(0, 1), grid_n=2000)) / 3.0
        assert abs(rich) < 1e-6

    def test_q_mode_dirichlet_path(self):
        # a genuinely nonzero q-mode eigenvalue agrees with the oracle
        p = ConeParams(8, 4)
        root = find_root(p)
        lam_shoot = find_eigenvalue(p, root, Mode(0, 2)).lam
        l1 = fd_oracle_lambda1(p, root, Mode(0, 2), grid_n=2000)
        l2 = fd_oracle_lambda1(p, root, Mode(0, 2), grid_n=4000)
        rich = (4.0 * l2 - l1) / 3.0
        assert abs(rich - lam_shoot) <= 2e-4 * max(1.0, abs(lam_shoot))

    @pytest.mark.parametrize("n,k", [(30, 28), (40, 38)])
    def test_matches_shooting_k_near_n(self, n, k):
        # the weight t^(k-1) vanishes to high order at the axis, so the
        # axis half cell must integrate it exactly
        p = ConeParams(n, k)
        root = find_root(p)
        lam_shoot = find_eigenvalue(p, root).lam
        l1 = fd_oracle_lambda1(p, root, grid_n=2000)
        l2 = fd_oracle_lambda1(p, root, grid_n=4000)
        rich = (4.0 * l2 - l1) / 3.0
        assert abs(rich - lam_shoot) <= 1e-4 * abs(lam_shoot)

    @pytest.mark.parametrize("n,k,mode,grid_n", [
        (7, 1, Mode(), 2000), (9, 4, Mode(), 4000), (40, 38, Mode(), 4000),
        (8, 4, Mode(0, 1), 2000), (8, 4, Mode(0, 2), 2000), (8, 4, Mode(1, 0), 2000),
    ])
    def test_sturm_bisection_matches_lapack(self, n, k, mode, grid_n):
        # the same matrix through LAPACK's dstebz, asked for full accuracy
        np = pytest.importorskip("numpy")
        linalg = pytest.importorskip("scipy.linalg")
        p = ConeParams(n, k)
        d, e = _fd_matrix(p, find_root(p), mode, grid_n)
        want = linalg.eigh_tridiagonal(np.array(d), np.array(e), select="i",
                                       select_range=(0, 0), eigvals_only=True,
                                       tol=1e-300)[0]
        assert abs(_lowest_eigenvalue(d, e) - want) <= 1e-12 * abs(want)

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            p = ConeParams(7, 1)
            fd_oracle_lambda1(p, find_root(p), grid_n=100)


class TestVerdictDuality:
    def test_threshold_equivalence(self):
        for n in range(3, 16):
            for k in range(1, n - 1):
                p = ConeParams(n, k)
                root = find_root(p)
                lam = find_eigenvalue(p, root).lam
                stable = lam > -((n - 2) / 2.0) ** 2
                assert stable == (verdict(p, root).verdict is Verdict.STRICTLY_STABLE)


import math

import numpy as np
import pytest

from frictionopt import (
    MonotonePath,
    RationalEnumeration,
    Strategy,
    TimeGrid,
    converges_at_continuity_points,
    komlos_average,
    rho,
)
from frictionopt.errors import ConfigError, GridMismatchError
from frictionopt.fvproc import position_recursion


def path_from_jumps(grid, jumps):
    arr = np.zeros(grid.steps + 1)
    arr[1:] = jumps
    return MonotonePath(grid, arr)


class TestMonotonePath:
    def test_rejects_negative_or_initial_jumps(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ConfigError):
            MonotonePath(g, np.array([0.0, 1.0, -0.5, 0.0, 0.0]))
        with pytest.raises(ConfigError):
            MonotonePath(g, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))

    def test_right_continuous_evaluation(self):
        g = TimeGrid(1.0, 4)
        p = path_from_jumps(g, [1.0, 0.0, 2.0, 0.0])
        assert p.value(0.0) == 0.0
        assert p.value(0.25) == 1.0  # jump at 0.25 counts from 0.25 on
        assert p.value(0.3) == 1.0
        assert p.value(0.75) == 3.0
        assert p.value(1.0) == 3.0
        assert p.terminal() == 3.0

    def test_values_at_vectorized(self):
        g = TimeGrid(1.0, 2)
        p = path_from_jumps(g, [0.5, 0.25])
        np.testing.assert_array_equal(p.values_at(np.array([0.0, 0.49, 0.5, 1.0])), [0.0, 0.0, 0.5, 0.75])

    def test_the_callers_array_stays_writable_and_unshared(self):
        jumps = np.array([0.0, 1.0, 0.5])
        path = MonotonePath(TimeGrid(1.0, 2), jumps)
        assert jumps.flags.writeable and not path.jumps.flags.writeable
        jumps[1] = 7.0
        np.testing.assert_array_equal(path.jumps, [0.0, 1.0, 0.5])


class TestRationalEnumeration:
    def test_leading_points(self):
        e = RationalEnumeration(1.0, 8)
        np.testing.assert_allclose(e.points, [1.0, 0.0, 1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4, 1 / 5])

    def test_scales_with_horizon(self):
        e = RationalEnumeration(2.0, 5)
        np.testing.assert_allclose(e.points, [2.0, 0.0, 1.0, 2 / 3, 4 / 3])

    def test_no_duplicates(self):
        e = RationalEnumeration(1.0, 200)
        assert len(np.unique(e.points)) == 200


class TestRho:
    def g(self):
        return TimeGrid(1.0, 4)

    def test_identity_and_symmetry_exact(self):
        g = self.g()
        f = path_from_jumps(g, [0.25, 0.5, 0.0, 0.125])
        h = path_from_jumps(g, [0.5, 0.0, 0.25, 0.25])
        e = RationalEnumeration(1.0, 30)
        assert rho(f, f, e).value == 0.0
        assert rho(f, h, e).value == rho(h, f, e).value
        assert rho(f, h, e).value > 0.0

    def test_triangle_exact_on_dyadic_fixture(self):
        # dyadic jumps keep every float op exact, so the triangle inequality is bitwise
        g = self.g()
        f = path_from_jumps(g, [0.25, 0.25, 0.0, 0.0])
        h = path_from_jumps(g, [0.0, 0.5, 0.25, 0.0])
        k = path_from_jumps(g, [0.125, 0.0, 0.5, 0.25])
        e = RationalEnumeration(1.0, 16)
        assert rho(f, k, e).value <= rho(f, h, e).value + rho(h, k, e).value

    def test_leading_weight_is_terminal_gap(self):
        g = self.g()
        f = path_from_jumps(g, [0.0, 0.0, 0.0, 1.0])
        z = path_from_jumps(g, [0.0, 0.0, 0.0, 0.0])
        e = RationalEnumeration(1.0, 1)
        # single enumerated point is T itself with weight 1
        assert rho(f, z, e).value == 1.0

    def test_truncation_bound(self):
        g = self.g()
        f = path_from_jumps(g, [1.0, 1.0, 0.0, 2.0])
        z = path_from_jumps(g, [0.0, 0.5, 0.5, 0.0])
        kshort = RationalEnumeration(1.0, 6)
        klong = RationalEnumeration(1.0, 40)
        short = rho(f, z, kshort)
        long = rho(f, z, klong)
        assert short.truncation_bound == 2.0 ** (-5) * (4.0 + 1.0)
        # refining the enumeration moves the value by at most the stated bound
        assert abs(long.value - short.value) <= short.truncation_bound

    def test_grid_mismatch_rejected(self):
        f = path_from_jumps(TimeGrid(1.0, 4), [0.0, 0.0, 0.0, 0.0])
        h = path_from_jumps(TimeGrid(1.0, 5), [0.0] * 5)
        with pytest.raises(GridMismatchError):
            rho(f, h, RationalEnumeration(1.0, 4))


class TestKomlosAverage:
    def test_constant_sequence_exact(self):
        g = TimeGrid(1.0, 4)
        f = path_from_jumps(g, [0.25, 0.5, 0.0, 0.25])
        res = komlos_average([f] * 7)
        e = RationalEnumeration(1.0, 20)
        for avg in res.averages:
            assert rho(avg, f, e).value == 0.0
        assert rho(res.candidate, f, e).value == 0.0

    def test_alternating_sequence_hits_midpoint_exactly(self):
        g = TimeGrid(1.0, 4)
        a = path_from_jumps(g, [0.25, 0.0, 0.25, 0.0])
        b = path_from_jumps(g, [0.75, 0.0, 0.25, 0.5])
        mid = path_from_jumps(g, [0.5, 0.0, 0.25, 0.25])
        res = komlos_average([a, b] * 8)
        e = RationalEnumeration(1.0, 20)
        assert rho(res.candidate, mid, e).value == 0.0
        # every even-window tail average is the midpoint too
        for n in range(0, 16, 2):
            assert rho(res.averages[n], mid, e).value == 0.0

    def test_averages_are_tail_means(self):
        g = TimeGrid(1.0, 2)
        paths = [path_from_jumps(g, [float(i), 0.0]) for i in range(1, 5)]
        res = komlos_average(paths)
        assert res.averages[0].jumps[1] == pytest.approx(2.5)
        assert res.averages[2].jumps[1] == pytest.approx(3.5)
        assert res.averages[3].jumps[1] == 4.0

    def test_random_prefix_candidates_cauchy(self):
        # distances between successive decade candidates shrink by 2x or more
        g = TimeGrid(1.0, 10)
        rng = np.random.default_rng(0)
        seq = [path_from_jumps(g, rng.exponential(0.1, size=10)) for _ in range(1000)]
        e = RationalEnumeration(1.0, 40)
        cands = [komlos_average(seq[:n]).candidate for n in (10, 100, 1000)]
        d1 = rho(cands[0], cands[1], e).value
        d2 = rho(cands[1], cands[2], e).value
        assert d2 * 2.0 <= d1

    def test_rejects_mixed_grids(self):
        a = path_from_jumps(TimeGrid(1.0, 2), [0.0, 0.0])
        b = path_from_jumps(TimeGrid(1.0, 3), [0.0, 0.0, 0.0])
        with pytest.raises(GridMismatchError):
            komlos_average([a, b])


class TestConvergenceReport:
    def test_constant_sequence_passes_everywhere(self):
        g = TimeGrid(1.0, 4)
        f = path_from_jumps(g, [0.25, 0.0, 0.5, 0.0])
        res = komlos_average([f] * 5)
        rep = converges_at_continuity_points(res.averages, res.candidate, tol=0.0)
        assert rep.pass_fraction == 1.0

    def test_horizon_always_checked(self):
        g = TimeGrid(1.0, 2)
        lim = path_from_jumps(g, [0.0, 5.0])  # big jump at T
        rep = converges_at_continuity_points([lim], lim, tol=1e-3)
        assert rep.checked[-1]
        assert rep.passed[-1]

    def test_jump_times_excluded(self):
        g = TimeGrid(1.0, 4)
        lim = path_from_jumps(g, [0.0, 3.0, 0.0, 0.0])
        off = path_from_jumps(g, [0.0, 3.5, 0.0, 0.0])
        rep = converges_at_continuity_points([off], lim, tol=1e-2)
        # the 0.5 disagreement sits at the limit's jump time, which is not checked
        assert not rep.checked[2]
        assert rep.pass_fraction < 1.0 or rep.checked.sum() < len(rep.checked)

    def test_random_tail_averages_pass_at_most_grid_times(self):
        g = TimeGrid(1.0, 10)
        rng = np.random.default_rng(1)
        seq = [path_from_jumps(g, rng.exponential(0.01, size=10)) for _ in range(800)]
        res = komlos_average(seq)
        # deep-window averages (small n) are close to the candidate
        rep = converges_at_continuity_points(res.averages[:40], res.candidate, tol=1e-2)
        assert rep.pass_fraction >= 0.99


def sequential_position(d_up, d_dn):
    """pos_i = (pos_{i-1} + up_i) - dn_i, one step at a time from a flat
    position, so pos_0 = up_0 - dn_0."""
    pos = np.empty(d_up.shape)
    pos[:, 0] = d_up[:, 0] - d_dn[:, 0]
    for i in range(1, d_up.shape[1]):
        pos[:, i] = (pos[:, i - 1] + d_up[:, i]) - d_dn[:, i]
    return pos


def mixed_magnitude_jumps(rng, paths, n1):
    """Jumps mixing 1e16 with 1 and 0.1 steps, where rounding depends on
    the association order; first column zero."""
    vals = np.array([0.0, 0.1, 1.0, 0.3, 1e16, 2.5e15])
    out = rng.choice(vals, size=(paths, n1))
    out[:, 0] = 0.0
    return out


class TestStrategy:
    def test_validation(self):
        bad = np.array([[0.0, -1.0, 0.0]])
        with pytest.raises(ConfigError):
            Strategy(bad, np.zeros((1, 3)))
        with pytest.raises(ConfigError):
            Strategy(np.zeros((1, 3)), np.array([[math.inf, 0.0, 0.0]]))
        # the legs are rows of one shape, whose width the prices must match
        with pytest.raises(ConfigError, match="same shape"):
            Strategy(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ConfigError, match="same shape"):
            Strategy(np.zeros((2, 3)), np.zeros((1, 3)))
        with pytest.raises(ConfigError, match=r"d_up must have shape \(rows, steps \+ 1\)"):
            Strategy(np.zeros(3), np.zeros(3))
        # the time-zero trade is column 0
        assert Strategy(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3))).position()[0, 0] == 1.0

    def test_position_recursion(self):
        d_up = np.array([[1.0, 1.0, 0.0, 0.0]])
        d_dn = np.array([[0.0, 0.0, 0.5, 1.5]])
        s = Strategy(d_up, d_dn)
        np.testing.assert_array_equal(s.position(), [[1.0, 2.0, 1.5, 0.0]])

    @pytest.mark.parametrize("h0", [1e16, 0.1, -1e16, -0.0])
    def test_position_recursion_matches_sequential_loop_bitwise(self, h0):
        rng = np.random.default_rng(11)
        d_up = mixed_magnitude_jumps(rng, 64, 12)
        d_dn = mixed_magnitude_jumps(rng, 64, 12)
        d_up[:, 0], d_dn[:, 0] = max(h0, 0.0), max(-h0, 0.0)
        want = sequential_position(d_up, d_dn)
        assert position_recursion(d_up, d_dn).tobytes() == want.tobytes()
        # the inputs do tell association orders apart
        netted = np.cumsum(d_up - d_dn, axis=1)
        assert not np.array_equal(netted, want)

    def test_the_callers_arrays_stay_writable_and_unshared(self):
        d_up, d_dn = np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]])
        s = Strategy(d_up, d_dn)
        assert d_up.flags.writeable and d_dn.flags.writeable
        assert not (s.d_up.flags.writeable or s.d_dn.flags.writeable)
        d_up[0, 1] = d_dn[0, 1] = 5.0
        np.testing.assert_array_equal(s.d_up, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(s.d_dn, [[0.0, 0.0, 1.0]])

    def test_zero_factory(self):
        g = TimeGrid(1.0, 3)
        assert Strategy.zero(g).d_up.shape == (1, 4)
        s = Strategy.zero(g, 5)
        assert s.d_up.shape == s.d_dn.shape == (5, 4)
        np.testing.assert_array_equal(s.position(), 0.0)

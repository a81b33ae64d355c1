"""Unitary evolution, time-averaged kernel, and the limiting profile.

Oracles: scipy.linalg.expm for the propagator, the length-n np.fft and the
wrapped Bessel sum for P_t at large n, scipy.integrate.quad for the time
average, the direct double sum and a 50-digit mpmath sum for the averaged
kernel, exact Fraction arithmetic for the limit, the wrapped arcsine model
D(c) for the distance to the limit at horizon c n, and its Bessel model of
the averaged kernel's largest non-trivial character.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import jv

from qwalk import bounds, dihedral, sampling, spectra, walk

import oracles


def test_probability_at_time_zero_is_identity():
    mat = walk.probability_matrix(5, 0.0)
    assert np.max(np.abs(mat - np.eye(10))) < 1e-12


@pytest.mark.parametrize("n,t", [(3, 0.1), (5, 3.7), (7, 10.0)])
def test_probability_matches_expm_oracle(n, t):
    gen = oracles.normalized_adjacency(n)
    oracle = np.abs(expm(1j * t * gen)) ** 2
    ours = walk.probability_matrix(n, t)
    assert np.max(np.abs(oracle - ours)) < 1e-10


def test_propagator_oracle_unitary_and_group_law():
    n = 7
    u1 = oracles.propagator_oracle(n, 2.3)
    u2 = oracles.propagator_oracle(n, 1.4)
    u12 = oracles.propagator_oracle(n, 3.7)
    eye = np.eye(2 * n)
    assert np.max(np.abs(u1 @ u1.conj().T - eye)) < 1e-10
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


def test_propagator_oracle_size_cap():
    with pytest.raises(ValueError):
        oracles.propagator_oracle(513, 1.0)


def test_amplitude_matches_oracle_entries():
    n = 5
    t = 4.2
    u = oracles.propagator_oracle(n, t)
    for i, j in [(0, 0), (0, 3), (2, 7), (8, 1), (9, 9)]:
        assert oracles.amplitude(n, i, j, t) == pytest.approx(u[j, i], abs=1e-12)
        assert oracles.probability(n, i, j, t) == pytest.approx(np.abs(u[j, i]) ** 2, abs=1e-12)


def test_probability_row_matches_entries():
    n = 7
    t = 4.2
    for i in (0, 3, n, n + 4):
        row = walk.probability_row(n, i, t)
        direct = np.array([oracles.probability(n, i, j, t) for j in range(2 * n)])
        assert np.max(np.abs(row - direct)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 11, 101])
def test_profiles_factorise_against_oracle(n):
    """Cycle walk times two-state coin reproduces the dense propagator."""
    times = np.random.default_rng(n).uniform(0.0, 60.0, size=4)
    profiles = walk.probability_profiles(n, times)
    assert profiles.shape == (4, 2, n)
    for t, profile in zip(times, profiles):
        # column 0 of |U(t)|^2: same block at rows 0..n-1, other block below
        from_origin = np.abs(oracles.propagator_oracle(n, t)[:, 0]) ** 2
        assert np.max(np.abs(profile - from_origin.reshape(2, n))) < 1e-12


@pytest.mark.parametrize("n", [5, 11, 101])
def test_profiles_coin_zeros(n):
    """cos(t/3) vanishes at t = 3 pi / 2 and sin(t/3) at t = 3 pi: one
    block carries no probability and the other carries all of it."""
    same_zero, other_zero = walk.probability_profiles(n, [1.5 * np.pi, 3.0 * np.pi])
    assert same_zero[0].max() < 1e-30
    assert other_zero[1].max() < 1e-30
    assert same_zero[1].sum() == pytest.approx(1.0, abs=1e-12)
    assert other_zero[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_rows_sum_to_one_at_large_n():
    # every row of P_t holds each profile cell once, so a row sums to its
    # profile's total
    n = 4001
    rng = np.random.default_rng(4001)
    times = np.concatenate([rng.uniform(0.0, 100.0, size=12), [1e3, 1e5, 1e7, 1e9]])
    profiles = walk.probability_profiles(n, times)
    assert profiles.shape == (16, 2, n)
    assert np.max(np.abs(profiles.sum(axis=(1, 2)) - 1.0)) <= walk.ROW_SUM_TOL
    assert profiles.min() >= 0.0
    row = walk.probability_row(n, int(rng.integers(0, 2 * n)), 1e9)
    assert abs(row.sum() - 1.0) <= walk.ROW_SUM_TOL and row.min() >= 0.0
    # P_t = coin |a|^2 with coin = (1 +- cos(2t/3)) / 2, so no entry rounds
    # below zero and the CLI prints P_t unclamped
    for small_n in (3, 7, 21, 101):
        assert walk.probability_profiles(small_n, rng.uniform(0.0, 1e6, size=4000)).min() >= 0.0


@pytest.mark.parametrize("n,t", [(3, 1.3), (9, 7.7)])
def test_probability_matrix_symmetric_doubly_stochastic(n, t):
    mat = walk.probability_matrix(n, t)
    assert np.max(np.abs(mat - mat.T)) < 1e-12
    assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-10
    assert np.min(mat) > -1e-12


@pytest.mark.parametrize("n", [3, 7, 21, 101, 1009])
def test_probability_profiles_even_in_offset_at_large_times(n):
    """Mirror modes m, n - m share one phase, so P_t is even in the offset
    and the dense matrix symmetric to rounding, not to the t 1e-16 by
    which two separately rounded mirror phases differ (3.4e-11 at t = 1e6)."""
    times = [1e2, 1e4, 1e6]
    profiles = walk.probability_profiles(n, times)
    assert np.abs(profiles - profiles[..., -np.arange(n) % n]).max() <= 1e-15
    for t in times:
        mat = walk.probability_matrix(n, t)
        assert np.abs(mat - mat.T).max() <= 1e-15


@pytest.mark.parametrize("n", [1009, 2003, 4001, 4007])
def test_large_prime_profiles_match_fft_reference(n):
    # 0.3 and 57.3 lie inside the cone at each n; the first time past the
    # longest usable short cycle's reach runs the length-n path near the
    # cone, which np.fft transforms by Bluestein's algorithm at prime n
    past = 1.01 * walk.SHORT_REACH[np.searchsorted(walk.SHORT_CYCLES, n // 2, side="right") - 1]
    times = [0.3, 57.3, past, 1e4, 1e9]
    profiles = walk.probability_profiles(n, times)
    assert np.abs(profiles - oracles.fft_probability_profiles(n, times)).max() <= 1e-15


@pytest.mark.parametrize("n", [1009, 2003, 4001, 4007])
def test_large_prime_profiles_match_wrapped_bessel(n):
    # the length-n path at prime n, near the cone and far outside it, against
    # a reference that shares no transform with it
    top = walk.SHORT_REACH[np.searchsorted(walk.SHORT_CYCLES, n // 2, side="right") - 1]
    times = [1.01 * top, 3.0 * top, n / 3.0, 0.9 * n]
    profiles = walk.probability_profiles(n, times)
    assert np.abs(profiles - oracles.wrapped_bessel_profiles(n, times)).max() <= 2e-15


def near_pole_times(n):
    """Times t whose half-angle t rate / 2, as `probability_profiles` forms
    it, is the double nearest an odd multiple of pi/2 for the first, second
    and last folded rate, each with |tan| of it at least 1e15."""
    half_rates = 0.5 * walk.cycle_rates(n)
    times = []
    for rate in half_rates[[0, 1, -1]]:
        for pole in (np.pi / 2, 3 * np.pi / 2):
            start = pole / rate
            candidates = start + np.spacing(start) * np.arange(-64, 65)
            u = np.abs(np.tan(candidates * rate))
            assert u.max() >= 1e15
            times.append(candidates[u.argmax()])
    return times


@pytest.mark.parametrize("n", [3, 7, 21, 101])
def test_half_angle_phases_match_exp_oracle(n):
    # P_t's phases come from one tan each, e^{ix} = (1 - u^2 + 2iu) / (1 + u^2)
    # with u = tan(x / 2); the oracle takes np.exp(1j x) of the same x.  Near
    # a pole of tan, |u| is about 1e16 and u^2 about 1e32, far below overflow.
    # The largest difference measured over these times was 6.7e-16.
    times = [0.0, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e300] + near_pole_times(n)
    profiles = walk.probability_profiles(n, times)
    assert np.isfinite(profiles).all()
    assert np.abs(profiles - oracles.fft_probability_profiles(n, times)).max() <= 2e-15
    assert np.abs(profiles.sum(axis=(1, 2)) - 1.0).max() <= walk.ROW_SUM_TOL
    # u = 0 at t = 0: every phase is exactly 1, as np.exp gives
    assert np.array_equal(profiles[0], oracles.fft_probability_profiles(n, [0.0])[0])


@pytest.fixture
def cycle_lengths(monkeypatch):
    """The cycle lengths `probability_profiles` reads rates for, in order."""
    seen = []
    rates = walk.cycle_rates

    def recording(m):
        seen.append(m)
        return rates(m)

    monkeypatch.setattr(walk, "cycle_rates", recording)
    return seen


def test_short_cycle_ladder():
    # odd 7-smooth lengths np.fft transforms directly, each the least one
    # at least 1.5 times the one before; the shortest has half-length
    # 62 >= K's floor 60, and the reach is the largest |t| with
    # e (2 |t| / 3) <= h
    lengths = tuple(walk.SHORT_CYCLES.tolist())
    assert lengths[:5] == (125, 189, 315, 525, 875) and lengths[-1] == 91125 and len(lengths) == 16
    assert all(m % 2 and oracles.prime_factors(m) <= {3, 5, 7} and oracles.direct_fft_length(m) for m in lengths)
    assert all(b >= 1.5 * a for a, b in zip(lengths, lengths[1:])) and lengths[0] // 2 >= 60
    for a, b in zip(lengths, lengths[1:]):
        assert not any(oracles.prime_factors(m) <= {3, 5, 7} for m in range(math.ceil(1.5 * a) | 1, b, 2))
    h = np.array(lengths) // 2
    assert np.all(np.e * 2.0 * walk.SHORT_REACH / 3.0 <= h * (1 + 1e-15))
    assert np.all(np.e * 2.0 * (walk.SHORT_REACH * (1 + 1e-12)) / 3.0 > h)


@pytest.mark.parametrize("z", [0.0, 0.2, 1.0, 7.3, 66.7, 243.0])
def test_bessel_tail_bound_behind_the_light_cone(z):
    # |J_k(z)| <= (z / 2)^k / k! <= 2^-k for k >= e z: the amplitude's terms
    # beyond a cycle's half-length h >= K(t) sum to at most 2^(1 - K)
    first = max(60, math.ceil(np.e * z))
    k = np.arange(first, first + 200)
    assert np.all(np.abs(jv(k, z)) <= 2.0**-k)


@pytest.mark.parametrize("n", [1009, 2003, 4001, 4007])
def test_short_cycle_profiles_match_fft_reference(n, cycle_lengths):
    """Inside the cone each time takes the shortest SHORT_CYCLES length
    m <= n / 2 whose reach covers it: offsets beyond its half-length are
    exactly 0 and the profile is exactly even.  Just outside the longest
    such m's reach it takes the length-n path."""
    usable = [m for m in walk.SHORT_CYCLES if m <= n / 2]
    edges = walk.SHORT_REACH[: len(usable)]
    inside = np.concatenate([[0.0, 0.3, 57.3], edges, -edges * (1 - 1e-12)])
    outside = edges[-1] * np.array([1 + 1e-12, 1.01, 3.0])
    for t in np.concatenate([inside, outside]):
        cycle_lengths.clear()
        profile = walk.probability_profiles(n, [t])[0]
        assert np.abs(profile - oracles.fft_probability_profiles(n, [t])[0]).max() <= 1e-15, t
        (m,) = cycle_lengths
        if t in outside:
            assert m == n
        else:
            h = m // 2
            assert m == usable[np.searchsorted(edges, abs(t))] and not profile[:, h + 1 : n - h].any()
            assert np.array_equal(profile, profile[:, -np.arange(n) % n])
            assert abs(profile.sum() - 1.0) <= walk.ROW_SUM_TOL


@pytest.mark.parametrize("n", [40001, 182251])
def test_upper_short_cycles_match_the_line_and_fft_reference(n, cycle_lengths):
    """The ladder's upper lengths, used only from n = 4051 on: 40001
    reaches it up to 16807, and 182251 = 2 * 91125 + 1 all of it.  At each
    length's reach and just past it, a profile matches the length-n
    reference, and inside the cone it matches the line's coin times
    J_r(z)^2 at offsets 0..h.  The line is the check that stays tight at
    small t: there the length-n reference sums n unit phases into offset 0
    and is off by 1.8e-15 at n = 40001 and t = 0.3."""
    usable = [m for m in walk.SHORT_CYCLES if m <= n / 2]
    edges = walk.SHORT_REACH[: len(usable)]
    for t in np.concatenate([[0.3], edges, -edges * (1 - 1e-12), edges * (1 + 1e-12)]):
        cycle_lengths.clear()
        profile = walk.probability_profiles(n, [t])[0]
        (m,) = cycle_lengths
        if abs(t) > edges[-1]:
            assert m == n
        else:
            h = m // 2
            assert m == usable[np.searchsorted(edges, abs(t))] and not profile[:, h + 1 : n - h].any()
            line = np.multiply.outer([np.cos(t / 3) ** 2, np.sin(t / 3) ** 2], jv(np.arange(h + 1), 2 * abs(t) / 3) ** 2)
            assert np.abs(profile[:, : h + 1] - line).max() <= 1e-15, t
            assert np.array_equal(profile, profile[:, -np.arange(n) % n])
        if t != 0.3:
            assert np.abs(profile - oracles.fft_probability_profiles(n, [t])[0]).max() <= 1e-15, t


def test_short_cycle_profiles_match_propagator_oracle(cycle_lengths):
    # at n = 301 only the 125-cycle fits, and t = 40 lies outside its reach
    n = 301
    profiles = walk.probability_profiles(n, [0.5, 20.0, 40.0])
    assert sorted(cycle_lengths) == [125, 301]
    for t, profile in zip([0.5, 20.0, 40.0], profiles):
        from_origin = np.abs(oracles.propagator_oracle(n, t)[:, 0]) ** 2
        assert np.max(np.abs(profile - from_origin.reshape(2, n))) < 1e-12


@pytest.mark.parametrize("n", [1009, 4001])
def test_batch_across_the_light_cone_is_its_single_calls(n, cycle_lengths):
    # one batch mostly inside the cone and one mostly outside: each time's
    # path depends on (n, t) alone, however its batch is grouped
    top = walk.SHORT_REACH[sum(m <= n / 2 for m in walk.SHORT_CYCLES) - 1]
    for times in (np.linspace(-top, 1.2 * top, 41), np.linspace(0.0, 30.0 * top, 41)):
        batched = walk.probability_profiles(n, times)
        assert np.array_equal(batched, np.stack([walk.probability_profiles(n, [t])[0] for t in times]))
        # rows inside the cone are exactly even, the length-n ones to rounding
        odd = np.abs(batched - batched[..., -np.arange(n) % n]).max(axis=(1, 2))
        inside = np.abs(times) <= top
        assert not odd[inside].any() and odd.max() <= 1e-15
        assert np.abs(batched - oracles.fft_probability_profiles(n, times)).max() <= 1e-15
        # the factors, placed by the same rule, multiply to the profiles
        coin, law = walk.probability_factors(n, times)
        assert np.array_equal(coin.T[:, :, None] * law[:, None, :], batched)
    assert n in cycle_lengths and walk.SHORT_CYCLES[0] in cycle_lengths


@pytest.mark.parametrize("n", [7, 21, 101])
def test_batch_below_the_light_cone_is_its_single_calls(n):
    # a sampler run's batch at n < 250, where every time runs on n: each
    # time is one column of the time-minor buffers, however many share it
    times = np.random.default_rng(n).uniform(0.0, 1e3, dihedral.BLOCK // (4 * n))
    batched = walk.probability_profiles(n, times)
    assert np.array_equal(batched, np.stack([walk.probability_profiles(n, [t])[0] for t in times]))
    assert np.abs(batched - oracles.fft_probability_profiles(n, times)).max() <= 1e-15
    coin, law = walk.probability_factors(n, times)
    assert np.array_equal(coin.T[:, :, None] * law[:, None, :], batched)


def usable_reach(n):
    """The short cycles that fit in n and the reach of each."""
    usable = walk.SHORT_CYCLES[walk.SHORT_CYCLES <= n / 2]
    return usable, walk.SHORT_REACH[: len(usable)]


@pytest.mark.parametrize("n", [1009, 4001])
def test_light_cone_runs_each_time_once(n):
    # a recording `profiles` whose row for time t holds t + offset, so where
    # each row lands on n can be read back
    calls = []

    def spy(m, ts):
        rows = np.repeat(np.add.outer(ts, np.arange(m))[:, None, :], 2, axis=1)
        calls.append((m, ts.copy(), rows))
        return rows

    usable, edges = usable_reach(n)
    far = edges[-1] * np.array([1 + 1e-12, 1.01, 30.0])
    times = np.concatenate([[0.0], edges, -edges * (1 - 1e-12), edges[:-1] * (1 + 1e-12), far])
    out = walk.light_cone(n, times, spy)
    # the cycle SHORT_REACH picks for each time, n past the last reach: one
    # call per length, holding exactly its times
    lengths = np.append(usable, n)[np.searchsorted(edges, np.abs(times))]
    assert sorted(m for m, _, _ in calls) == sorted(set(lengths.tolist()))
    assert set(lengths.tolist()) == set(usable.tolist()) | {n}
    for m, ts, _ in calls:
        assert np.array_equal(ts, far if m == n else times[lengths == m])
    # offsets 0..h of a short cycle, 0 beyond, mirrored; a far row as it came
    offsets = np.arange(n)
    for t, row, m in zip(times, out, lengths):
        expected = t + (offsets if m == n else np.minimum(offsets, n - offsets))
        expected[m // 2 + 1 : n - m // 2] = 0.0
        assert np.array_equal(row, [expected, expected]), t
    # a batch with no time in the cone is the one length-n call's own array
    calls.clear()
    out = walk.light_cone(n, far, spy)
    assert [m for m, _, _ in calls] == [n] and out is calls[0][2]


def test_small_time_row_builds_no_length_n_plan():
    # a row inside the cone reads only the 125-cycle's rates, so its cost
    # does not grow with n beyond the O(n) output
    n = 40001
    walk.cycle_rates.cache_clear()
    row = walk.probability_row(n, 3, 10.0)
    assert walk.cycle_rates.cache_info()[:2] == (0, 1)
    walk.cycle_rates(125)
    assert walk.cycle_rates.cache_info()[:2] == (1, 1)
    assert abs(row.sum() - 1.0) <= walk.ROW_SUM_TOL
    # from vertex 3, offsets 63..n-63 of either block are exactly 0
    assert not row[66 : n - 59].any() and not row[n + 66 : 2 * n - 59].any() and row[65] > 0.0


def test_cycle_rates_built_once_per_n_and_read_only():
    # times outside the light cone, so each call reads the length-1009 rates
    walk.cycle_rates.cache_clear()
    for _ in range(3):
        walk.probability_profiles(1009, [1e3, 2e3])
        walk.probability_row(1009, 5, 3e3)
    info = walk.cycle_rates.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    rates = walk.cycle_rates(1009)
    assert walk.cycle_rates(1009) is rates and rates.shape == (505,)
    assert not rates.flags.writeable
    with pytest.raises(ValueError):
        rates[0] = 0


def test_phase_average_values():
    # (e^{ixT}-1)/(ixT) at x=0 is exactly 1
    assert oracles.phase_average(np.array([0.0]), 10.0)[0] == 1.0 + 0.0j
    x = np.array([0.731])
    t = 13.0
    expected = (np.exp(1j * x * t) - 1.0) / (1j * x * t)
    assert oracles.phase_average(x, t)[0] == pytest.approx(expected[0], abs=1e-14)
    # conjugate symmetry holds bit for bit
    xs = np.array([0.25, -0.25])
    vals = oracles.phase_average(xs, 7.0)
    assert vals[0] == np.conj(vals[1])
    # the real part alone, as averaged_matrix uses it
    xs = np.array([0.0, 1e-30, 0.731, -0.25, 3.0])
    for horizon in (1e-3, 13.0, 1e12):
        real = walk.real_phase_average(xs, horizon)
        assert real[0] == 1.0
        assert np.max(np.abs(real - oracles.phase_average(xs, horizon).real)) < 1e-15


@pytest.mark.parametrize("delta,eps", [(0, 1), (2, 1), (3, -1), (0, -1)])
def test_averaged_entry_matches_quadrature(delta, eps):
    n = 5
    horizon = 50.0
    i = 0
    j = delta if eps == 1 else n + delta

    def integrand(t):
        return oracles.probability(n, i, j, t)

    value, err = quad(integrand, 0.0, horizon, limit=400, epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-7
    assert oracles.averaged_entry(n, delta, eps, horizon) == pytest.approx(value / horizon, abs=1e-8)


def test_averaged_matrix_matches_entry_formula():
    for n, horizon in ((7, 37.5), (21, 37.5), (21, 1e3), (101, 250.0)):
        avg = walk.averaged_matrix(n, horizon)
        for eps_idx, eps in ((0, 1), (1, -1)):
            for delta in range(n):
                direct = oracles.averaged_entry(n, delta, eps, horizon)
                assert avg.values[eps_idx, delta] == pytest.approx(direct, abs=1e-12)
                # vertex-pair lookup agrees with the profile layout
                j = delta if eps == 1 else n + delta
                assert avg.entry(0, j) == avg.values[eps_idx, delta]


@pytest.mark.parametrize("horizon", [7, 1e4, 1e12])
@pytest.mark.parametrize("n", [5, 11, 101, 401])
def test_averaged_matrix_block_boundaries(n, horizon, monkeypatch):
    # 50-entry blocks keep n = 5 and 11 in one block and cut n = 101 and
    # 401 into one-row runs
    expected = walk.averaged_matrix(n, horizon).values
    monkeypatch.setattr(dihedral, "BLOCK", 50)
    assert np.max(np.abs(walk.averaged_matrix(n, horizon).values - expected)) <= 1e-15


HORIZONS = [0.5, 7, 1e4, 1e12]


@pytest.mark.parametrize("block", [None, 50])
@pytest.mark.parametrize("n", [5, 11, 101, 401])
def test_averaged_profiles_stack_single_horizons(n, block, monkeypatch):
    # the batch form is the single-horizon call row for row, bit for bit;
    # 50-entry blocks cut n = 101 and 401 into one-row runs
    if block is not None:
        monkeypatch.setattr(dihedral, "BLOCK", block)
    expected = np.stack([walk.averaged_matrix(n, T).values for T in HORIZONS])
    assert np.array_equal(walk.averaged_profiles(n, HORIZONS), expected)


@pytest.mark.parametrize("horizon", [0.5, 1, 2.5, 7, 1e4, 1e12])
@pytest.mark.parametrize("n", [5, 11, 101, 401])
def test_averaged_profiles_match_direct_kernel(n, horizon):
    # angle addition on per-mode phases against np.sinc at every mode pair
    got = walk.averaged_profiles(n, [horizon])
    assert np.max(np.abs(got - oracles.direct_averaged_profiles(n, [horizon]))) <= 1e-15


@pytest.mark.parametrize(("n", "horizon"), [(1001, 2002.0), (1075, 2150.0)])
def test_averaged_profiles_match_quadrature_at_large_n(n, horizon):
    # at T = 2n, where the threshold search probes, against Gauss-Legendre
    # quadrature of P_t, which shares no gap, mode phase or binning code with
    # the kernel; n = 1075 has near-resonant cross-branch pairs.  Measured
    # 4.4e-14 and 7.5e-14
    got = walk.averaged_profiles(n, [horizon])[0]
    assert np.max(np.abs(got - oracles.quadrature_averaged_profiles(n, horizon))) <= 2e-13


def seam_horizons(n):
    """Horizons that put the pair with the smallest nonzero same-branch gap
    just below and just above |x| T = 1, while most pairs stay above it; the
    kernel takes that pair as a quotient on both sides."""
    lam = spectra.eigenvalues(n, spectra.PLUS)[: (n + 1) // 2]
    gaps = np.abs(lam[:, None] - lam)
    gap = gaps[gaps > 0].min()
    horizons = [(1 - 1e-9) / gap, (1 + 1e-9) / gap]
    for horizon in horizons:
        assert np.count_nonzero(gaps * horizon < 1) < gaps.size / 2
    return horizons


def test_small_phase_seam_matches_direct_kernel():
    n = 101
    for horizon in seam_horizons(n):
        got = walk.averaged_profiles(n, [horizon])
        assert np.max(np.abs(got - oracles.direct_averaged_profiles(n, [horizon]))) <= 1e-15


@pytest.mark.parametrize(
    "n, block, heights, resonant_rows",
    [(101, 204, [4] * 12 + [3], []), (37, 57, [3] * 6 + [1], [10])],
    ids=["101", "37"],
)
def test_ragged_multi_row_blocks_match_direct_kernel(monkeypatch, n, block, heights, resonant_rows):
    # BLOCK 204 cuts n = 101's 51 folded rows into runs of 4 and a last run
    # of 3: multi-row blocks, binned by diagonal sums, and a shorter block
    # that reuses the first rows of the tallest block's buffers.  BLOCK 57
    # cuts n = 37's 19 rows into runs of 3, and its resonant row 10 falls
    # in the fourth block, whose direct values are written over its quotients
    monkeypatch.setattr(dihedral, "BLOCK", block)
    size = (n + 1) // 2
    assert [r.stop - r.start for r in dihedral.blocks(size, size)] == heights
    assert walk.resonant_pairs(n)[0].tolist() == resonant_rows
    horizons = HORIZONS + seam_horizons(n)
    got = walk.averaged_profiles(n, horizons)
    assert np.max(np.abs(got - oracles.direct_averaged_profiles(n, horizons))) <= 1e-15


@pytest.mark.parametrize("block", [None, 200])
@pytest.mark.parametrize("n", [3, 5, 37, 907, 1075, 2291, 4001])
def test_resonant_pairs_match_full_grid_mask(n, block, monkeypatch):
    # the pairs found from the sorted spectra are a full-grid mask's
    # |gap| < 1/n^2 over the cross-branch gaps of `folded_gap_blocks`, pair
    # for pair and bit for bit, also when BLOCK = 200 cuts the grid into
    # blocks of at most 10 rows
    if block is not None:
        monkeypatch.setattr(dihedral, "BLOCK", block)
    rows, cols, gaps = [], [], []
    for r, (_, cross) in walk.folded_gap_blocks(n):
        i, j = np.nonzero(np.abs(cross) < 1.0 / n**2)
        rows.append(i + r.start)
        cols.append(j)
        gaps.append(cross[i, j])
    for got, expected in zip(walk.resonant_pairs(n), (rows, cols, gaps)):
        assert np.array_equal(got, np.concatenate(expected))


def test_resonant_pairs_are_few_and_read_only():
    # every odd n <= 4001 has at most 2 resonant rows, one pair each (265 n
    # have one and 19 have two, from n = 35 on); n = 37 has one and n = 1075
    # two.  The cached table cannot be written
    counts = [len(walk.resonant_pairs(n)[0]) for n in range(3, 4002, 2)]
    assert max(counts) <= 2
    rows, cols, gaps = walk.resonant_pairs(37)
    assert rows.tolist() == [10] and cols.tolist() == [3] and gaps[0] == pytest.approx(-2.13e-5, rel=1e-3)
    assert len(walk.resonant_pairs(1075)[0]) == 2
    assert walk.resonant_pairs(37)[0] is rows
    for part in (rows, cols, gaps):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0


def test_kernel_matches_direct_kernel_at_every_small_odd_n():
    # the quotient holds off the diagonal and the resonant pairs, at every
    # odd n <= 301 (19 of them resonant, from n = 35) and across the horizons
    # where all, some or none of the pairs have |x| T < 1
    horizons = [0.05, 0.5, 7.0, 1e4, 1e12]
    for n in range(3, 302, 2):
        got = walk.averaged_kernel(n, horizons)
        assert np.max(np.abs(got - oracles.direct_averaged_profiles(n, horizons))) <= 1e-15, n


def test_averaged_profiles_edge_grids(monkeypatch):
    # an empty batch reaches the length-n call with no times at any n, and
    # the kernel sweeps no gap block for it
    swept = []
    sweep = walk.folded_gap_blocks

    def counting(n):
        for block in sweep(n):
            swept.append(block[0])
            yield block

    monkeypatch.setattr(walk, "folded_gap_blocks", counting)
    for n in (7, 1009):
        assert walk.averaged_profiles(n, []).shape == (0, 2, n)
        assert walk.probability_profiles(n, []).shape == (0, 2, n)
    assert swept == []
    assert walk.averaged_profiles(7, [1.0]).shape == (1, 2, 7) and swept
    for bad in (0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="averaging horizon"):
            walk.averaged_profiles(7, [1.0, bad, 2.0])


@pytest.mark.parametrize("n", [1009, 4001])
def test_short_cycle_averaged_profiles_match_length_n_kernel(n):
    """K_T averages P_t over |t| <= T, so inside T's light cone it runs on
    the short cycle P_t at time T would: there it matches the length-n
    kernel and the direct double sum, reads exactly 0 beyond the cycle's
    half-length and is exactly even.  Past the reach of the longest short
    cycle that fits, it is the length-n kernel."""
    usable, edges = usable_reach(n)
    horizons = np.concatenate([[0.5, 1.0], edges * (1 - 1e-12), edges * (1 + 1e-12)])
    got = walk.averaged_profiles(n, horizons)
    length_n = walk.averaged_kernel(n, horizons)
    assert np.abs(got - length_n).max() <= 1e-15
    assert np.abs(got - oracles.direct_averaged_profiles(n, horizons)).max() <= 1e-15
    for T, profile, reference, k in zip(horizons, got, length_n, np.searchsorted(edges, horizons)):
        if k == len(usable):
            assert np.array_equal(profile, reference), T
        else:
            h = usable[k] // 2
            assert not profile[:, h + 1 : n - h].any(), T
            assert np.array_equal(profile, profile[:, -np.arange(n) % n]), T
    # the mixed batch is its single calls bit for bit
    assert np.array_equal(got, np.stack([walk.averaged_profiles(n, [T])[0] for T in horizons]))


def test_quantum_threshold_probe_trail_on_short_cycles(monkeypatch):
    # the doubling starts at T = 1, so the early probes run on short cycles;
    # the same search with every horizon on the length-n kernel finds the
    # same T* in the same probes, at distances within 1e-14
    n = 1001
    report = bounds.quantum_mixing_threshold(n)
    monkeypatch.setattr(walk, "light_cone", lambda n, times, profiles: profiles(n, times))
    length_n = bounds.quantum_mixing_threshold(n)
    assert report.threshold_time == length_n.threshold_time
    assert [t for t, _ in report.distance_series] == [t for t, _ in length_n.distance_series]
    assert sum(t <= usable_reach(n)[1][-1] for t, _ in report.distance_series) == 7
    gaps = [abs(d - e) for (_, d), (_, e) in zip(report.distance_series, length_n.distance_series)]
    assert max(gaps) <= 1e-14


def test_averaged_profiles_in_small_memory():
    # 16 horizons share the T-independent blocks: only the (16, 2, n) bins
    # grow with the grid, not a per-horizon copy of the gap arrays
    n = 4001
    tracemalloc.start()
    try:
        profiles = walk.averaged_profiles(n, [10.0 ** (k / 2) for k in range(16)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert np.allclose(profiles.sum(axis=(1, 2)), 1.0, atol=1e-12)


def test_averaged_matrix_dense_properties():
    n = 5
    avg = walk.averaged_matrix(n, 12.0)
    dense = avg.to_dense()
    assert dense.shape == (2 * n, 2 * n)
    assert np.max(np.abs(dense - dense.T)) < 1e-12
    assert np.max(np.abs(dense.sum(axis=0) - 1.0)) < 1e-10
    assert np.min(dense) > -1e-12
    for i in (0, 3, n + 2):
        assert np.max(np.abs(avg.row(i) - dense[i])) < 1e-15


def test_averaged_profile_reflection_symmetry():
    # g(delta) equals g(n - delta) on both block parities
    avg = walk.averaged_matrix(9, 23.0)
    for eps in (1, -1):
        row = avg.values[0 if eps == 1 else 1]
        for delta in range(1, 9):
            assert row[delta] == pytest.approx(row[9 - delta], abs=1e-12)


def test_short_horizon_stays_near_identity():
    avg = walk.averaged_matrix(5, 1e-8)
    assert np.max(np.abs(avg.to_dense() - np.eye(10))) < 1e-6


def test_long_horizon_approaches_limit():
    n = 5
    avg = walk.averaged_matrix(n, 1e7)
    pi = walk.limiting_distribution(n)
    assert np.max(np.abs(avg.to_dense() - pi.to_dense())) < 1e-5


def test_limiting_distribution_exact_values():
    pi = walk.limiting_distribution(3)
    assert pi.diagonal == Fraction(5, 18)
    assert pi.off_diagonal == Fraction(1, 9)
    for n in (3, 5, 21, 101):
        pi = walk.limiting_distribution(n)
        assert pi.diagonal == Fraction(1, 2 * n) + Fraction(n - 1, 2 * n * n)
        assert pi.off_diagonal == Fraction(1, 2 * n) - Fraction(1, 2 * n * n)
        assert pi.row_sum() == Fraction(1)
        assert pi.min_entry() >= Fraction(1, (2 * n) ** 2)
        assert pi.min_entry() == pi.off_diagonal


def test_limiting_profile_and_entries():
    n = 5
    pi = walk.limiting_distribution(n)
    values = pi.values()
    # both delta = 0 entries carry the diagonal weight, one per block
    assert values[0, 0] == pytest.approx(float(pi.diagonal))
    assert values[1, 0] == pytest.approx(float(pi.diagonal))
    assert values[0, 2] == pytest.approx(float(pi.off_diagonal))
    # vertex pairs at residue offset zero carry the diagonal weight even
    # across blocks
    assert pi.entry(0, 0) == pi.diagonal
    assert pi.entry(2, n + 2) == pi.diagonal
    assert pi.entry(0, 3) == pi.off_diagonal
    dense = pi.to_dense()
    assert np.allclose(dense.sum(axis=0), 1.0)
    assert np.max(np.abs(dense - dense.T)) == 0.0


def test_distance_to_limit_against_dense_norm():
    n = 5
    horizon = 80.0
    avg = walk.averaged_matrix(n, horizon)
    diff = avg.to_dense() - walk.limiting_distribution(n).to_dense()
    induced_oracle = np.max(np.abs(diff).sum(axis=0))
    assert avg.distance_to_limit() == pytest.approx(induced_oracle, rel=1e-10)


def test_convergence_series_decreases_overall():
    horizons = [1e2, 1e3, 1e4, 1e5]
    distances = [walk.distance_to_limit(11, T) for T in horizons]
    assert distances[-1] < distances[0] / 100.0


def test_horizon_validation():
    with pytest.raises(ValueError):
        walk.averaged_matrix(5, 0.0)
    with pytest.raises(ValueError):
        walk.averaged_matrix(5, -3.0)
    with pytest.raises(ValueError):
        walk.check_horizon(float("nan"))
    with pytest.raises(ValueError):
        oracles.averaged_entry(5, 5, 1, 10.0)
    with pytest.raises(ValueError):
        oracles.averaged_entry(5, 0, 2, 10.0)
    for bad in (
        float("inf"), float("-inf"), float("nan"), np.nextafter(sys.float_info.max / 2, np.inf),
        # positive, but 1/T overflows
        5.5e-309, 1e-320,
    ):
        with pytest.raises(ValueError, match="finite"):
            walk.averaged_matrix(5, bad)
        with pytest.raises(ValueError, match="finite"):
            oracles.averaged_entry(5, 0, 1, bad)


def test_integer_too_large_for_a_float_is_a_value_error():
    huge = 10**400
    for call in (
        lambda: walk.averaged_matrix(5, huge),
        lambda: walk.distance_to_limit(5, huge),
        lambda: bounds.quantum_bound_rhs(5, huge),
        lambda: sampling.SamplerConfig(n=5, start_vertex=0, horizon=huge, steps=1, trials=1, seed=0),
        lambda: walk.probability_row(5, 0, huge),
        lambda: walk.probability_row(5, 0, -huge),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_rejected_horizon_message_is_bounded():
    # a huge integer is named by its length, not spelled out digit by digit
    for bad in (10**400, -(10**400), 2**1024, 0, -3.0, float("nan"), Fraction(10**400, 3)):
        with pytest.raises(ValueError, match="averaging horizon") as info:
            walk.averaged_matrix(5, bad)
        assert len(str(info.value)) < 120
    with pytest.raises(ValueError, match="an integer of 401 digits"):
        walk.averaged_matrix(5, 10**400)
    # past Python's 4300-digit int-to-str limit the length is still counted
    # exactly, through the kernel and through the sampler's configuration
    for bad, digits in ((10**5000, 5001), (10**5000 - 1, 5000)):
        message = f"averaging horizon .* got an integer of {digits} digits$"
        with pytest.raises(ValueError, match=message):
            walk.averaged_matrix(5, bad)
        with pytest.raises(ValueError, match=message):
            sampling.SamplerConfig(n=5, start_vertex=0, horizon=bad, steps=1, trials=1, seed=0)


def test_probability_times_must_be_finite():
    # every P_t path goes through probability_factors, which rejects a
    # non-finite time instead of returning a NaN row; the sampler rejects a
    # non-finite horizon when it is configured
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            walk.probability_row(5, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            walk.probability_matrix(5, bad)
        with pytest.raises(ValueError, match="finite"):
            walk.probability_profiles(5, [1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            sampling.SamplerConfig(n=5, start_vertex=0, horizon=bad, steps=1, trials=1, seed=0)
    # P_-t = P_t, so negative times stay accepted
    assert np.allclose(walk.probability_row(5, 3, -2.5), walk.probability_row(5, 3, 2.5), atol=1e-15)


def test_nan_residue_trips_imaginary_guard(monkeypatch):
    # averaged_matrix assembles a real profile, so its guard is the profile
    # sum; a NaN kernel must trip it, on the angle-addition path through the
    # per-mode phases as well as on the resonant pairs' direct path
    def nan_phases(n, Ts):
        size = (n + 1) // 2
        return np.full((len(Ts), 2, 2, size), np.nan), np.full((len(Ts), 2, size), np.nan)

    with monkeypatch.context() as patch:
        patch.setattr(walk, "mode_phases", nan_phases)
        with pytest.raises(RuntimeError, match="profile sum drifted nan away from 1"):
            walk.averaged_matrix(5, 10.0)
    # n = 5 has no resonant pair; n = 37 has one
    monkeypatch.setattr(
        walk, "real_phase_average", lambda x, T: np.full(np.broadcast_shapes(np.shape(x), np.shape(T)), np.nan)
    )
    with pytest.raises(RuntimeError, match="profile sum drifted nan away from 1"):
        walk.averaged_matrix(37, 10.0)
    monkeypatch.setattr(oracles, "phase_average", lambda x, T: np.full(np.shape(x), np.nan + 1j * np.nan))
    with pytest.raises(RuntimeError, match="imaginary residue"):
        oracles.averaged_entry(5, 0, 1, 10.0)


@pytest.mark.parametrize("horizon", [1e8, 1e10, 1e12, 1e15])
@pytest.mark.parametrize("n", [5, 21, 101])
def test_distance_bounded_by_gap_sum_at_large_horizon(n, horizon):
    # criterion 6 far past the horizons where float cosines of mirror modes
    # used to break the exact degeneracy
    gap_sum = bounds.eigengap_inverse_sum_bruteforce(n)
    assert walk.distance_to_limit(n, horizon) <= gap_sum / (n * horizon)


def _mp_averaged_profile(n, horizon):
    """(2, n) averaged profile as the literal double sum over the 2n modes of
    (1/T) int_0^T e^{i x t} dt, at 50 digits."""
    with mpmath.workdps(50):
        T = mpmath.mpf(horizon)
        cos = [mpmath.cos(2 * mpmath.pi * m / n) for m in range(n)]
        branches = [[(2 * c + 1) / 3 for c in cos], [(2 * c - 1) / 3 for c in cos]]
        kernel = {}
        for a in (0, 1):
            for b in (0, 1):
                for m in range(n):
                    for k in range(n):
                        # (e^{ixT} - 1) / (ixT), written without cancellation
                        half_phase = (branches[a][m] - branches[b][k]) * T / 2
                        kernel[a, b, m, k] = mpmath.expj(half_phase) * mpmath.sinc(half_phase)
        out = np.empty((2, n))
        for eps_idx, eps in ((0, 1), (1, -1)):
            for delta in range(n):
                total = mpmath.mpc(0)
                for (a, b, m, k), avg in kernel.items():
                    sign = eps if a != b else 1
                    total += sign * mpmath.expj(2 * mpmath.pi * delta * (m - k) / n) * avg
                total /= (2 * n) ** 2
                assert abs(total.imag) < mpmath.mpf(10) ** -40
                out[eps_idx, delta] = float(total.real)
    return out


def test_averaged_profile_matches_mpmath_at_large_horizon():
    horizon = 1e12
    for n in (5, 11):
        oracle = _mp_averaged_profile(n, horizon)
        avg = walk.averaged_matrix(n, horizon)
        assert np.max(np.abs(avg.values - oracle)) < 1e-15
        limit = walk.limiting_distribution(n).values()
        # the O(1/T) deviation from the limit is resolved, not only the limit
        assert np.abs(avg.values - limit).sum() == pytest.approx(np.abs(oracle - limit).sum(), rel=1e-3)


# where the arcsine model D(c) crosses epsilon = 1/(2e): d(c n) falls below
# it, rises above it again and falls below it for good
ARCSINE_CROSSINGS = (1.2539, 1.6839, 2.0387)


def distances_at(n, cs):
    """Exact d(c n), the averaged kernel's induced 1-norm distance to its
    limit, for each c, from one batch call."""
    profiles = walk.averaged_profiles(n, [c * n for c in cs])
    return np.abs(profiles - walk.limiting_distribution(n).values()).sum(axis=(1, 2))


def test_averaged_distance_follows_arcsine_model():
    # d(c n) -> D(c) as n grows; at n = 401 the largest gap on this grid is
    # 2.2e-3, at c = 0.25
    cs = np.geomspace(0.25, 16, 40)
    model = [oracles.arcsine_distance(c) for c in cs]
    assert np.max(np.abs(distances_at(401, cs) - model)) < 3e-3


def test_arcsine_model_crosses_epsilon_three_times():
    epsilon = spectra.DEFAULT_EPSILON
    brackets = ((1.0, 1.4), (1.4, 1.85), (1.85, 2.5))
    crossings = [brentq(lambda c: oracles.arcsine_distance(c) - epsilon, lo, hi) for lo, hi in brackets]
    assert crossings == pytest.approx(ARCSINE_CROSSINGS, abs=1e-3)


def test_exact_distance_crosses_epsilon_at_the_model_crossings():
    # 0.01 before and after each crossing, the exact d at n = 1601 is on
    # the side of epsilon that the model puts it
    cs = [c + step for c in ARCSINE_CROSSINGS for step in (-0.01, 0.01)]
    above = distances_at(1601, cs) > spectra.DEFAULT_EPSILON
    assert above.tolist() == [True, False, False, True, True, False]


@pytest.mark.parametrize("n,bound", [(101, 2e-4), (401, 2e-5)])
def test_averaged_contraction_follows_bessel_model(n, bound):
    # the sampler's per-step contraction, K_T's largest non-trivial
    # |character| max(|a + b| at m >= 1, |a - b|), at the horizons where a
    # measured step is cheapest; the largest gaps are 8.1e-5 at n = 101 and
    # 5.1e-6 at n = 401
    cs = [1.08, 1.21, 1.35, 2.0, 4.0]
    contraction = []
    for profiles in walk.averaged_profiles(n, [c * n for c in cs]):
        a, b = np.fft.fft(profiles, axis=1).real
        contraction.append(max(np.abs(a + b)[1:].max(), np.abs(a - b).max()))
    model = [oracles.bessel_contraction(c) for c in cs]
    assert model[:3] == pytest.approx([0.1844, 0.1389, 0.1188], abs=1e-4)
    assert np.max(np.abs(np.array(contraction) - model)) <= bound


@pytest.mark.parametrize(
    ("n", "horizon"),
    [
        (1001, bounds.budget_time(1001)),
        (4001, bounds.budget_time(4001)),
        (4001, 300.0),
        (4001, 364.8 * (1 + 1e-9)),
    ],
    ids=["1001", "4001", "4001-T300", "4001-cone-edge"],
)
def test_averaged_matrix_budget_horizon_in_small_memory(n, horizon):
    # the kernel's buffers are allocated once for all blocks, and nothing is
    # n^2: the gap pair of `folded_gap_blocks` (1 MiB, two BLOCK = 2^16
    # float arrays) and the zero-padded `flat` the kernel is written into,
    # 0.75 MiB on the 1001-cycle, 0.64 MiB on the 1323-cycle that holds
    # T = 300's light cone and 0.50 MiB on the 4001-cycle.  Just past the
    # 1323-cycle's reach the 4001-cycle takes its smallest T; only the
    # diagonal and the per-n resonant pairs take values off the quotient,
    # whatever T.  In fresh processes the peaks measured 2.03, 2.17, 2.02
    # and 2.17 MiB; two more 0.5 MiB blocks, such as a separate matmul
    # product and its quotient, break the 3 MiB bound
    tracemalloc.start()
    try:
        avg = walk.averaged_matrix(n, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert avg.distance_to_limit() <= bounds.decomposed_sum(n).total / (n * horizon)


def test_averaged_kernel_with_every_pair_small_in_small_memory():
    # at T = 0.5 on the 4001-cycle all 8 million pairs of both branches have
    # |x| T < 1, and still only the diagonal and the resonant pairs take
    # values off the quotient, so the peak is the budget horizon's (2.17 MiB
    # measured, 6.4 MiB for a per-block mask)
    tracemalloc.start()
    try:
        profile = walk.averaged_kernel(4001, [0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.abs(profile - walk.averaged_profiles(4001, [0.5])).max() <= 1e-15


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=50),
    horizon=st.floats(min_value=1.0, max_value=1e15, allow_nan=False, allow_infinity=False),
)
def test_averaged_profile_properties(half, horizon):
    n = 2 * half + 1
    avg = walk.averaged_matrix(n, horizon)
    assert avg.values.min() >= -1e-15
    assert abs(avg.values.sum() - 1.0) < 1e-12
    gap_sum = bounds.eigengap_inverse_sum_bruteforce(n)
    assert avg.distance_to_limit() <= gap_sum / (n * horizon)

"""Gap sums, quadrant caps, the conjectured near-resonance bound, and
the averaging budget.

Oracles: tolerance-grouping of numpy.linalg.eigvalsh output for the gap
sum, exact rational arithmetic at n=3, 30-digit mpmath sums of the
quadrant and within-branch grids, and a 50-digit mpmath re-evaluation of
f(n).
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qwalk import bounds, cli, dihedral, spectra, walk

import oracles


@pytest.fixture(autouse=True)
def fresh_gap_rows():
    # `_gap_rows` keeps the last n's rows; rows swept at a patched BLOCK
    # must not reach another test
    bounds._gap_rows.cache_clear()
    yield
    bounds._gap_rows.cache_clear()


def gap_sum_from_eigh(n):
    # group numerically equal eigenvalues, then sum 1/|gap| with multiplicities
    values = np.sort(np.linalg.eigvalsh(oracles.normalized_adjacency(n)))
    groups = []
    for v in values:
        if groups and abs(v - groups[-1][0] / groups[-1][1]) < 1e-8:
            total, count = groups[-1]
            groups[-1] = (total + v, count + 1)
        else:
            groups.append((v, 1))
    reps = [(total / count, count) for total, count in groups]
    acc = 0.0
    for v1, c1 in reps:
        for v2, c2 in reps:
            if v1 != v2:
                acc += c1 * c2 / abs(v1 - v2)
    return acc


def f_value_mpmath(n):
    # same closed form at 50 significant digits
    with mpmath.workdps(50):
        if n % 4 == 1:
            c = mpmath.mpf(3) / 4
            offsets = range((n - 1) // 4)
        else:
            c = mpmath.mpf(1) / 4
            offsets = range((n - 3) // 4 + 1)
        grid = 2 * mpmath.pi / n
        total = mpmath.mpf(0)
        for b in offsets:
            alpha = mpmath.acos(1 - mpmath.sin(grid * (b + c)))
            below = mpmath.floor(alpha / grid)
            d_low = alpha - grid * below
            d_high = grid * (below + 1) - alpha
            total += (mpmath.pi / (2 * alpha)) * (1 / alpha + 1 / d_low + 1 / d_high)
            total += (n / (4 * alpha)) * mpmath.log((mpmath.pi**2 / 2) / (d_low * d_high))
        return float(total)


def quadrant_sums_mpmath(n):
    # (su1, su2, su3, su4) at 30 significant digits, from the cosine form
    with mpmath.workdps(30):
        m, q = (n + 1) // 2, n // 4 + 1
        cos = [mpmath.cos(2 * mpmath.pi * j / n) for j in range(m)]
        shifted = [c + 1 for c in cos]
        low, high = range(q), range(q, m)
        return [
            float(1.5 * mpmath.fsum(1 / abs(shifted[j] - cos[k]) for j in rows for k in cols))
            for rows, cols in ((low, low), (low, high), (high, low), (high, high))
        ]


def within_sum_mpmath(n):
    # the unweighted within-branch sum at 30 significant digits
    with mpmath.workdps(30):
        m = (n + 1) // 2
        lam = [(2 * mpmath.cos(2 * mpmath.pi * j / n) + 1) / 3 for j in range(m)]
        return float(mpmath.fsum(1 / abs(lam[j] - lam[k]) for j in range(m) for k in range(m) if j != k))


def test_index_sets_partition():
    for n in (3, 5, 9):
        sets = oracles.index_sets(n)
        half = (n - 1) // 2
        assert len(sets.c1) == half + 1
        assert len(sets.c2) == half + 1
        assert len(sets.c1_prime) == half
        assert len(sets.c2_prime) == half
        merged = np.concatenate([sets.c1, sets.c1_prime, sets.c2, sets.c2_prime])
        assert sorted(merged.tolist()) == list(range(2 * n))


def test_folded_modes():
    mu, mult = bounds.folded_modes(7)
    assert mu.tolist() == [0, 1, 2, 3]
    assert mult.tolist() == [1.0, 2.0, 2.0, 2.0]
    # multiplicities account for all n rotation modes
    assert mult.sum() == 7.0


def test_bruteforce_gap_sum_exact_n3():
    expected = Fraction(187, 5)
    assert bounds.eigengap_inverse_sum_bruteforce(3) == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_bruteforce_matches_eigh_grouping(n):
    oracle = gap_sum_from_eigh(n)
    assert bounds.eigengap_inverse_sum_bruteforce(n) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 21, 51])
def test_decomposition_identity(n):
    brute = bounds.eigengap_inverse_sum_bruteforce(n)
    dec = bounds.decomposed_sum(n)
    assert dec.total == pytest.approx(brute, rel=1e-12)
    assert dec.cross > 0 and dec.within > 0


def test_cross_sum_forms_agree():
    for n in (5, 11, 33):
        lp, lm = spectra.folded_eigenvalues(n)
        plain = math.fsum(bounds._inv_gap_rows(lp, lm))
        cosine = oracles.cross_sum_cosine_form(n)
        assert cosine == pytest.approx(plain, rel=1e-12)
        su = bounds.su_sums(n)
        assert su.total == pytest.approx(cosine, rel=1e-12)
        assert min(su.su1, su.su2, su.su3, su.su4) > 0


@pytest.mark.parametrize("n", [21, 101, 1001, 2001])
def test_gap_sum_identities(n):
    # the three forms of the gap sum agree at every n the benchmark reports
    # bounds at; the largest measured gaps are 2.7e-11 (regrouping against
    # enumeration, n = 2001), 1.7e-16 (quadrants against the whole lambda
    # grid, n = 1001) and 2.4e-11 (the lambda grid against the cosine form,
    # n = 2001)
    brute = bounds.eigengap_inverse_sum_bruteforce(n)
    assert bounds.decomposed_sum(n).total == pytest.approx(brute, rel=1e-9)
    mu, _ = spectra.folded_modes(n)
    lam = spectra.full_spectrum(n)
    whole = full_grid_gap_sum(lam[mu], lam[n + mu])
    assert bounds.su_sums(n).total == pytest.approx(whole, rel=1e-12)
    assert whole == pytest.approx(oracles.cross_sum_cosine_form(n), rel=1e-9)


def test_gap_sums_against_30_digits():
    # measured gaps: 2.2e-13 (su3, n = 1001) and 1.2e-16 (within, n = 401);
    # su3 in cosine form is off by 1.6e-12, and the within sum taken by
    # subtracting eigenvalues by 3.7e-14, so either form fails here
    su = bounds.su_sums(1001)
    assert [su.su1, su.su2, su.su3, su.su4] == pytest.approx(quadrant_sums_mpmath(1001), rel=1e-12)
    assert bounds.case5_sum(401) == pytest.approx(within_sum_mpmath(401), rel=1e-15)
    # near-resonant n: some gaps |cos_j - cos_k + 1| are tiny, and both
    # double forms carry an error of about eps / gap.  At n = 1075 su3 is
    # off by 3.36e-9 (99.6% of the cross sum, which is off by 3.35e-9) and
    # 3/2 su3_raw by 1.09e-9; the other quadrants by at most 5e-15
    su = bounds.su_sums(1075)
    reference = quadrant_sums_mpmath(1075)
    assert [su.su1, su.su2, su.su3, su.su4] == pytest.approx(reference, rel=1e-8)
    assert 1.5 * bounds.su3_raw(1075) == pytest.approx(reference[2], rel=1e-8)


def test_su3_raw_is_unscaled_quadrant():
    for n in (5, 21, 101):
        su = bounds.su_sums(n)
        assert 1.5 * bounds.su3_raw(n) == pytest.approx(su.su3, rel=1e-12)
    assert bounds.su3_raw(5) == pytest.approx(9.708203932499366, rel=1e-12)
    # the two forms differ by 2.27e-9 at n = 1075, the widest of the odd n
    # in [5, 2011]; each is off the 30-digit sum by about 1e-9 there
    assert 1.5 * bounds.su3_raw(1075) == pytest.approx(bounds.su_sums(1075).su3, rel=1e-8)


def test_su_caps_sample():
    for n in (5, 21, 101, 501):
        su = bounds.su_sums(n)
        caps = bounds.su_caps(n)
        assert su.su1 <= caps["su1"]
        assert su.su2 <= caps["su2"]
        assert su.su4 <= caps["su4"]


def test_within_branch_caps_sample():
    for n in (5, 21, 101, 501):
        within = bounds.case5_sum(n)
        assert within <= bounds.within_branch_cap(n)
        # the weighted within sum can only shrink
        assert bounds.decomposed_sum(n).within <= within


def test_cross_branch_gap_guard():
    for n in (3, 101, 2001):
        gap = bounds.cross_branch_gap_check(n)
        assert gap > 1e-10
    assert bounds.cross_branch_gap_check(3) > bounds.cross_branch_gap_check(2001)


def full_grid_gap_sum(a, b, weight=None, shift=0.0, labels=None):
    """Reference for the total of `bounds._inv_gap_rows`, weighted by
    weight_i weight_k: the whole outer grid at once."""
    gaps = np.abs(a[:, None] - b[None, :] + shift)
    if labels is not None:
        gaps[labels[:, None] == labels[None, :]] = np.inf
    if weight is not None:
        gaps /= np.outer(weight, weight)
    return math.fsum((1.0 / gaps).ravel())


@pytest.mark.parametrize("n", [3, 5, 21, 101])
def test_blocked_gap_sums_match_full_grid(n, monkeypatch):
    # a 50-entry block splits every grid here into several blocks
    monkeypatch.setattr(dihedral, "BLOCK", 50)
    lp, lm = spectra.folded_eigenvalues(n)
    _, mult = spectra.folded_modes(n)
    weight = mult / 2.0
    modes = np.arange(len(mult))
    dec = bounds.decomposed_sum(n)
    assert dec.cross == pytest.approx(full_grid_gap_sum(lp, lm, weight), rel=1e-12)
    # one within sum stands for both branches: check it against each grid
    for branch in (lp, lm):
        assert dec.within == pytest.approx(full_grid_gap_sum(branch, branch, weight, labels=modes), rel=1e-12)
    # the blocked row sums, split at column q, and the views of them; the
    # weighted within sum is the unweighted one less row 0, and row 0
    # shares its block with few or none of the other rows here
    low, high, within = bounds._gap_rows(n)
    q = n // 4 + 1
    cross = 1.0 / np.abs(lp[:, None] - lm[None, :])
    assert low == pytest.approx(cross[:, :q].sum(axis=1), rel=1e-12)
    assert high == pytest.approx(cross[:, q:].sum(axis=1), rel=1e-12)
    same = np.abs(lp[:, None] - lp[None, :])
    np.fill_diagonal(same, np.inf)
    assert within == pytest.approx((1.0 / same).sum(axis=1), rel=1e-12)
    su = bounds.su_sums(n)
    assert su.total == pytest.approx(full_grid_gap_sum(lp, lm), rel=1e-12)
    for branch in (lp, lm):
        assert bounds.case5_sum(n) == pytest.approx(full_grid_gap_sum(branch, branch, labels=modes), rel=1e-12)
    m = np.arange(n)
    fold = np.minimum(m, n - m)
    lam = spectra.full_spectrum(n)
    brute = full_grid_gap_sum(lam, lam, labels=np.concatenate([fold, n + fold]))
    assert bounds.eigengap_inverse_sum_bruteforce(n) == pytest.approx(brute, rel=1e-12)
    cos = spectra.mode_cosines(n)
    if len(lp) > q:
        expected = full_grid_gap_sum(cos[q : len(lp)], cos[:q], shift=1.0)
        assert bounds.su3_raw(n) == pytest.approx(expected, rel=1e-12)
    # the sorted-neighbour search finds the grid minimum bit for bit
    assert bounds.cross_branch_gap_check(n) == np.abs(lp[:, None] - lm[None, :]).min()


@pytest.mark.parametrize("n", [21, 101])
def test_each_folded_grid_swept_once(n, monkeypatch, capsys):
    """bounds_report and budget_report at one n share one sweep of the
    same- and cross-branch grids: 2 m^2 entries for m = (n + 1) / 2 folded
    modes, and no other grid, so no (2n)^2 enumeration; `qwalk bounds`,
    which adds the budget from n = 100, sweeps the same."""
    swept = []
    sweep = bounds.folded_gap_blocks

    def counting(n):
        for r, gaps in sweep(n):
            swept.append(gaps.size)
            yield r, gaps

    def other_grid(*args, **kwargs):
        raise AssertionError("a gap grid swept outside folded_gap_blocks")

    monkeypatch.setattr(bounds, "folded_gap_blocks", counting)
    monkeypatch.setattr(bounds, "_inv_gap_rows", other_grid)
    m = (n + 1) // 2
    assert bounds.bounds_report(n).all_passed
    bounds.budget_report(n)
    assert sum(swept) == 2 * m * m
    bounds._gap_rows.cache_clear()
    swept.clear()
    assert cli.main(["bounds", "--n", str(n)]) == 0
    assert ('"budget"' in capsys.readouterr().out) == (n >= bounds.BUDGET_MIN_N)
    assert sum(swept) == 2 * m * m


def bruteforce_matches_decomposition_4001():
    # enumeration has no cap on n: the (2n)^2 grid is streamed
    brute = bounds.eigengap_inverse_sum_bruteforce(4001)
    assert brute == pytest.approx(bounds.decomposed_sum(4001).total, rel=1e-9)


@pytest.mark.parametrize(
    "call,limit_mib",
    [
        (lambda: bounds.bounds_report(2001), 6),
        (lambda: bounds.decomposed_sum(4001), 8),
        (bruteforce_matches_decomposition_4001, 8),
    ],
    ids=["bounds_report-2001", "decomposed_sum-4001", "bruteforce-4001"],
)
def test_gap_sums_in_small_memory(call, limit_mib):
    """Gap sums stream their grids in blocks: O(n + BLOCK) memory,
    not the O(n^2) of a whole grid (8.8, 61 and 488 MiB here)."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_conjecture_params_residues():
    p, c, offsets = bounds.conjecture_params(9)
    assert (p, c) == (2, 0.75)
    assert offsets.tolist() == [0, 1]
    p, c, offsets = bounds.conjecture_params(7)
    assert (p, c) == (1, 0.25)
    assert offsets.tolist() == [0, 1]
    p, c, offsets = bounds.conjecture_params(5)
    assert (p, c) == (1, 0.75)
    assert offsets.tolist() == [0]


def test_conjecture_f_frozen_and_mpmath():
    assert bounds.conjecture_f(5) == pytest.approx(14.410521043729187, rel=1e-12)
    for n in (5, 7, 101, 203):
        assert bounds.conjecture_f(n) == pytest.approx(f_value_mpmath(n), rel=1e-10)


def test_conjecture_check_n5_detail():
    # the raw quadrant obeys f(5), the 3/2-scaled quadrant does not; that
    # asymmetry is the reason both flags exist
    row = bounds.conjecture_check(5)
    assert row.holds_raw is True
    assert row.holds_scaled is False
    assert row.f_within_cap is True
    assert row.passed is True
    assert row.su3_raw == pytest.approx(9.708203932499366, rel=1e-12)
    assert row.f_value == pytest.approx(14.410521043729187, rel=1e-12)


def test_conjecture_check_past_enumeration_cap():
    row = bounds.conjecture_check(2005)
    assert row.su3_raw == bounds.su3_raw(2005)
    assert row.holds_raw is True
    assert isinstance(row.holds_scaled, bool)
    assert row.f_within_cap is True
    assert row.passed is True


def test_conjecture_holds_from_2003_to_4001():
    # su3/f peaks at 0.9629 (n = 3167) in this range
    failed = [n for n in range(2003, 4002, 2) if not bounds.su3_raw(n) <= bounds.conjecture_f(n)]
    assert failed == []


def test_conjecture_sweep_small():
    for n in range(5, 202, 2):
        row = bounds.conjecture_check(n)
        assert row.holds_raw is True
        assert row.f_within_cap is True


def test_quantum_bound_holds_at_sample_points():
    # n = 4001 is past BRUTE_FORCE_CAP: the bound comes from the folded sum
    for n, horizon in ((5, 100.0), (21, 1000.0), (4001, 1e6)):
        lhs = walk.distance_to_limit(n, horizon)
        assert lhs <= bounds.quantum_bound_rhs(n, horizon)


def test_budget_time_formula():
    assert bounds.budget_time(101) == pytest.approx(4800.0 * 101 * math.log(101) ** 5, rel=1e-12)


def test_budget_report_n101():
    report = bounds.budget_report(101)
    assert report.passed
    assert report.analytic_passed
    assert report.measured_bound == pytest.approx(2.670688029945615e-06, rel=1e-9)
    assert report.analytic_bound == pytest.approx(0.16677840949568154, rel=1e-9)
    assert report.analytic_target == pytest.approx(1.0 / 6.0 + 1.0 / (10.0 * math.log(101) ** 3), rel=1e-12)
    assert report.measured_bound <= report.conjectured_bound <= report.epsilon
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["analytic_passed"] is True


def test_quantum_threshold_n5():
    report = bounds.quantum_mixing_threshold(5)
    assert report.norm_kind == "induced"
    assert report.threshold_time == pytest.approx(19.0, rel=5e-3)
    assert walk.distance_to_limit(5, report.threshold_time) <= report.epsilon
    # the bisection leaves a probed point just below the threshold that is
    # still above epsilon
    over = max(t for t, d in report.distance_series if d > report.epsilon)
    assert over >= (1.0 - 2e-3) * report.threshold_time
    assert len(report.distance_series) > 3


def test_quantum_threshold_epsilon_domain():
    with pytest.raises(ValueError):
        bounds.quantum_mixing_threshold(5, epsilon=0.0)
    with pytest.raises(ValueError):
        bounds.quantum_mixing_threshold(5, epsilon=1.2)


def test_bounds_report_all_flags():
    report = bounds.bounds_report(21)
    assert report.all_passed
    assert set(report.bound_flags) == {
        "su1_cap",
        "su2_cap",
        "su4_cap",
        "case5_cap",
    }
    payload = report.to_dict()
    assert payload["all_passed"] is True
    assert set(payload["decomposition"]) == {"cross", "within", "total"}
    assert isinstance(payload["case5"], float)
    assert payload["decomposition"]["total"] == pytest.approx(report.decomposition.total, rel=1e-9)
    assert "total_sum" not in payload


def test_even_order_rejected_throughout():
    for fn in (
        oracles.index_sets,
        bounds.eigengap_inverse_sum_bruteforce,
        bounds.decomposed_sum,
        bounds.su_sums,
        bounds.su3_raw,
        bounds.conjecture_f,
        bounds.budget_time,
    ):
        with pytest.raises(ValueError):
            fn(8)

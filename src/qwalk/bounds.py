"""Reciprocal eigenvalue-gap sums and the mixing guarantees built on them.

The averaged walk's distance to its limit is controlled by
sum 1/|gap| over all ordered pairs of distinct eigenvalues, divided by n T.
This module computes that sum by an exact regrouping over folded modes,
from one sweep of the gap blocks the averaged kernel reads too, and splits
its cross-branch part into quadrants with closed-form caps; it evaluates
the conjectured near-resonance bound f(n) and certifies the
4800 n ln(n)^5 averaging budget.  The tests check the regrouping, the
quadrants and the literal enumeration of the sum against each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .classical import MixingReport, bracket_search
from .dihedral import blocks, check_odd_order
from .spectra import DEFAULT_EPSILON, check_mixing_epsilon, folded_modes, full_spectrum, mode_cosines
from .walk import averaged_matrix, check_horizon, folded_gap_blocks

# largest n at which the benchmark's gap-sum check enumerates the (2n)^2 grid
BRUTE_FORCE_CAP = 2001

# cross-branch gaps scale like 1/n^2; anything this small means the two
# branches have effectively collided and 1/gap is no longer trustworthy
CROSS_GAP_GUARD = 1e-12

BUDGET_COEFF = 4800.0

# from this n on, a measured quantum threshold must respect the budget
BUDGET_MIN_N = 100

# relative width at which quantum_mixing_threshold stops bisecting
THRESHOLD_REL_TOL = 1e-3


def _branch_values(n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both branches at the folded modes (full_spectrum lists + then -), and their multiplicities."""
    mu, mult = folded_modes(n)
    lam = full_spectrum(n)
    return lam[mu], lam[n + mu], mult


def _inv_gap_rows(a, b, shift=0.0, labels=None) -> np.ndarray:
    """Per-row sums over k of 1 / |a_i - b_k + shift|, streamed BLOCK grid
    entries at a time; on a square grid, pairs with equal labels are left out."""
    rows = np.empty(len(a))
    for r in blocks(len(a), len(b)):
        gaps = a[r, None] - b
        if shift:
            gaps += shift
        np.abs(gaps, out=gaps)
        if labels is not None:
            gaps[labels[r, None] == labels] = np.inf
        rows[r] = np.divide(1.0, gaps, out=gaps).sum(axis=1)
    return rows


def cross_branch_gap_check(n) -> float:
    """Smallest gap between the two branches; hard error inside the guard band.

    Each symmetric-branch value is compared with its two neighbours in the
    sorted antisymmetric branch, so no n x n grid is built.
    """
    lp, lm, _ = _branch_values(n)
    lm = np.sort(lm)
    pos = np.clip(np.searchsorted(lm, lp), 1, len(lm) - 1)
    gap = float(np.minimum(np.abs(lp - lm[pos - 1]), np.abs(lp - lm[pos])).min())
    if gap <= CROSS_GAP_GUARD:
        raise RuntimeError(f"cross-branch gap {gap} inside guard band at n={n}")
    return gap


def eigengap_inverse_sum_bruteforce(n) -> float:
    """Sum of 1/|lambda_j - lambda_k| over all ordered index pairs with
    distinct eigenvalues, by literal enumeration of the (2n)^2 grid.

    Whether two indices share a value is decided symbolically: within a
    branch, modes m and n - m coincide and nothing else does; across
    branches no collision is possible for odd n (enforced by a guarded
    minimum-gap check), so floating-point equality never enters.

    This is the enumeration reference that the tests and the benchmark's
    gap-sum check compare the folded sums against; no report calls it.  It
    moves to the tests when `perfbench` stops naming it (ROADMAP item T).
    """
    cross_branch_gap_check(n)
    m = np.arange(n)
    fold = np.minimum(m, n - m)
    lam = full_spectrum(n)
    return math.fsum(_inv_gap_rows(lam, lam, labels=np.concatenate([fold, n + fold])))


@dataclass(frozen=True)
class DecomposedSum:
    """Exact regrouping of the full gap sum over folded representatives.

    m = 0 is the unique fixed point of the fold m <-> n - m, so in the
    restricted sums its row and column carry weight 1/2 (all other modes
    represent two indices).  With those weights,
    8 cross + 4 within_c1 + 4 within_c2 equals the brute-force sum.  The
    branches differ by 2/3 mode by mode, so within_c1 = within_c2.
    """

    cross: float
    within_c1: float
    within_c2: float

    @property
    def total(self) -> float:
        return 8.0 * self.cross + 4.0 * self.within_c1 + 4.0 * self.within_c2


@functools.lru_cache(maxsize=1)
def _gap_rows(n) -> np.ndarray:
    """Row sums of one sweep of `folded_gap_blocks`, read-only and kept for
    the last n: rows[0] and rows[1] sum 1 / |lp_j - lm_k| over k < q and
    k >= q, q = n // 4 + 1; rows[2] sums 1 / |lp_j - lp_k|, whose diagonal
    gap is set to inf, so that term is exactly 0."""
    cross_branch_gap_check(n)
    q = n // 4 + 1
    rows = np.empty((3, (n + 1) // 2))
    for r, gaps in folded_gap_blocks(n):
        np.fill_diagonal(gaps[0, :, r.start :], np.inf)
        np.abs(gaps, out=gaps)
        np.divide(1.0, gaps, out=gaps)
        rows[0, r], rows[1, r] = gaps[1, :, :q].sum(axis=1), gaps[1, :, q:].sum(axis=1)
        rows[2, r] = gaps[0].sum(axis=1)
    rows.flags.writeable = False
    return rows


def decomposed_sum(n) -> DecomposedSum:
    """Only mode 0 weighs 1/2: the weighted within sum is the unweighted one
    less row 0, and the cross one is sum_j w_j (R_j - 1/(2|lp_j - lm_0|))."""
    low, high, within = _gap_rows(n)
    lp, lm, mult = _branch_values(n)
    weighted = math.fsum(within[1:])
    return DecomposedSum(math.fsum(mult / 2.0 * (low + high - 0.5 / np.abs(lp - lm[0]))), weighted, weighted)


@dataclass(frozen=True)
class QuadrantSums:
    """The unweighted cross-branch sum of 1 / |lambda+_j - lambda-_k| =
    (3/2) / |cos(2 pi j / n) - cos(2 pi k / n) + 1|, split at q = n // 4 + 1
    in rows and columns: su1, both modes below; su2, j below, k above; su3,
    j above, k below (the near-resonant quadrant, 3/2 `su3_raw` to
    rounding); su4, both above.  Views of `_gap_rows`.
    """

    su1: float
    su2: float
    su3: float
    su4: float

    @property
    def total(self) -> float:
        return self.su1 + self.su2 + self.su3 + self.su4


def su_sums(n) -> QuadrantSums:
    low, high, _ = _gap_rows(n)
    q = n // 4 + 1
    return QuadrantSums(*(math.fsum(part) for part in (low[:q], high[:q], low[q:], high[q:])))


def su3_raw(n) -> float:
    """The near-resonant quadrant sum in cosine form, without the 3/2
    prefactor: the quantity the conjectured bound f(n) dominates, swept on
    its own so that a conjecture sweep reads only this quadrant."""
    cos, q = mode_cosines(n), n // 4 + 1
    return math.fsum(_inv_gap_rows(cos[q : (n + 1) // 2], cos[:q], shift=1.0))


def su_caps(n) -> dict:
    """Closed-form caps for the three analytic quadrants."""
    check_odd_order(n)
    log_n = math.log(n)
    return {
        "su1": 0.375 * n * n * log_n,
        "su2": 0.09375 * n * n,
        "su4": 0.09375 * n * n * log_n,
    }


@dataclass(frozen=True)
class WithinBranchSums:
    """Unweighted within-branch gap sums over distinct representatives."""

    sum_c1: float
    sum_c2: float


def case5_sums(n) -> WithinBranchSums:
    within = math.fsum(_gap_rows(n)[2])
    return WithinBranchSums(within, within)


def within_branch_cap(n) -> float:
    """((8 n / pi) ln n)^2 caps each within-branch sum."""
    check_odd_order(n)
    return (8.0 * n / math.pi * math.log(n)) ** 2


def conjecture_params(n) -> tuple[int, float, np.ndarray]:
    """(p, c, offsets b) for the near-resonance grid: n = 4p + 1 uses
    c = 3/4 with b in [0, p - 1]; n = 4p + 3 uses c = 1/4 with b in [0, p]."""
    check_odd_order(n)
    if n % 4 == 1:
        p = (n - 1) // 4
        return p, 0.75, np.arange(p)
    p = (n - 3) // 4
    return p, 0.25, np.arange(p + 1)


def conjecture_f(n) -> float:
    """Closed-form near-resonance bound f(n).

    For each offset b the resonance angle is
    alpha = arccos(1 - sin((2 pi / n)(b + c))) and the two distances from
    alpha to the surrounding (2 pi / n)-grid points enter reciprocally and
    through a log.  Raises if any grid distance is nonpositive, naming the
    offending offset.
    """
    _, c, offsets = conjecture_params(n)
    alpha = np.arccos(1.0 - np.sin((2.0 * np.pi / n) * (offsets + c)))
    if not np.all(alpha > 0):
        raise ValueError(f"resonance angle vanished at offset b={int(offsets[np.argmin(alpha)])} for n={n}")
    grid = 2.0 * np.pi / n
    below = np.floor(alpha / grid)
    dist_low = alpha - grid * below
    dist_high = grid * (below + 1.0) - alpha
    for name, dist in (("lower", dist_low), ("upper", dist_high)):
        if not np.all(dist > 0):
            bad = int(offsets[np.argmin(dist)])
            raise ValueError(f"nonpositive {name} grid distance at offset b={bad} for n={n}")
    terms = (np.pi / (2.0 * alpha)) * (1.0 / alpha + 1.0 / dist_low + 1.0 / dist_high)
    terms = terms + (n / (4.0 * alpha)) * np.log((np.pi**2 / 2.0) / (dist_low * dist_high))
    return float(terms.sum())


def conjecture_caps(n) -> tuple[float, float]:
    """(100 n^2 ln(n)^5, 100 n^2 ln(n)) growth caps for f(n)."""
    check_odd_order(n)
    log_n = math.log(n)
    return 100.0 * n * n * log_n**5, 100.0 * n * n * log_n


@dataclass(frozen=True)
class ConjectureRow:
    """One n of the conjecture sweep, with su3 computed at every n.

    su3_raw is sum 1 / |cos_j - cos_k + 1| over the near-resonant quadrant,
    2/3 of QuadrantSums.su3, as (3/2) sum 1 / |cos_j - cos_k + 1| =
    sum 1 / |lambda+_j - lambda-_k|.  holds_raw compares it with f(n) (every
    checked n satisfies it); holds_scaled compares 3/2 su3_raw (known to
    fail for many n, reported for the record).
    """

    n: int
    p: int
    su3_raw: float
    f_value: float
    cap_log5: float
    cap_log1: float
    holds_raw: bool
    holds_scaled: bool
    f_within_cap: bool

    @property
    def passed(self) -> bool:
        return self.holds_raw and self.f_within_cap


def conjecture_check(n) -> ConjectureRow:
    p, _, _ = conjecture_params(n)
    f_value = conjecture_f(n)
    cap5, cap1 = conjecture_caps(n)
    raw = su3_raw(n)
    return ConjectureRow(
        n=int(n), p=int(p), su3_raw=raw, f_value=f_value, cap_log5=cap5, cap_log1=cap1,
        holds_raw=bool(raw <= f_value), holds_scaled=bool(1.5 * raw <= f_value), f_within_cap=bool(f_value <= cap5),
    )


def quantum_bound_rhs(n, T) -> float:
    """Gap-sum upper bound on the averaged walk's distance to its limit,
    from the folded decomposition, so no enumeration cap applies."""
    check_horizon(T)
    return decomposed_sum(n).total / (n * T)


def budget_time(n) -> float:
    """The certified averaging horizon 4800 n ln(n)^5."""
    check_odd_order(n)
    return BUDGET_COEFF * n * math.log(n) ** 5


@dataclass(frozen=True)
class BudgetReport:
    """Distance bounds at the certified horizon, three ways.

    measured_bound uses the fully measured quadrant sums; conjectured_bound
    substitutes 3/2 f(n) for the near-resonant quadrant (valid whenever the
    raw conjecture holds); analytic_bound replaces every piece by its
    closed-form cap and collapses to at most 1/6 + 1/(10 ln(n)^3).
    """

    n: int
    horizon: float
    epsilon: float
    measured_bound: float
    conjectured_bound: float
    analytic_bound: float
    analytic_target: float

    @property
    def passed(self) -> bool:
        return self.measured_bound <= self.epsilon

    @property
    def analytic_passed(self) -> bool:
        return self.analytic_bound <= self.analytic_target <= self.epsilon

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "analytic_passed": self.analytic_passed}


def budget_report(n) -> BudgetReport:
    horizon = budget_time(n)
    su = su_sums(n)
    within = case5_sums(n)
    f_value = conjecture_f(n)
    scale = 1.0 / (n * horizon)
    measured = scale * (8.0 * su.total + 4.0 * (within.sum_c1 + within.sum_c2))
    conjectured = scale * (
        8.0 * (su.su1 + su.su2 + 1.5 * f_value + su.su4) + 4.0 * (within.sum_c1 + within.sum_c2)
    )
    caps = su_caps(n)
    cap5, _ = conjecture_caps(n)
    analytic = scale * (8.0 * (caps["su1"] + caps["su2"] + cap5 + caps["su4"]) + 8.0 * within_branch_cap(n))
    target = 1.0 / 6.0 + 1.0 / (10.0 * math.log(n) ** 3)
    return BudgetReport(
        n=int(n),
        horizon=float(horizon),
        epsilon=DEFAULT_EPSILON,
        measured_bound=float(measured),
        conjectured_bound=float(conjectured),
        analytic_bound=float(analytic),
        analytic_target=float(target),
    )


def quantum_mixing_threshold(n, epsilon=DEFAULT_EPSILON) -> MixingReport:
    """Upper end of a doubling-and-bisection bracket on the first horizon
    with ||averaged - limit||_1 <= epsilon that the search finds.

    `bracket_search` doubles the horizon until a probe is at or below
    epsilon, then bisects the last doubling to relative width
    THRESHOLD_REL_TOL.  The distance is not monotone in T, so this is
    neither the smallest such horizon nor one the distance stays below
    afterwards.  For n >= BUDGET_MIN_N the measured threshold must respect the
    certified budget; a violation is a hard error, not a report entry.
    """
    check_odd_order(n)
    check_mixing_epsilon(epsilon)
    hi, series = bracket_search(
        lambda T: averaged_matrix(n, T).distance_to_limit(), epsilon, 2.0**60,
        lambda lo, hi: hi - lo <= THRESHOLD_REL_TOL * hi, lambda lo, hi: 0.5 * (lo + hi),
    )
    if n >= BUDGET_MIN_N and hi > budget_time(n):
        raise RuntimeError(
            f"measured threshold {hi} exceeds the certified budget {budget_time(n)} at n={n}"
        )
    return MixingReport(float(hi), series, "induced", epsilon)


@dataclass
class BoundsReport:
    """The sums behind the quantum bound at one n, plus the pass/fail map
    of their closed-form caps."""

    n: int
    decomposition: DecomposedSum
    su: QuadrantSums
    case5: WithinBranchSums
    bound_flags: dict

    @property
    def all_passed(self) -> bool:
        return all(self.bound_flags.values())

    def to_dict(self) -> dict:
        out = asdict(self)
        out["decomposition"]["total"] = self.decomposition.total
        return {**out, "all_passed": self.all_passed}


def bounds_report(n) -> BoundsReport:
    dec, su, within = decomposed_sum(n), su_sums(n), case5_sums(n)
    caps = su_caps(n)
    cap_within = within_branch_cap(n)
    flags = {
        "su1_cap": su.su1 <= caps["su1"],
        "su2_cap": su.su2 <= caps["su2"],
        "su4_cap": su.su4 <= caps["su4"],
        "case5_c1_cap": within.sum_c1 <= cap_within,
        "case5_c2_cap": within.sum_c2 <= cap_within,
    }
    return BoundsReport(int(n), dec, su, within, flags)

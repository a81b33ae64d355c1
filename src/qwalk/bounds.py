"""Reciprocal eigenvalue-gap sums and the mixing guarantees built on them.

The averaged walk's distance to its limit is controlled by
sum 1/|gap| over all ordered pairs of distinct eigenvalues, divided by n T.
This module computes that sum three ways (literal enumeration, an exact
regrouped decomposition, and quadrant splits with closed-form caps),
evaluates the conjectured near-resonance bound f(n), and certifies the
4800 n ln(n)^5 averaging budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classical import MixingReport, bracket_search
from .dihedral import blocks, check_odd_order
from .spectra import DEFAULT_EPSILON, check_mixing_epsilon, folded_modes, full_spectrum, mode_cosines
from .walk import averaged_matrix, check_horizon

# default largest n at which conjecture_check enumerates the near-resonant quadrant
BRUTE_FORCE_CAP = 2001

# cross-branch gaps scale like 1/n^2; anything this small means the two
# branches have effectively collided and 1/gap is no longer trustworthy
CROSS_GAP_GUARD = 1e-12

BUDGET_COEFF = 4800.0

# relative width at which quantum_mixing_threshold stops bisecting
THRESHOLD_REL_TOL = 1e-3


def _branch_values(n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both branches at the folded modes (full_spectrum lists + then -), and their multiplicities."""
    mu, mult = folded_modes(n)
    lam = full_spectrum(n)
    return lam[mu], lam[n + mu], mult


def _inv_gap_sum(a, b, weight=None, shift=0.0, labels=None) -> float:
    """sum over i, k of weight_i weight_k / |a_i - b_k + shift| on the outer
    grid, BLOCK grid entries at a time.

    weight (default all ones) is one per-mode vector for both axes of a
    grid whose axes index the same modes.  labels marks the indices of a
    square grid; every pair with equal labels is left out.
    """
    partial = []
    for r in blocks(len(a), len(b)):
        gaps = a[r, None] - b
        if shift:
            gaps += shift
        np.abs(gaps, out=gaps)
        if labels is not None:
            gaps[labels[r, None] == labels] = np.inf
        inv = np.divide(1.0, gaps, out=gaps)
        partial.append(float(inv.sum() if weight is None else weight[r] @ inv @ weight))
    return math.fsum(partial)


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
    """
    check_odd_order(n)
    cross_branch_gap_check(n)
    m = np.arange(n)
    fold = np.minimum(m, n - m)
    lam = full_spectrum(n)
    return _inv_gap_sum(lam, lam, labels=np.concatenate([fold, n + fold]))


@dataclass(frozen=True)
class DecomposedSum:
    """Exact regrouping of the full gap sum over folded representatives.

    m = 0 is the unique fixed point of the fold m <-> n - m, so in the
    restricted sums its row and column carry weight 1/2 (all other modes
    represent two indices).  With those weights,
    8 cross + 4 within_c1 + 4 within_c2 equals the brute-force sum.
    """

    cross: float
    within_c1: float
    within_c2: float

    @property
    def total(self) -> float:
        return 8.0 * self.cross + 4.0 * self.within_c1 + 4.0 * self.within_c2


def decomposed_sum(n) -> DecomposedSum:
    check_odd_order(n)
    cross_branch_gap_check(n)
    lp, lm, mult = _branch_values(n)
    weight = mult / 2.0
    modes = np.arange(len(mult))
    return DecomposedSum(
        _inv_gap_sum(lp, lm, weight),
        _inv_gap_sum(lp, lp, weight, labels=modes),
        _inv_gap_sum(lm, lm, weight, labels=modes),
    )


def cross_sum_plain(n) -> float:
    """Unweighted cross-branch sum over the folded representatives."""
    check_odd_order(n)
    cross_branch_gap_check(n)
    lp, lm, _ = _branch_values(n)
    return _inv_gap_sum(lp, lm)


def cross_sum_cosine_form(n) -> float:
    """The same cross-branch sum written as
    (3/2) sum_{j,k} 1 / |cos(2 pi j / n) - cos(2 pi k / n) + 1|."""
    cos = mode_cosines(n)[: (n - 1) // 2 + 1]
    return 1.5 * _inv_gap_sum(cos, cos, shift=1.0)


@dataclass(frozen=True)
class QuadrantSums:
    """Split of the cross-branch cosine-form sum at mode n/4.

    su1: both modes below n/4; su2: j below, k above; su3: j above,
    k below (the near-resonant quadrant); su4: both above.  Each keeps the
    3/2 prefactor of the cosine form.
    """

    su1: float
    su2: float
    su3: float
    su4: float

    @property
    def total(self) -> float:
        return self.su1 + self.su2 + self.su3 + self.su4


def _quadrant_cosines(n) -> tuple[np.ndarray, np.ndarray]:
    """cos(2 pi m / n) for the folded modes below and above n/4."""
    cos = mode_cosines(n)
    return cos[: n // 4 + 1], cos[n // 4 + 1 : (n - 1) // 2 + 1]


def su_sums(n) -> QuadrantSums:
    check_odd_order(n)
    cos_low, cos_high = _quadrant_cosines(n)
    return QuadrantSums(
        su1=1.5 * _inv_gap_sum(cos_low, cos_low, shift=1.0),
        su2=1.5 * _inv_gap_sum(cos_low, cos_high, shift=1.0),
        su3=1.5 * _inv_gap_sum(cos_high, cos_low, shift=1.0),
        su4=1.5 * _inv_gap_sum(cos_high, cos_high, shift=1.0),
    )


def su3_raw(n) -> float:
    """The near-resonant quadrant sum without the 3/2 prefactor; this is
    the quantity the conjectured bound f(n) dominates."""
    check_odd_order(n)
    cos_low, cos_high = _quadrant_cosines(n)
    return _inv_gap_sum(cos_high, cos_low, shift=1.0)


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
    check_odd_order(n)
    lp, lm, _ = _branch_values(n)
    modes = np.arange(len(lp))
    return WithinBranchSums(_inv_gap_sum(lp, lp, labels=modes), _inv_gap_sum(lm, lm, labels=modes))


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
    check_odd_order(n)
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
    """One n of the conjecture sweep.

    holds_raw compares the unscaled quadrant sum against f(n) (the form
    every tested n satisfies); holds_scaled compares the 3/2-scaled sum
    (known to fail for many n, reported for the record).  su fields are
    None past the enumeration cap.
    """

    n: int
    p: int
    su3_raw: float | None
    f_value: float
    cap_log5: float
    cap_log1: float
    holds_raw: bool | None
    holds_scaled: bool | None
    f_within_cap: bool

    @property
    def passed(self) -> bool:
        ok = self.holds_raw if self.holds_raw is not None else True
        return ok and self.f_within_cap


def conjecture_check(n, su3_cap=BRUTE_FORCE_CAP) -> ConjectureRow:
    p, _, _ = conjecture_params(n)
    f_value = conjecture_f(n)
    cap5, cap1 = conjecture_caps(n)
    if n <= su3_cap:
        raw = su3_raw(n)
        holds_raw = bool(raw <= f_value)
        holds_scaled = bool(1.5 * raw <= f_value)
    else:
        raw = None
        holds_raw = None
        holds_scaled = None
    return ConjectureRow(
        n=int(n),
        p=int(p),
        su3_raw=raw,
        f_value=f_value,
        cap_log5=cap5,
        cap_log1=cap1,
        holds_raw=holds_raw,
        holds_scaled=holds_scaled,
        f_within_cap=bool(f_value <= cap5),
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


def budget_report(n, horizon=None) -> BudgetReport:
    check_odd_order(n)
    if horizon is None:
        horizon = budget_time(n)
    check_horizon(horizon)
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


def quantum_mixing_threshold(n, epsilon=None) -> MixingReport:
    """Upper end of a doubling-and-bisection bracket on the first horizon
    with ||averaged - limit||_1 <= epsilon that the search finds.

    `bracket_search` doubles the horizon until a probe is at or below
    epsilon, then bisects the last doubling to relative width
    THRESHOLD_REL_TOL.  The distance is not monotone in T, so this is
    neither the smallest such horizon nor one the distance stays below
    afterwards.  For n >= 100 the measured threshold must respect the
    certified budget; a violation is a hard error, not a report entry.
    """
    check_odd_order(n)
    if epsilon is None:
        epsilon = DEFAULT_EPSILON
    check_mixing_epsilon(epsilon)
    hi, series = bracket_search(
        lambda T: averaged_matrix(n, T).distance_to_limit(), epsilon, 2.0**60,
        lambda lo, hi: hi - lo <= THRESHOLD_REL_TOL * hi, lambda lo, hi: 0.5 * (lo + hi),
    )
    if n >= 100 and hi > budget_time(n):
        raise RuntimeError(
            f"measured threshold {hi} exceeds the certified budget {budget_time(n)} at n={n}"
        )
    return MixingReport(float(hi), series, "induced", epsilon)


@dataclass
class BoundsReport:
    """Every computable sum at one n, plus the pass/fail map of the
    inequalities tying them together."""

    n: int
    total_sum: float
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
    check_odd_order(n)
    total = eigengap_inverse_sum_bruteforce(n)
    dec = decomposed_sum(n)
    su = su_sums(n)
    within = case5_sums(n)
    caps = su_caps(n)
    cap_within = within_branch_cap(n)
    plain = cross_sum_plain(n)
    cosine = cross_sum_cosine_form(n)
    flags = {
        "decomposition_identity": abs(dec.total - total) <= 1e-6 * total,
        "quadrants_tile_cross": abs(su.total - cosine) <= 1e-9 * su.total,
        "cosine_form_matches_gaps": abs(plain - cosine) <= 1e-9 * plain,
        "su1_cap": su.su1 <= caps["su1"],
        "su2_cap": su.su2 <= caps["su2"],
        "su4_cap": su.su4 <= caps["su4"],
        "case5_c1_cap": within.sum_c1 <= cap_within,
        "case5_c2_cap": within.sum_c2 <= cap_within,
    }
    return BoundsReport(int(n), float(total), dec, su, within, flags)

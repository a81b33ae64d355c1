"""Continuous-time walk generated by the normalized adjacency.

Transition probabilities of the propagator e^{i A t / 3}, the
finite-horizon time average and its exact limit.  The first two each have
one batch transform over times (`probability_factors`, `averaged_profiles`)
that the other calls view; `light_cone` runs each of their times on the
shortest cycle that holds its light cone.  The graph is the prism C_n x K_2,
so the eigenvalue families differ by exactly 2/3 mode by mode: P_t is a
cycle law times a two-state coin, one inverse DFT per time, and their
product is `probability_profiles`; the averaged kernel is real, finished by
`cosine_profiles`.  The dense propagator and direct double sum are oracles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dihedral import (
    blocks,
    check_odd_order,
    circulant,
    cosine_profiles,
    odd_order_cache,
    pair_cell,
    pair_values_dense,
    pair_values_row,
)
from .spectra import folded_eigenvalues, folded_modes, mode_cosines

# acceptable drift of a probability row's total away from 1
ROW_SUM_TOL = 1e-9


def check_horizon(T) -> None:
    """1/T and 2T must be finite, not only T: the kernel's factors scale by
    1/T and its largest phase is about 2T.  T is compared, not converted,
    so a too-large integer or Fraction is rejected too.  One with a part
    past 10^30 is named by its parts' digit counts, found without str(),
    which stops at 4300 digits."""
    if not 1 / sys.float_info.max < T <= sys.float_info.max / 2:
        p, q = (T.numerator, T.denominator) if isinstance(T, (int, Fraction)) else (0, 1)
        if max(abs(p), q) <= 10**30:
            shown = repr(T)[:40]
        elif q == 1:
            shown = f"an integer of {decimal_digits(p)} digits"
        else:
            shown = f"a fraction of {decimal_digits(p)} over {decimal_digits(q)} digits"
        raise ValueError(f"averaging horizon must be positive with 1/T and 2T finite, got {shown}")


def decimal_digits(k) -> int:
    """Digits of a nonzero integer: e or e + 1 for e = round(log10 |k|)."""
    e = round(math.log10(abs(k)))
    return e + (abs(k) >= 10**e)


def short_cycle_ladder() -> tuple[int, ...]:
    """Odd 7-smooth cycle lengths from 125 up to 10^5, each the least one
    at least 1.5 times the one before.  np.fft transforms each directly,
    and a coarse ladder keeps a batch's times in few groups."""
    lengths, top = [125], 10**5
    powers = [range(int(math.log(top, p)) + 2) for p in (3, 5, 7)]
    for m in sorted(3**a * 5**b * 7**c for a in powers[0] for b in powers[1] for c in powers[2]):
        if 1.5 * lengths[-1] <= m <= top:
            lengths.append(m)
    return tuple(lengths)


# the cycle lengths `light_cone` runs P_t and K_T on inside their light cone
# (125, 189, 315, 525, 875, ..., 91125), and the largest |t| or T each
# holds: e (2 |t| / 3) <= h = (m - 1) / 2
SHORT_CYCLES = np.array(short_cycle_ladder())
SHORT_REACH = 1.5 / np.e * (SHORT_CYCLES // 2)
SHORT_CYCLES.flags.writeable = SHORT_REACH.flags.writeable = False


def light_cone(n, times, profiles):
    """`profiles(m, ts)`, a (len(ts), ..., m) stack on the m-cycle prism, run
    once per time on the cycle its (n, t) picks; shape (len(times), ..., n).
    A pair (head, stack) whose head (..., len(ts)) does not depend on m,
    such as P_t's coin, comes back as one pair, heads in time order.

    P_t's cycle amplitude is a_t(r) = sum_{k = r mod n} i^k J_k(z) with
    z = 2 |t| / 3, and |J_k(z)| <= (z / 2)^k / k! <= 2^-k for k >= e z
    (DLMF 10.14.4).  So on an odd cycle of half-length h >= K(t) =
    max(60, ceil(e z)) offsets 0..h match the line to 2^(1 - K) <= 1.7e-18
    and the rest are smaller; so does K_T, P_t's average over 0 <= t <= T,
    at K(T).  A time runs on the shortest length m of SHORT_CYCLES with
    2 K + 1 <= m <= n / 2, offsets 0..h written, mirrored and 0 beyond, or
    else on n; a batch with no time in the cone is `profiles(n, times)`, and
    so is every batch at n < 250, where no short cycle fits.  The choice
    depends on (n, t) alone, so a batch is its single calls bit for bit.
    """
    # time k runs on SHORT_CYCLES[which[k]], or on n where which[k] == rungs
    rungs = SHORT_CYCLES.searchsorted(n // 2, side="right")
    if not rungs:
        return profiles(n, times)
    which = np.searchsorted(SHORT_REACH[:rungs], np.abs(times))
    if (which == rungs).all():
        return profiles(n, times)
    head = out = None
    for k in set(which.tolist()):
        rows, m = which == k, n if k == rungs else int(SHORT_CYCLES[k])
        part = profiles(m, times[rows])
        if isinstance(part, tuple):
            head = np.empty((*part[0].shape[:-1], len(times))) if head is None else head
            head[..., rows], part = part
        out = np.empty((len(times), *part.shape[1:-1], n)) if out is None else out
        if m == n:
            out[rows] = part
            continue
        h = m // 2
        out[rows, ..., h + 1 : n - h] = 0.0
        out[rows, ..., : h + 1] = part[..., : h + 1]
        out[rows, ..., n - h :] = part[..., h:0:-1]
    return out if head is None else (head, out)


@odd_order_cache
def cycle_rates(n):
    """The folded rates (2/3) cos(2 pi mu / n) of `probability_factors`
    and `mode_phases`, built once per n and read-only."""
    mu, _ = folded_modes(n)
    return (2.0 / 3.0) * mode_cosines(n)[mu]


def probability_profiles(n, times) -> np.ndarray:
    """P_t profiles (len(times), 2, n), coin[flip] law[r] of `probability_factors`."""
    coin, law = probability_factors(n, times)
    return coin.T[:, :, None] * law[:, None, :]


def probability_factors(n, times) -> tuple[np.ndarray, np.ndarray]:
    """P_t's factors for many times at once: the coin (2, len(times)) and the
    cycle law |a|^2 (len(times), n), P_t(flip, r) = coin[flip] law[r]; when
    every time runs on n, law.T is a time-minor buffer, read without a copy.

    The graph is the prism C_n x K_2, so the branch eigenvalues are
    (2 cos(2 pi m / n) +- 1) / 3 and the walk factorises into an n-cycle
    walk times a two-state coin.  With a = ifft(e^{2 i t cos(2 pi m / n) / 3})
    the same-block amplitude is cos(t / 3) a and the other-block one
    i sin(t / 3) a: one inverse DFT per time of the (n + 1) / 2 phases
    e^{i x_mu} on the folded modes (mirror modes m, n - m share a cosine),
    whose rates `cycle_rates` caches per n.  Each phase takes one tan, of
    the exactly halved angle: (1 - u^2 + 2iu) / (1 + u^2) with
    u = tan(x / 2), within 2.2e-16 of np.exp(1j x), finite as no double is
    near enough an odd multiple of pi / 2 for u^2 to overflow.  numpy 2.x
    has a SIMD float64 tan but computes complex exp in scalar libm.  The
    coin is read from mode 0's phase e^{2 i t / 3}: cos^2, sin^2(t / 3) =
    (1 +- cos(2 t / 3)) / 2, and comes back through `light_cone` as a head.

    Each time runs on the cycle `light_cone` picks; on n P_t is even only to
    rounding.  A row costs O(n + t log t) inside the cone, O(n log n) outside.
    """
    try:
        times = np.asarray(times, dtype=float).ravel()
    except OverflowError:
        raise ValueError("walk times must be finite, got an integer too large for a float") from None
    if not np.isfinite(times).all():
        raise ValueError(f"walk times must be finite, got {times[~np.isfinite(times)][0]}")
    check_odd_order(n)

    def transform(m, ts):
        # times innermost; the folded half of one length-m buffer, mirrored
        # into the rest; u and w = 1 + u^2 go before the transform, the buffer
        # before |a|, so at most two phase-sized complex arrays are alive at once
        h = m // 2
        phases = np.empty((m, len(ts)), dtype=complex)
        cos, sin = phases.real[: h + 1], phases.imag[: h + 1]
        u = np.multiply.outer(0.5 * cycle_rates(m), ts)
        np.tan(u, out=u)
        w = np.square(u)
        np.subtract(1.0, w, out=cos)
        w += 1.0
        cos /= w
        u *= 2.0
        np.divide(u, w, out=sin)
        coin = 0.5 + np.multiply.outer([0.5, -0.5], cos[0])
        del u, w, cos, sin
        phases[h + 1 :] = phases[h:0:-1]
        cycle = np.fft.ifft(phases, axis=0)
        del phases
        cycle = np.abs(cycle)
        np.square(cycle, out=cycle)
        return coin, cycle.T

    return light_cone(int(n), times, transform)


def probability_row(n, i, t) -> np.ndarray:
    """All 2n transition probabilities from vertex i at time t."""
    return pair_values_row(n, probability_profiles(n, [t])[0], i)


def probability_matrix(n, t) -> np.ndarray:
    """Dense 2n x 2n probability matrix at time t; symmetric and doubly
    stochastic."""
    return pair_values_dense(n, probability_profiles(n, [t])[0])


def real_phase_average(x, T):
    """(1/T) integral_0^T cos(x t) dt = sin(x T) / (x T), exactly 1 at x = 0;
    x and T broadcast, so the resonant pairs take every horizon at once."""
    return np.sinc(x * (T / np.pi))


@dataclass
class AveragedWalkMatrix:
    """Time-averaged transition matrix stored as its 2n distinct values.

    values[0, delta] holds same-block entries and values[1, delta]
    opposite-block ones; entry (i, j) is values[pair_cell(n, i, j)].  Each
    row and each column of the dense expansion contains every distinct
    value exactly once.
    """

    n: int
    T: float
    values: np.ndarray

    def entry(self, i, j) -> float:
        return float(self.values[pair_cell(self.n, i, j)])

    def row(self, i) -> np.ndarray:
        return pair_values_row(self.n, self.values, i)

    def to_dense(self) -> np.ndarray:
        return pair_values_dense(self.n, self.values)

    def distance_to_limit(self) -> float:
        """Induced 1-norm (max absolute column sum) distance to the limit.

        Columns of both matrices are value-permutations of the same (2, n)
        profiles, so that norm is the profile deviation summed once.
        """
        return float(np.abs(self.values - limit_profile(self.n)).sum())


@odd_order_cache
def branch_rates(n):
    """The rates of phi and psi in `mode_phases`: `cycle_rates`, and plus 2/3."""
    return cycle_rates(n) + np.array([[0.0], [2.0 / 3.0]])


def mode_phases(n, Ts) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode factors a, b, (len(Ts), 2, 2, size) and (len(Ts), 2, size):
    with phi = T (2/3) cos(2 pi mu / n) from `cycle_rates` and psi = phi +
    2T/3, sin(xT) w w' / (2T) of a same- or cross-branch pair (mu, mu') at
    Ts[h] is column mu of a[h, 0] or a[h, 1] dotted with column mu' of b[h]."""
    *_, w = gap_tables(n)
    Ts = np.asarray(Ts, dtype=float).reshape(-1, 1, 1)
    phases = Ts * branch_rates(n)
    # a[:, k] = (sin, -cos) of phases[:, k], scaled by w / (2T); b = w (cos phi, sin phi)
    a = np.empty((len(Ts), 2, 2, len(w)))
    np.sin(phases, out=a[:, :, 0])
    np.cos(phases, out=a[:, :, 1])
    b = w * a[:, 0, ::-1]
    a *= (0.5 * w) / Ts[..., None]
    np.negative(a[:, :, 1], out=a[:, :, 1])
    return a, b


@odd_order_cache
def gap_tables(n):
    """The O(n) tables of the folded (mu, mu') gap grid, built once per n and
    read-only: (hankel, toeplitz, spectrum, w).  hankel * toeplitz is 2 / x
    for the same-branch gap x = -(4/3) sin(pi (mu + mu') / n)
    sin(pi (mu - mu') / n) above the diagonal and exactly 0 on and below it:
    hankel holds -(3/4) / sin(pi (mu + mu') / n) (0 at mu = mu' = 0) and
    toeplitz 2 / sin(pi (mu - mu') / n) where mu' > mu, both views of one
    circulant of a reciprocal sine table.  spectrum is `folded_eigenvalues`,
    lambda+ then lambda-, each decreasing in mu; w the fold weights."""
    mu, w = folded_modes(n)
    size = len(mu)
    spectrum = folded_eigenvalues(n)
    # |sin(pi k / n)| at k = 1..n-1, past size - 1 as sin(pi (n - k) / n) of
    # the small angle, at full relative precision
    sine = np.abs(np.sin(np.pi / n * np.concatenate([mu[1:], -mu[:0:-1]])))
    # table[r, c] = t[(c - r) mod 2n] with t = (0, -2 / sine[:size - 1], 0,
    # -(3/4) / sine, size - 1 zeros): hankel[mu, mu'] = t[size + mu + mu'] and
    # toeplitz[mu, mu'] = t[mu' - mu], 0 where mu' <= mu
    zero = np.zeros(1)
    table = circulant(np.concatenate([zero, -2.0 / sine[: size - 1], zero, -0.75 / sine, np.zeros(size - 1)]))
    hankel, toeplitz = table[: 2 * n - 1 - size : -1, size - 1 : 2 * size - 1], table[:size, :size]
    return hankel, toeplitz, spectrum, w


def folded_gap_blocks(n):
    """(r, (same, cross)) for each `blocks` row slice r of the folded
    (mu, mu') grid, in one (2, rows, size) buffer that the next block
    overwrites.  same is 2 / x of the same-branch gap x, from column
    first = max(0, r.start - rows + 1) on, the product of the `gap_tables`
    tables: nonzero only above the diagonal, so a block reads each unordered
    pair once and the columns it sweeps left of the diagonal are exactly 0.
    cross is the cross-branch gap lambda+_mu - lambda-_mu' at every column.
    A grid that fits one slice, size^2 <= BLOCK (n <= 511), comes whole from
    `one_block_gaps`, read-only; a larger one is never kept, as it would be
    O(n^2)."""
    hankel, toeplitz, (plus, minus), _ = gap_tables(n)
    size = len(plus)
    height = next(blocks(size, size)).stop
    if height == size:
        yield slice(0, size), one_block_gaps(n)
        return
    buffer = np.empty((2, height, size))
    for r in blocks(size, size):
        rows = r.stop - r.start
        first = max(0, r.start - rows + 1)
        same, cross = buffer[0, :rows, first:], buffer[1, :rows]
        np.multiply(hankel[r, first:], toeplitz[r, first:], out=same)
        # a row fill and a subtraction of rows: the same bits as one
        # broadcast np.subtract of the column plus[r, None], and 1.4x faster
        # at n = 4001 (x86-64, numpy 2.4)
        np.copyto(cross, plus[r, None])
        cross -= minus
        yield r, (same, cross)


@odd_order_cache
def one_block_gaps(n):
    """The (same, cross) grids of `folded_gap_blocks` at an n whose folded
    grid is one `blocks` slice, as its loop would build them, once per n and
    read-only: 2 size^2 <= 2 BLOCK floats, 1 MiB at most."""
    hankel, toeplitz, (plus, minus), _ = gap_tables(n)
    return hankel * toeplitz, np.subtract.outer(plus, minus)


@odd_order_cache
def resonant_pairs(n):
    """The folded cross-branch pairs whose gap x = lambda+_mu - lambda-_mu',
    as `folded_gap_blocks` computes it, has |x| < 1/n^2: (rows, cols, gaps)
    in row order, built once per n and read-only.  lambda- decreases in mu',
    so one searchsorted puts lambda+_mu between lambda-_(j-1) and lambda-_j,
    the only candidates: the spectrum's spacing (4/3) sin^2(pi / n) exceeds
    5 / n^2.  At most 2 rows per odd n <= 4001 hold one."""
    *_, (plus, minus), _ = gap_tables(n)
    size = len(plus)
    rows = np.arange(size).repeat(2)
    cols = ((-minus).searchsorted(-plus)[:, None] + [-1, 0]).ravel()
    inside = (cols >= 0) & (cols < size)
    rows, cols = rows[inside], cols[inside]
    gaps = plus[rows] - minus[cols]
    near = np.abs(gaps) < 1.0 / n**2
    return rows[near], cols[near], gaps[near]


def averaged_profiles(n, Ts) -> np.ndarray:
    """All distinct time-averaged entries at many horizons; shape
    (len(Ts), 2, n), each T checked before it becomes a float.  `light_cone`
    runs `averaged_kernel` on the cycle that holds T's cone, or n: O(m^2) on m."""
    check_odd_order(n)
    for T in Ts:
        check_horizon(T)
    return light_cone(int(n), np.asarray(Ts, dtype=float), averaged_kernel)


@odd_order_cache
def kernel_plan(n, height):
    """`averaged_kernel`'s O(n) index plan at n and block height: per block,
    its diagonal's buffer positions and w^2 / 2, its resonant pairs' positions
    and slice of `resonant_pairs`; then their scales w w' / 2 and gaps x."""
    mu, w = folded_modes(n)
    width = len(mu) + 2 * height - 1
    i, j, x = resonant_pairs(n)
    diagonal, square, where = mu % height * width + mu, 0.5 * w * w, i % height * width + j
    cuts = i.searchsorted(mu[::height]).tolist() + [len(i)]
    pieces = tuple(
        (diagonal[s : s + height], square[s : s + height], where[a:b], slice(a, b))
        for s, a, b in zip(mu[::height].tolist(), cuts, cuts[1:])
    )
    return pieces, 0.5 * w[i] * w[j], x


def averaged_kernel(n, Ts) -> np.ndarray:
    """`averaged_profiles` on the n-cycle prism at checked float horizons:
    about n^2 / 2 real kernel values per horizon, O(len(Ts) n + BLOCK) memory.

    The average is real: a mode pair and its mirror (m, m') -> (-m, -m')
    carry conjugate phases, so only the real kernel sin(xT) / (xT) enters.
    Modes are folded to mu = 0..(n-1)/2 with weights w = (1, 2, 2, ...);
    the four preimages of (mu, mu') carry w w' / 2 times
    cos 2 pi delta (mu - mu') / n + cos 2 pi delta (mu + mu') / n, so each
    kernel value is binned at |mu - mu'| and at mu + mu', and
    `cosine_profiles` finishes the job.

    Each block of rows takes its gaps from `folded_gap_blocks`.  Per
    horizon, sin(xT) w w' / (2T) is a rank-2 product of `mode_phases`
    factors.  The same-branch x is symmetric in (mu, mu'), so a block sweeps
    its upper triangle only, from the block's first column on, times the
    cached 2 / x: both bins of a pair are reached from one entry, and the
    zeros left of the diagonal bin to nothing.  A cross-branch value is
    divided by x.  Both hold to rounding wherever x is not tiny: a nonzero
    same-branch gap exceeds 5 / n^2.  So only two kinds of pair take their
    value directly: the same-branch diagonal, x = 0, whose value is w^2 / 2
    at every T, and the at most 2 rows of `resonant_pairs`, which take
    w w' / 2 sin(xT) / (xT) for the whole batch at once.  `kernel_plan` splits
    both by block, once per n and height; a block writes them over its products.
    The kernel block is written into a zero-padded buffer whose rows,
    re-cut one entry shorter or longer, put each anti-diagonal or diagonal
    in one column: a column sum bins the block at mu + mu' or at mu' - mu;
    a cross-branch mu' - mu < 0 folds onto |mu - mu'|.  The same branch's
    columns at mu + mu' >= 2 r.start and mu' - mu >= 0 read only what the
    block wrote, or padding.  An empty batch sweeps no block.
    """
    if not len(Ts):
        return np.zeros((0, 2, n))
    factors = mode_phases(n, Ts)
    size = (n + 1) // 2
    # binned[h, 0] collects horizon h's same-branch kernel values, [h, 1] cross-branch
    binned = np.zeros((len(Ts), 2, n))
    # buffers for the first block, the tallest: kernel row i sits at columns
    # height - 1 .. height + size - 2 of row i of the zero-padded `flat`,
    # so kernel[i, j] is lead[i * width + j]
    height = next(blocks(size, size)).stop
    width = size + 2 * height - 1
    flat = np.zeros(height * (width + 1))
    kernel = flat[: height * width].reshape(height, width)[:, height - 1 : height - 1 + size]
    lead = flat[height - 1 :]
    plan, scales, gaps = kernel_plan(n, height)
    # the resonant pairs' values at every horizon, (len(Ts), pairs)
    values = scales * real_phase_average(gaps, np.reshape(Ts, (-1, 1))) if len(gaps) else np.zeros((len(Ts), 0))
    for r, (same, cross) in folded_gap_blocks(n):
        rows, last, first = r.stop - r.start, r.stop - 1, size - same.shape[1]
        at_diagonal, squares, at_resonant, pairs = plan[r.start // height]
        resonant = values[:, pairs]
        # only the last block can be shorter; it uses the first rows
        kernel = kernel[:rows]
        upper = kernel[:, first:]
        # re-cut one entry shorter, column k holds mu + mu' = r.start + k;
        # one entry longer, mu' - mu = k - last
        sums = flat[: rows * (width - 1)].reshape(rows, width - 1)[:, height - 1 : height + size + rows - 2]
        diffs = flat[: rows * (width + 1)].reshape(rows, width + 1)[:, height - rows : height + size - 1]
        for a, b, (same_out, cross_out), value in zip(*factors, binned, resonant):
            np.matmul(a[0, :, r].T, b[:, first:], out=upper)
            upper *= same
            lead[at_diagonal] = squares
            same_out[2 * r.start : r.start + size + rows - 1] += sums[:, r.start :].sum(axis=0)
            same_out[: size - r.start] += diffs[:, last:].sum(axis=0)
            np.matmul(a[1, :, r].T, b, out=kernel)
            np.divide(kernel, cross, out=kernel)
            lead[at_resonant] = value
            cross_out[r.start : r.start + size + rows - 1] += sums.sum(axis=0)
            by_diff = diffs.sum(axis=0)
            cross_out[: size - r.start] += by_diff[last:]
            cross_out[last:0:-1] += by_diff[:last]
    vals = cosine_profiles(binned, n) / (2 * n * n)
    # every row of the dense matrix holds each distinct value once
    drift = np.abs(vals.sum(axis=(1, 2)) - 1.0)
    if not (drift <= ROW_SUM_TOL).all():
        raise RuntimeError(f"averaged profile sum drifted {drift.max()} away from 1")
    return vals


def averaged_matrix(n, T) -> AveragedWalkMatrix:
    """The time-averaged matrix at one horizon: a view of `averaged_profiles`,
    which checks T before it is converted to a float."""
    values = averaged_profiles(n, [T])[0]
    return AveragedWalkMatrix(n, float(T), values)


@dataclass(frozen=True)
class LimitingDistribution:
    """Infinite-horizon average: every entry is one of two exact rationals.

    The value 1/(2n) + (n-1)/(2n^2) sits at the two delta = 0 entries of
    each column (one per block); all other entries equal
    1/(2n) - 1/(2n^2).  The block sign drops out because the two branches
    never share an eigenvalue for odd n.
    """

    n: int
    diagonal: Fraction
    off_diagonal: Fraction

    def entry(self, i, j) -> Fraction:
        _, delta = pair_cell(self.n, i, j)
        return self.diagonal if delta == 0 else self.off_diagonal

    def row_sum(self) -> Fraction:
        return 2 * self.diagonal + (2 * self.n - 2) * self.off_diagonal

    def min_entry(self) -> Fraction:
        return min(self.diagonal, self.off_diagonal)

    def values(self) -> np.ndarray:
        """(2, n) float profile matching AveragedWalkMatrix.values layout."""
        out = np.full((2, self.n), float(self.off_diagonal))
        out[:, 0] = float(self.diagonal)
        return out

    def to_dense(self) -> np.ndarray:
        return pair_values_dense(self.n, self.values())


def limiting_distribution(n) -> LimitingDistribution:
    check_odd_order(n)
    return LimitingDistribution(
        n,
        Fraction(1, 2 * n) + Fraction(n - 1, 2 * n * n),
        Fraction(1, 2 * n) - Fraction(1, 2 * n * n),
    )


@odd_order_cache
def limit_profile(n) -> np.ndarray:
    """`limiting_distribution(n).values()`, built once per n and read-only."""
    return limiting_distribution(n).values()


def distance_to_limit(n, T) -> float:
    """||averaged matrix at horizon T - limit||_1 in O(n^2)."""
    return averaged_matrix(n, T).distance_to_limit()

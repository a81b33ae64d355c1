"""Reference implementations the tests compare the package against.

None of this is on a fast path.  Each piece is the literal definition of
something `qwalk` computes another way:

- the group law of D_2n and its Cayley graph, against which the
  block-circulant relabeling `qwalk.dihedral.semi_cayley_adjacency` is
  checked;
- the unit eigenvectors and the dense propagator assembled from them,
  for the closed-form transition probabilities, and, at sizes the
  propagator cannot reach, the length-n inverse np.fft of the mirrored
  folded phases and the cycle amplitude summed from Bessel functions,
  which shares no transform with the package;
- the prime factors of a cycle length and whether np.fft transforms it
  without Bluestein's algorithm, for the short-cycle ladder of P_t;
- the direct O(n^2) double sum of the time-averaged kernel, its
  folded sum with sin(xT) / (xT) evaluated directly at every mode pair,
  and, at large n, the Gauss-Legendre quadrature of P_t over [0, T],
  which shares no gap, mode phase or kernel code with the package;
- the exact law of the measured walk, the k-th power of the averaged
  kernel taken through its branch characters, for the sampler;
- the wrapped arcsine model D(c) of the averaged kernel's distance to
  its limit at horizon c n, for the scaling of the quantum threshold, its
  Bessel model of the largest non-trivial character of the averaged
  kernel, for the sampler's per-step contraction, and
  the two-theta model D_cl(a) of the classical walk's distance at step
  a n^2, for the scaling of the classical one;
- the normalized adjacency, dense powers of the classical walk and the
  matrix distances built on them, for the distinct-value profiles;
- the quarter split of the eigenvalue indices behind the folded gap sums,
  and the cross-branch gap sum in its cosine form, summed over the whole
  grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import j0, jv

from qwalk.classical import check_step_count, classical_profile, profile_column_distance
from qwalk.dihedral import (
    blocks,
    check_odd_order,
    check_vertex,
    cosine_profiles,
    pair_cell,
    pair_values_row,
    semi_cayley_adjacency,
)
from qwalk.spectra import (
    DEFAULT_EPSILON,
    MINUS,
    PLUS,
    check_branch,
    check_epsilon,
    eigenvalues,
    folded_modes,
    full_spectrum,
    mode_cosines,
)
from qwalk.walk import averaged_matrix, check_horizon, probability_profiles

ORACLE_SIZE_CAP = 512

# tolerance on the imaginary residue of assembled real quantities
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class DihedralElement:
    """Group element b^s a^r in canonical form: 0 <= r < n, s in {0, 1}."""

    n: int
    r: int
    s: int

    def __post_init__(self):
        check_odd_order(self.n)
        if not isinstance(self.r, (int, np.integer)) or not 0 <= self.r < self.n:
            raise ValueError(f"rotation exponent {self.r!r} out of range for n={self.n}")
        if self.s not in (0, 1):
            raise ValueError(f"reflection exponent must be 0 or 1, got {self.s!r}")

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        return mul(self, other)

    def inverse(self) -> "DihedralElement":
        if self.s == 1:
            # every reflection is an involution
            return self
        return DihedralElement(self.n, (self.n - self.r) % self.n, 0)

    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0


def identity(n) -> DihedralElement:
    return DihedralElement(n, 0, 0)


def mul(x: DihedralElement, y: DihedralElement) -> DihedralElement:
    """Product xy, using a^r b = b a^{-r} to restore canonical form."""
    if x.n != y.n:
        raise ValueError(f"mixed group sizes {x.n} and {y.n}")
    s = (x.s + y.s) % 2
    r = ((-1) ** y.s * x.r + y.r) % x.n
    return DihedralElement(x.n, r, s)


def elements(n) -> list[DihedralElement]:
    """All 2n elements, rotations a^r first, then reflections b a^r."""
    check_odd_order(n)
    return [DihedralElement(n, r, s) for s in (0, 1) for r in range(n)]


def generators(n) -> list[DihedralElement]:
    """The connection set {a, a^-1, b}; three distinct involution-closed elements."""
    check_odd_order(n)
    return [
        DihedralElement(n, 1, 0),
        DihedralElement(n, n - 1, 0),
        DihedralElement(n, 0, 1),
    ]


def element_index(x: DihedralElement) -> int:
    """Enumeration index of x: a^r -> r, b a^r -> n + r."""
    return x.r if x.s == 0 else x.n + x.r


@dataclass
class CayleyGraph:
    """Cayley graph of the dihedral group with connection set {a, a^-1, b}.

    Elements g and h are adjacent iff g^-1 h lies in the connection set,
    i.e. h in {g a, g a^-1, g b}.  With this orientation of the edge rule
    the relabeling `phi` below is a graph isomorphism onto
    `semi_cayley_adjacency`; the mirror-image rule (h g^-1 in the set)
    yields an isomorphic graph but breaks that particular relabeling.

    The adjacency matrix is indexed by `element_index` order.
    """

    n: int
    elements: list[DihedralElement]
    adjacency: np.ndarray

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def has_edge(self, x: DihedralElement, y: DihedralElement) -> bool:
        return bool(self.adjacency[element_index(x), element_index(y)])

    def neighbors(self, x: DihedralElement) -> list[DihedralElement]:
        row = self.adjacency[element_index(x)]
        return [self.elements[j] for j in np.flatnonzero(row)]


def cayley_graph(n) -> CayleyGraph:
    els = elements(n)
    gens = generators(n)
    size = 2 * n
    adj = np.zeros((size, size), dtype=np.int64)
    for g in els:
        gi = element_index(g)
        for s in gens:
            adj[gi, element_index(mul(g, s))] = 1
    return CayleyGraph(n, els, adj)


def phi(x: DihedralElement) -> int:
    """Relabel a group element as a block-circulant vertex index.

    Rotations keep their exponent; a reflection b a^r lands at
    n + (n - r) mod n, which reverses the second cycle's orientation.
    """
    if x.s == 0:
        return x.r
    return x.n + (x.n - x.r) % x.n


def phi_inverse(n, i) -> DihedralElement:
    check_odd_order(n)
    check_vertex(n, i)
    if i < n:
        return DihedralElement(n, int(i), 0)
    return DihedralElement(n, (n - (int(i) - n)) % n, 1)


def check_mode(n, m) -> None:
    if not isinstance(m, (int, np.integer)) or not 0 <= m < n:
        raise ValueError(f"mode index {m!r} out of range [0, {n})")


def eigenvector_component(n, m, branch, i) -> complex:
    """Component i of the unit eigenvector for mode m on the given branch."""
    check_odd_order(n)
    check_mode(n, m)
    check_branch(branch)
    check_vertex(n, i)
    sign = 1.0 if branch == PLUS or i < n else -1.0
    return sign * np.exp(2j * np.pi * (i % n) * m / n) / math.sqrt(2 * n)


def eigenvector(n, m, branch) -> np.ndarray:
    """Unit-norm eigenvector; the reflection block is negated on the
    antisymmetric branch."""
    check_odd_order(n)
    check_mode(n, m)
    check_branch(branch)
    rho = np.arange(2 * n) % n
    vec = np.exp(2j * np.pi * rho * m / n) / math.sqrt(2 * n)
    if branch == MINUS:
        vec[n:] = -vec[n:]
    return vec


def eigenbasis(n) -> np.ndarray:
    """Column matrix of all 2n unit eigenvectors, ordered like `full_spectrum`."""
    check_odd_order(n)
    cols = [eigenvector(n, m, b) for b in (PLUS, MINUS) for m in range(n)]
    return np.stack(cols, axis=1)


def classical_lower_bound_relaxed(n, epsilon) -> float:
    """`qwalk.spectra.classical_lower_bound` with 1 / (1 - lambda_2) relaxed
    to 3 n^2 / (4 pi^2)."""
    check_odd_order(n)
    check_epsilon(epsilon)
    return max(0.0, (3.0 * n * n / (4.0 * math.pi**2) - 1.0) * math.log(1.0 / (2.0 * epsilon)))


def amplitude(n, i, j, t) -> complex:
    """Transition amplitude <j| e^{i A t / 3} |i> in O(n) via the two branches."""
    check_odd_order(n)
    flip, delta = pair_cell(n, i, j)
    eps = 1 - 2 * flip
    lp = eigenvalues(n, PLUS)
    lm = eigenvalues(n, MINUS)
    phase = np.exp(2j * np.pi * np.arange(n) * delta / n)
    total = (phase * (np.exp(1j * lp * t) + eps * np.exp(1j * lm * t))).sum()
    return complex(total / (2 * n))


def probability(n, i, j, t) -> float:
    """Probability of finding the walker at j at time t, started at i."""
    return abs(amplitude(n, i, j, t)) ** 2


def propagator_oracle(n, t) -> np.ndarray:
    """Dense U(t) assembled from the analytic orthonormal eigenbasis.

    Reference path for validating the closed-form entries; refuses sizes
    where the O(n^3) assembly stops being a sane cross-check.
    """
    check_odd_order(n)
    if n > ORACLE_SIZE_CAP:
        raise ValueError(f"oracle capped at n={ORACLE_SIZE_CAP}, got n={n}")
    basis = eigenbasis(n)
    lam = full_spectrum(n)
    return (basis * np.exp(1j * lam * t)) @ basis.conj().T


def fft_probability_profiles(n, times) -> np.ndarray:
    """P_t profiles, shape (len(times), 2, n), from one length-n inverse
    np.fft per time of the folded phases mirrored back to n modes: the
    cycle amplitude a = ifft(e^{2 i t cos(2 pi m / n) / 3}) times the coin
    (1 +- cos(2 t / 3)) / 2, at any odd n."""
    check_odd_order(n)
    mu, _ = folded_modes(n)
    phases = np.exp(1j * np.outer(np.asarray(times, dtype=float), (2.0 / 3.0) * mode_cosines(n)[mu]))
    cycle = np.abs(np.fft.ifft(np.concatenate([phases, phases[:, :0:-1]], axis=1), axis=1)) ** 2
    coin = 0.5 + np.multiply.outer(phases[:, 0].real, [0.5, -0.5])
    return coin[:, :, None] * cycle[:, None, :]


def wrapped_bessel_profiles(n, times) -> np.ndarray:
    """P_t profiles, shape (len(times), 2, n), with no Fourier transform:
    the cycle amplitude a_t(r) = sum_j i^(r + j n) J_(r + j n)(2 |t| / 3)
    over j = -3..3, the line's Jacobi-Anger amplitude wrapped onto the
    n-cycle, times the coin (cos^2(t / 3), sin^2(t / 3)).  For
    z = 2 |t| / 3 <= n every dropped order k has |k| > 3 n >= 3 z, where
    |J_k(z)| <= (e z / (2 |k|))^|k| < 2^-|k| (DLMF 10.14.4), so together
    they are below 2^(1 - 3 n)."""
    check_odd_order(n)
    times = np.asarray(times, dtype=float)
    z = 2.0 * np.abs(times) / 3.0
    if (z > n).any():
        raise ValueError(f"wrapping three times holds for 2 |t| / 3 <= n, got t = {times[z > n][0]} at n = {n}")
    orders = np.arange(n) + n * np.arange(-3, 4)[:, None]
    phases = 1j ** (orders % 4)
    cycle = np.stack([np.abs((phases * jv(orders, x)).sum(axis=0)) ** 2 for x in z])
    coin = np.stack([np.cos(times / 3.0) ** 2, np.sin(times / 3.0) ** 2], axis=-1)
    return coin[:, :, None] * cycle[:, None, :]


def prime_factors(m) -> set[int]:
    """The distinct prime factors of an integer m >= 1, by trial division."""
    factors, d = set(), 2
    while d * d <= m:
        if m % d:
            d += 1
        else:
            factors.add(d)
            m //= d
    if m > 1:
        factors.add(m)
    return factors


def direct_fft_length(m) -> bool:
    """Whether np.fft transforms length m without Bluestein's algorithm:
    pocketfft does so when m < 50 or no prime factor of m exceeds sqrt(m)."""
    return m < 50 or max(prime_factors(m)) ** 2 <= m


def phase_average(x, T):
    """(1/T) integral_0^T e^{i x t} dt, evaluated as e^{i x T / 2} sinc(x T / (2 pi)).

    Exact at x = 0 and free of subtractive cancellation for small |x T|.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * x * T) * np.sinc(x * T / (2.0 * np.pi))


def averaged_entry(n, delta, eps, T) -> float:
    """Time-averaged transition probability for a vertex pair at residue
    offset delta with block sign eps.

    Direct O(n^2) double sum over mode pairs of both branches; the
    assembled value must be real up to a 1e-9 residue, which is checked
    and then discarded.
    """
    check_odd_order(n)
    check_horizon(T)
    if not 0 <= delta < n:
        raise ValueError(f"residue offset {delta!r} out of range [0, {n})")
    if eps not in (1, -1):
        raise ValueError(f"block sign must be +1 or -1, got {eps!r}")
    lp = eigenvalues(n, PLUS)
    lm = eigenvalues(n, MINUS)
    m = np.arange(n)
    w = np.exp(2j * np.pi * delta * (m[:, None] - m[None, :]) / n)
    total = 0.0 + 0.0j
    for sa, la in ((PLUS, lp), (MINUS, lm)):
        for sb, lb in ((PLUS, lp), (MINUS, lm)):
            sgn = eps if sa != sb else 1
            total += sgn * (w * phase_average(la[:, None] - lb[None, :], T)).sum()
    total /= (2 * n) ** 2
    if not (abs(total.imag) <= IMAG_TOL):
        raise RuntimeError(f"imaginary residue {total.imag} above tolerance")
    return float(total.real)


def direct_averaged_profiles(n, Ts) -> np.ndarray:
    """`qwalk.walk.averaged_profiles` with the folded kernel sin(xT) / (xT)
    taken by np.sinc at every mode pair, in one grid: (len(Ts), 2, n).

    Each folded pair (mu, mu') is binned at |mu - mu'| and at mu + mu'
    folded into 0..(n-1)/2 with weight w w' / 2; same-branch gaps are
    -(4/3) sin((a + b) / 2) sin((a - b) / 2) at a, b = 2 pi mu / n, 2 pi mu' / n,
    cross-branch ones (2/3)(1 + cos a - cos b).
    """
    check_odd_order(n)
    mu, w = folded_modes(n)
    size = len(mu)
    angle = np.pi * mu / n
    cos = mode_cosines(n)[:size]
    weight = (0.5 * w[:, None]) * w
    diff = np.abs(mu[:, None] - mu).ravel()
    total = mu[:, None] + mu
    fold = np.minimum(total, n - total).ravel()
    same = (-4.0 / 3.0) * np.sin(angle[:, None] + angle) * np.sin(angle[:, None] - angle)
    cross = (2.0 / 3.0) * (1.0 + cos[:, None] - cos)
    binned = np.zeros((len(Ts), 2, size))
    for T, pair in zip(Ts, binned):
        check_horizon(T)
        for out, gap in zip(pair, (same, cross)):
            k = (np.sinc(gap * (T / np.pi)) * weight).ravel()
            out += np.bincount(diff, k, size) + np.bincount(fold, k, size)
    return cosine_profiles(binned, n) / (2 * n * n)


def quadrature_averaged_profiles(n, T) -> np.ndarray:
    """`qwalk.walk.averaged_profiles` at one horizon, shape (2, n), as the
    mean of `qwalk.walk.probability_profiles` over [0, T] by Gauss-Legendre
    with ceil(T) + 60 nodes, taken in chunks of about BLOCK entries.

    P_t is a trigonometric polynomial in t whose frequencies, the
    eigenvalue differences, are at most 2 in size: on the rule's [-1, 1]
    each term is e^{i c x} with |c| <= T, which ceil(T) + 60 nodes
    integrate to rounding.
    """
    check_horizon(T)
    nodes, weights = np.polynomial.legendre.leggauss(math.ceil(T) + 60)
    times = 0.5 * T * (nodes + 1.0)
    total = np.zeros((2, n))
    for r in blocks(len(times), 2 * n):
        total += np.tensordot(weights[r], probability_profiles(n, times[r]), axes=1)
    return 0.5 * total


def measured_law(n, T, steps, start) -> np.ndarray:
    """Exact law of the sampler's endpoint after `steps` measured steps
    from vertex `start`: row `start` of K_T^steps, K_T the averaged kernel.

    K_T = [[C_a, C_b], [C_b, C_a]] has circulant blocks, so the DFT
    diagonalises it with characters fft(a) +- fft(b), real because a and
    b are even.  Their powers at the folded modes go back to a profile
    through the package's one cosine transform.
    """
    check_step_count(steps)
    mu, w = folded_modes(n)
    a, b = np.fft.fft(averaged_matrix(n, T).values, axis=1).real[:, mu]
    profile = cosine_profiles(w * np.stack([a + b, a - b]) ** steps, n) / (2 * n)
    return pair_values_row(n, profile, start)


def arcsine_distance(c) -> float:
    """D(c) = integral_0^1 |rho_c(x) - 1| dx, the n-free limit of the averaged
    kernel's distance to its limit at horizon T = c n.

    The cycle amplitude sum_k i^k J_k(2t/3) spreads, in cycle units x = r / n,
    with the arcsine density 1 / (pi sqrt(w^2 - x^2)) between fronts at
    |x| = w = 2t / (3n).  Averaged over t in [0, c n] and wrapped onto the
    cycle it becomes rho_c(x) = (3 / (2 pi c)) sum_k arccosh(W / |x + k|)
    over |x + k| < W, W = 2c / 3.  Integrated by quad with breakpoints at
    the fronts |x + k| = W.
    """
    front = 2.0 * c / 3.0
    scale = 3.0 / (2.0 * math.pi * c)
    shifts = range(-math.ceil(front) - 1, math.ceil(front) + 1)

    def deviation(x):
        density = sum(math.acosh(front / abs(x + k)) for k in shifts if 0.0 < abs(x + k) < front)
        return abs(scale * density - 1.0)

    fronts = sorted({x for k in shifts for x in (front - k, -front - k) if 0.0 < x < 1.0})
    value, _ = quad(deviation, 0.0, 1.0, points=fronts or None, limit=400, epsabs=1e-11, epsrel=1e-11)
    return value


def bessel_contraction(c) -> float:
    """max over m >= 1 of |(1/c) integral_0^c J_0(4 pi m tau / 3) d tau|,
    the n-free limit of the averaged kernel's largest non-trivial
    |character| at horizon T = c n.

    Character m of |a_t|^2 is the mean over modes k of
    e^{(2 i t / 3)(cos(2 pi k / n) - cos(2 pi (k + m) / n))}, which tends
    to J_0(4 pi m t / (3 n)) as n grows, and K_T averages it over
    t in [0, c n].  integral_0^x J_0 lies in (0, 1.4703] for x > 0, so
    mode m is at most 0.351 / (m c) and the scan stops at m = 20.
    """
    return max(
        abs(quad(lambda tau: j0(4.0 * math.pi * m * tau / 3.0), 0.0, c, limit=400)[0]) / c for m in range(1, 21)
    )


def theta_distance(a) -> float:
    """D_cl(a) = (1/2) integral_0^1 max(|A(x)|, |B(x)|) dx, the n-free limit
    of the classical walk's distance to uniform at step t = a n^2.

    The slow modes sit near m = 0 on the + branch and near m = n/2 on the
    - branch; with kappa = 4 pi^2 / 3 they give
    A(x) = 2 sum_{m>=1} e^{-kappa a m^2} cos 2 pi m x and
    B(x) = 2 sum_{k>=0} e^{-kappa a (k+1/2)^2} cos 2 pi (k+1/2) x, the
    latter with a checkerboard sign that max(|A|, |B|) absorbs.  Terms
    with kappa a m^2 > 42, each below 6e-19, are dropped.
    """
    rate = 4.0 * math.pi**2 / 3.0 * a
    count = math.ceil(math.sqrt(42.0 / rate)) + 1
    whole = np.arange(1, count + 1)
    odd = np.arange(count + 1) + 0.5
    wa, wb = 2.0 * np.exp(-rate * whole**2), 2.0 * np.exp(-rate * odd**2)

    def spread(x):
        return max(abs(wa @ np.cos(2 * math.pi * whole * x)), abs(wb @ np.cos(2 * math.pi * odd * x)))

    value, _ = quad(spread, 0.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    return 0.5 * value


def normalized_adjacency(n) -> np.ndarray:
    """Adjacency scaled by the regular degree 3; symmetric and doubly stochastic."""
    return semi_cayley_adjacency(n) / 3.0


def classical_power(n, t) -> np.ndarray:
    """Dense t-step transition matrix (A/3)^t by repeated squaring."""
    check_odd_order(n)
    check_step_count(t)
    return np.linalg.matrix_power(normalized_adjacency(n), int(t))


def uniform_matrix(n) -> np.ndarray:
    check_odd_order(n)
    return np.full((2 * n, 2 * n), 1.0 / (2 * n))


def one_norm_distance(first, second, kind="induced") -> float:
    """Induced 1-norm (max absolute column sum) or entrywise sum of the
    difference of two matrices."""
    dev = np.abs(np.asarray(first, dtype=float) - np.asarray(second, dtype=float))
    if kind == "induced":
        return float(dev.sum(axis=0).max())
    if kind == "entrywise":
        return float(dev.sum())
    raise ValueError(f"unknown norm kind {kind!r}")


def induced_one_norm_distance(first, second) -> float:
    return one_norm_distance(first, second, kind="induced")


def max_pairwise_column_distance(matrix) -> float:
    """d(P): max over column pairs of half the l1 distance between columns."""
    cols = np.asarray(matrix, dtype=float)
    best = 0.0
    for j in range(cols.shape[1] - 1):
        gap = np.abs(cols[:, j : j + 1] - cols[:, j + 1 :]).sum(axis=0).max()
        best = max(best, 0.5 * float(gap))
    return best


def submultiplicativity_check(n, t1, t2, slack=1e-10) -> bool:
    """d(P^(t1+t2)) <= d(P^t1) d(P^t2) + slack."""
    check_step_count(t1)
    check_step_count(t2)
    d1 = profile_column_distance(n, classical_profile(n, t1))
    d2 = profile_column_distance(n, classical_profile(n, t2))
    d12 = profile_column_distance(n, classical_profile(n, t1 + t2))
    return d12 <= d1 * d2 + slack


def contraction_check(matrix, epsilon) -> bool:
    """Once d(M) <= 1/(2e), verify ||M^ceil(ln(1/epsilon)) - uniform||_1 <= epsilon."""
    mat = np.asarray(matrix, dtype=float)
    check_epsilon(epsilon)
    if max_pairwise_column_distance(mat) > DEFAULT_EPSILON:
        raise ValueError("matrix has not contracted to d <= 1/(2e) yet")
    k = math.ceil(math.log(1.0 / epsilon))
    powered = np.linalg.matrix_power(mat, k)
    size = mat.shape[0]
    return one_norm_distance(powered, np.full_like(mat, 1.0 / size)) <= epsilon


@dataclass(frozen=True)
class IndexSets:
    """Quarter split of the 2n eigenvalue indices.

    c1 and c2 are the first halves (modes 0..(n-1)/2) of the symmetric and
    antisymmetric branches; they carry every distinct eigenvalue.  The
    primed sets hold the mirrored modes (m and n - m share a value).
    """

    c1: np.ndarray
    c2: np.ndarray
    c1_prime: np.ndarray
    c2_prime: np.ndarray


def index_sets(n) -> IndexSets:
    check_odd_order(n)
    half = (n - 1) // 2
    return IndexSets(
        c1=np.arange(0, half + 1),
        c2=np.arange(n, n + half + 1),
        c1_prime=np.arange(half + 1, n),
        c2_prime=np.arange(n + half + 1, 2 * n),
    )


def cross_sum_cosine_form(n) -> float:
    """The unweighted cross-branch gap sum over the folded modes, written as
    (3/2) sum_{j,k} 1 / |cos(2 pi j / n) - cos(2 pi k / n) + 1|, from one
    whole (n + 1)/2 x (n + 1)/2 grid and an exact float sum."""
    cos = mode_cosines(n)[: (n - 1) // 2 + 1]
    return 1.5 * math.fsum((1.0 / np.abs(cos[:, None] - cos[None, :] + 1.0)).ravel())

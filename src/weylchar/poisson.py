"""Product-Poisson transition kernels and the tail estimates behind them.

Everything here is double precision with explicit truncation-tail accounting:
factorials mix scales badly, so masses are assembled in log space above 170!
and every report carries the bound on the part that was cut off.  One routine,
`_tables`, makes every check's mass tables and tail: it tabulates each rate's
masses 0..T once (`_masses`), every entry bit-identical to `poisson_mass` at
the same (t, k), and sums the complements of the tables into the tail.  The
kernels are products of one Poisson law per rate, and every check keeps them
so: it works on one mass vector per coordinate, and no check builds a joint
grid keyed by lattice points.  The semigroup check forms the product masses
in grid order, as flat lists, only to check and compare them.  Both series
checks take one trace value per rate and refuse one outside the closed unit
disk (`_trace_values`).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from weylchar.errors import InvariantError

_LOG_THRESHOLD = 170
# float(k!) for k <= _LOG_THRESHOLD.  Each is k! correctly rounded, which is
# what dividing a float by the int k! divides by.
_FACTORIALS = tuple(
    map(float, itertools.accumulate(range(1, _LOG_THRESHOLD + 1), operator.mul, initial=1))
)


def _mass_terms(t, ks):
    """Poisson(t) masses e^{-t} t^k / k! at each k >= 0 of ks, in order, lazily.

    e^{-t} and log max(t, 1) are computed once for all of them.  A mass past
    170!, at t >= 700 or where t^k would come near the float range is
    assembled in log space.  A negative, infinite or NaN t raises ValueError
    here, before any mass is made.
    """
    if not 0 <= t < math.inf:  # a NaN fails it too
        raise ValueError(f"Poisson rate must be nonnegative and finite, got {t}")
    if t == 0:
        return (1.0 if k == 0 else 0.0 for k in ks)
    e = math.exp(-t)
    log_t = math.log(max(t, 1.0))
    return (
        e * t**k / _FACTORIALS[k]
        if k <= _LOG_THRESHOLD and t < 700 and k * log_t < 600
        else math.exp(-t + k * math.log(t) - math.lgamma(k + 1))
        for k in ks
    )


def _masses(t, truncation: int) -> list[float]:
    """The table of Poisson(t) masses at 0..truncation."""
    return list(_mass_terms(t, range(truncation + 1)))


def _complement(masses) -> float:
    """1 minus the running sum of masses, floored at 0."""
    acc = 0.0
    for p in masses:
        acc += p
    return max(0.0, 1.0 - acc)


def _tables(rates, truncation: int) -> tuple[list[list[float]], float]:
    """The mass table at 0..truncation of each rate, and their summed complements.

    The sum, taken over the rates in order, is the truncation tail of every
    check.  An empty rate list or a negative truncation is refused.
    """
    if not rates:
        raise ValueError("need at least one rate")
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    tables = [_masses(t, truncation) for t in rates]
    return tables, sum(_complement(masses) for masses in tables)


def poisson_mass(t: float, k: int) -> float:
    """e^{-t} t^k / k!, stable for large k via log-space evaluation; 0 for k < 0."""
    masses = _mass_terms(t, (k,))  # made before k is read, so a bad t is refused at every k
    return next(masses) if k >= 0 else 0.0


def poisson_tail(t: float, k: int) -> float:
    """1 - P(X <= k) for X Poisson(t), as the float complement of the partial sum.

    The masses 0..k are summed in order and the sum is taken from 1, floored
    at 0.  That is not certified as an upper bound on P(X > k): once the sum
    rounds to 1 the result is 0.0, as at (5, 40) and (1, 30), where the true
    tails are 1.0e-23 and 4.6e-35.  ROADMAP item 4 holds the certified tail.
    """
    return _complement(_mass_terms(t, range(k + 1)))


def _rates(values, name: str = "rates") -> tuple[float, ...]:
    """The rates as floats, refused unless each is positive and finite."""
    rates = tuple(float(x) for x in values)
    # Written so that a NaN fails it too.
    if not all(0 < x < math.inf for x in rates):
        raise ValueError(f"{name} must be positive and finite")
    return rates


@dataclass(frozen=True)
class PoissonKernelParams:
    """Positive, finite rate vector a = (a_1, ..., a_m) of the product-Poisson kernel, as floats."""

    a: tuple

    def __post_init__(self):
        a = _rates(self.a)
        if not a:
            raise ValueError("need at least one rate")
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class SemigroupReport:
    k: int
    max_deviation: float
    tail_bound: float
    passed: bool


def _grid_masses(vectors, tail: float) -> list[float]:
    """The product masses on the grid, first coordinate slowest, after three checks.

    Each mass is the product of one entry per vector, formed left to right.
    None may be negative, their sum in grid order may not pass 1, and with
    the tail it must cover 1; a table that breaks one is a bug, not bad input.
    """
    masses = list(map(math.prod, itertools.product(*vectors)))
    if min(masses) < 0:
        raise InvariantError("negative mass")
    total = sum(masses)
    if total > 1 + 1e-9:
        raise InvariantError(f"mass {total} exceeds 1")
    if total + tail < 1 - 1e-6:
        raise InvariantError("tail bound does not cover the missing mass")
    return masses


def kstep_semigroup_check(
    params: PoissonKernelParams, k: int, truncation: int = 40
) -> SemigroupReport:
    """k-fold convolution of the kernel against the k-scaled kernel.

    Compares the truncated k-step transition from the origin with the single
    jump of rate k*a on the grid [0, truncation]^m; the deviation must stay
    below the convolution's truncation tail.  The kernel and the box are both
    products over coordinates, so the k steps run on one 1-D vector per
    coordinate, the direct jump is one mass table per coordinate, and the
    joint masses are their products, formed in grid order only to be checked
    and compared.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    steps, _ = _tables(params.a, truncation)
    direct, tail = _tables([k * ai for ai in params.a], truncation)
    iterated = []
    for pm in steps:
        vec = [1.0] + [0.0] * truncation
        for _ in range(k):
            new = [0.0] * (truncation + 1)
            for x, px in enumerate(vec):
                if px:
                    for z in range(truncation + 1 - x):
                        new[x + z] += px * pm[z]
            vec = new
        iterated.append(vec)
    # Increments are nonnegative, so a k-step path leaves the box exactly when
    # its endpoint does: the iterated row misses the same mass as the direct row.
    direct_masses = _grid_masses(direct, tail)
    iterated_masses = _grid_masses(iterated, tail)
    worst = max(map(abs, map(operator.sub, iterated_masses, direct_masses)))
    return SemigroupReport(k, worst, tail, worst <= max(tail, 1e-10))


def tv_bound(a_i, k: int) -> float:
    """Total-variation distance between k-step rows started at 0 and at e_i.

    Equals 2 e^{-t} t^[t] / [t]! with t = k a_i, which decays like
    sqrt(2/(pi t)); monotone nonincreasing once t >= 1.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    # k a_i can overflow to inf: `_rates` refuses that as it refuses a NaN or a rate <= 0.
    (t,) = _rates((float(a_i) * k,), "rate")
    return 2.0 * poisson_mass(t, math.floor(t))


@dataclass(frozen=True)
class StirlingReport:
    t: float
    closed_form: object
    partial_sum: float
    damped: float
    peak_mass: float
    terms: int
    tail_bound: float
    relative_deviation: float


def stirling_identity(t) -> StirlingReport:
    """Absolute consecutive-difference series against its closed form.

    sum_{n>=1} |t^{n-1}/(n-1)! - t^n/n!| telescopes to -1 + 2 t^[t]/[t]!; the
    report carries the partial sum over N = max(200, ceil(2t) + 10) terms,
    the closed form (exact when t is rational), the series tail t^N/N! left
    after N terms (N >= 2t + 10 keeps it negligible against the closed form,
    about e^t), e^{-t} times the closed form (the vanishing damped quantity),
    and the single Poisson mass e^{-t} t^[t]/[t]!, which behaves like
    1/sqrt(2 pi t) for large t.  Deviations are reported relative to the
    closed form.  A t whose series terms overflow a double (from about
    t = 707.42 on) raises ValueError.
    """
    tf = float(t)
    if not 0 < tf < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    n_terms = max(200, math.ceil(2 * tf) + 10)
    partial = 0.0
    term_prev = 1.0  # t^0/0!
    for n in range(1, n_terms + 1):
        term = term_prev * tf / n  # t^n/n!
        if term == math.inf:
            # Checked before the closed form, whose exact powers grow with t.
            raise ValueError(f"t = {t} is out of range: the terms t^n/n! overflow a double")
        partial += abs(term_prev - term)
        term_prev = term
    floor_t = math.floor(tf)
    if isinstance(t, (int, Rational)) and not isinstance(t, bool):
        tq = Fraction(t)
        closed: object = -1 + 2 * tq**floor_t / math.factorial(floor_t)
    else:
        closed = -1.0 + 2.0 * math.exp(floor_t * math.log(tf) - math.lgamma(floor_t + 1))
    # Beyond n = N >= t the differences are positive and telescope, so the
    # exact remainder is t^N/N!.
    tail = math.exp(n_terms * math.log(tf) - math.lgamma(n_terms + 1))
    closed_f = float(closed)
    damped = math.exp(-tf) * closed_f
    peak = poisson_mass(tf, floor_t)
    rel = abs(partial - closed_f) / max(1.0, abs(closed_f))
    return StirlingReport(tf, closed, partial, damped, peak, n_terms, tail, rel)


def _trace_values(values, rates) -> tuple[complex, ...]:
    """The trace values as complexes, one per rate, each in the closed unit disk."""
    values = tuple(map(complex, values))
    if len(values) != len(rates):
        raise ValueError("one trace value per rate")
    # Written so that a NaN fails it too.
    if not all(abs(v) <= 1 + 1e-9 for v in values):
        raise ValueError("trace values must lie in the closed unit disk")
    return values


def chi_tau_tauprime(tau_vals, tauprime_vals=()) -> complex:
    """exp(sum of tau(u-1) values plus sum of tau'(u*-1) values); modulus <= 1."""
    total = 0j
    for v in tuple(tau_vals) + tuple(tauprime_vals):
        v = complex(v)
        if not v.real <= 1e-9:  # a NaN fails it too
            raise ValueError(f"trace of (u - 1) must have nonpositive real part: {v}")
        total += v
    return cmath.exp(total)


@dataclass(frozen=True)
class SeriesReport:
    closed: complex
    series: complex
    deviation: float
    tail_bound: float
    truncation: int
    passed: bool


def poisson_series_check(
    a, b, n: int, tau_values, tauprime_values=None, truncation: int = 60
) -> SeriesReport:
    """Poisson-weighted double series against the closed exponential.

    With trace values tau_i = tau_{i,n}(u) of modulus at most 1, the series
    prod_i sum_x Poisson(n a_i)(x) tau_i^x * prod_j sum_y Poisson(n b_j)(y)
    conj(tau_j)^y is compared with exp(sum n a_i (tau_i - 1) + n b_j
    (conj tau_j - 1)) at the given truncation.
    """
    a = _rates(a)
    b = _rates(b)
    if n < 0:
        raise ValueError("level n must be nonnegative")
    tables, tail = _tables([n * rate for rate in a + b], truncation)
    if tauprime_values is None:
        # Conjugate side evaluated at the same unitary when b is in play.
        tauprime_values = tau_values if b else ()
    tau = _trace_values(tau_values, a)
    taup = _trace_values(tauprime_values, b)

    # The a rates take tau and then the b rates conj(tau'), as the tables run.
    values = tau + tuple(v.conjugate() for v in taup)
    series = 1 + 0j
    exponent = 0j
    for rate, masses, v in zip(a + b, tables, values):
        power = 1 + 0j
        factor = 0j
        for p in masses:
            factor += p * power
            power *= v
        series *= factor
        exponent += n * rate * (v - 1)
    closed = cmath.exp(exponent)
    deviation = abs(closed - series)
    return SeriesReport(closed, series, deviation, tail, truncation, deviation <= max(tail * 4, 1e-10))


@dataclass(frozen=True)
class ReexpansionReport:
    row_mass_deviation: float
    projection_deviation: float
    character_deviation: float
    binomial_deviation: float
    tail_bound: float
    passed: bool


def embedded_trace_values(tau_values, n: int, m: int):
    """Trace values after padding from level n to level m: (n tau + m - n)/m."""
    if not 0 < n < m:
        raise ValueError("need 0 < n < m")
    return tuple((n * complex(v) + (m - n)) / m for v in tau_values)


def binomial_reexpansion_check(
    a, n: int, m: int, tau_values, truncation: int = 80
) -> ReexpansionReport:
    """Consistency of the level-n and level-m Poisson expansions.

    Checks, against the (m-n)-scaled kernel: row masses within the
    truncation tail, the mean shift of coordinate projections
    x_i -> x_i + (m-n) a_i, the binomial re-expansion of
    ((n tau + m - n)/m)^z, and equality of the closed exponentials computed
    at level n and at level m after embedding.
    """
    a = _rates(a)
    if not 0 < n < m:
        raise ValueError("need 0 < n < m")
    step = m - n
    rates = tuple(step * x for x in a)
    tables, tail = _tables(rates, truncation)
    tau = _trace_values(tau_values, a)

    # Row mass and coordinate-projection means of the (m-n)-step kernel.
    row_dev = 0.0
    proj_dev = 0.0
    for r, masses in zip(rates, tables):
        mass = sum(masses)
        mean = sum(x * p for x, p in enumerate(masses))
        row_dev = max(row_dev, abs(mass - 1.0))
        proj_dev = max(proj_dev, abs(mean - r))

    # Binomial re-expansion of the embedded trace power for a few exponents.
    emb_vals = embedded_trace_values(tau, n, m)
    binom_dev = 0.0
    for v, emb in zip(tau, emb_vals):
        for z in (1, 2, 5):
            direct = emb**z
            expanded = sum(
                math.comb(z, x) * n**x * step ** (z - x) / m**z * v**x
                for x in range(z + 1)
            )
            binom_dev = max(binom_dev, abs(direct - expanded))

    # Closed exponentials agree across the embedding.
    level_n = chi_tau_tauprime([n * ai * (vi - 1) for ai, vi in zip(a, tau)])
    level_m = chi_tau_tauprime([m * ai * (vi - 1) for ai, vi in zip(a, emb_vals)])
    char_dev = abs(level_n - level_m)

    passed = (
        row_dev <= max(tail, 1e-12)
        and proj_dev <= max(tail * truncation, 1e-8)
        and binom_dev <= 1e-10
        and char_dev <= 1e-10
    )
    return ReexpansionReport(row_dev, proj_dev, char_dev, binom_dev, tail, passed)

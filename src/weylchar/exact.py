"""Exact Gaussian-rational arithmetic, and rationals scaled to integers.

Spectra whose angles are quarter turns (eigenvalues in {1, i, -1, -i}) stay in
Q(i), so character values and trace functionals can be compared exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class QQi:
    """A Gaussian rational re + im*i with Fraction components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return QQi(_frac(x), Fraction(0))

    def __add__(self, other):
        o = QQi.of(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other):
        o = QQi.of(other)
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Rational)):  # a rational divides each part
            if other == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return QQi(self.re / other, self.im / other)
        o = QQi.of(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * QQi(o.re / n, -o.im / n)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer exponents only")
        base = self if k >= 0 else QQi(Fraction(1), Fraction(0)) / self
        out = QQi(Fraction(1), Fraction(0))
        k = abs(k)
        # Square-and-multiply: O(log k) products.
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            other = QQi.of(other)
        if not isinstance(other, QQi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Equal to a rational when im == 0, so it must hash like one.
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


QQI_ONE = QQi(Fraction(1), Fraction(0))
QQI_I = QQi(Fraction(0), Fraction(1))


def common_denominator(values) -> tuple[int, tuple[int, ...]]:
    """(D, D * values) for exact rationals: D the lcm of their denominators, D * values as ints."""
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def quarter_turn(turn) -> int | None:
    """The k in 0..3 with exp(2*pi*i*turn) = i**k; None unless turn is a quarter-turn Fraction."""
    if not isinstance(turn, Fraction) or 4 % turn.denominator:
        return None
    return 4 * turn.numerator // turn.denominator % 4


def phase_sum(counts) -> QQi:
    """The Gaussian integer sum of n * i**k over a tally {k: n}, as a QQi."""
    by_phase = [0] * 4
    for k, n in counts.items():
        by_phase[k % 4] += n
    return QQi(Fraction(by_phase[0] - by_phase[2]), Fraction(by_phase[1] - by_phase[3]))


def unit_complex(turn) -> complex:
    """exp(2*pi*i*turn) as a complex double; `turn` is a fraction of a full circle."""
    return cmath.exp(2j * cmath.pi * float(turn))

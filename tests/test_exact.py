from fractions import Fraction

import pytest

from weylchar.exact import QQI_I, QQI_ONE, QQi

F = Fraction


def _repeated_power(base: QQi, k: int) -> QQi:
    step = base if k >= 0 else QQI_ONE / base
    out = QQI_ONE
    for _ in range(abs(k)):
        out = out * step
    return out


@pytest.mark.parametrize(
    "base",
    [QQI_ONE, QQI_I, QQi(F(-1), F(0)), QQi(F(0), F(-1)), QQi(F(3, 5), F(4, 5)),
     QQi(F(2, 3), F(-5, 7))],
)
def test_pow_matches_repeated_multiplication(base):
    for k in range(-20, 21):
        value = base**k
        assert value == _repeated_power(base, k)
        assert isinstance(value.re, Fraction) and isinstance(value.im, Fraction)


def test_pow_rejects_non_integer_exponent():
    with pytest.raises(TypeError):
        QQI_I ** 0.5


def test_hash_agrees_with_rational_equality():
    # A real QQi equals its rational, so it must land in the same hash slot.
    assert QQi.of(F(1, 2)) == F(1, 2)
    assert {F(1, 2): "x"}.get(QQi.of(F(1, 2))) == "x"
    assert len({QQi.of(1), 1}) == 1
    assert len({QQI_I, QQi(F(0), F(1)), QQI_ONE}) == 2

"""The identities the stress module's tables rest on, in exact arithmetic.

Each test names the comment block or docstring of ``stress`` it checks.
"""

import math
from fractions import Fraction

from casimir_stress import stress


def _pi2_coefficient(value, power):
    """``value / pi**power`` as a small fraction, which must give back
    ``value`` to rounding: the table holds that rational times pi**power."""
    coefficient = Fraction(value / math.pi**power).limit_denominator(1000)
    assert math.isclose(float(coefficient) * math.pi**power, value, rel_tol=4e-16), value
    return coefficient


def _table():
    """Each quantity as its prefactor's coefficient of 1/pi**2 times its
    weights, read as under a Matsubara sum (N as B0 - 3*B2), and its
    blackbody coefficient of pi**2."""
    table = {}
    for name, (prefactor, blackbody, weights) in stress._QUANTITIES.items():
        scale = _pi2_coefficient(prefactor, -2)
        columns = {c: scale * Fraction(w) for c, w in stress._summed(weights).items()}
        table[name] = columns, None if blackbody is None else _pi2_coefficient(blackbody, 2)
    return table


def _combine(table, terms):
    """sum of coefficient * quantity over ``terms``, exactly."""
    columns, blackbody = {}, Fraction(0)
    for name, coefficient in terms.items():
        weights, body = table[name]
        for c, w in weights.items():
            columns[c] = columns.get(c, Fraction(0)) + coefficient * w
        blackbody += coefficient * body
    return {c: w for c, w in columns.items() if w}, blackbody


def test_quantity_table_is_traceless():
    # stress._QUANTITIES: -t00 + 2*txx + tzz = 0, column by column and in
    # the blackbody terms.
    assert _combine(_table(), {"t00": -1, "txx": 2, "tzz": 1}) == ({}, 0)


def test_quantity_table_null_energy_rows():
    # stress._QUANTITIES and _summed: nec_x = t00 + txx once N reads as
    # B0 - 3*B2, and nec_z = t00 + tzz.
    table = _table()
    for nec, other in (("nec_x", "txx"), ("nec_z", "tzz")):
        assert _combine(table, {"t00": 1, other: 1}) == _combine(table, {nec: 1}), nec


def test_quantity_table_blackbody_coefficients():
    # The module docstring: pi**2/15 to the energy density, a third of that
    # to each pressure, 4*pi**2/45 to both null-energy combinations.
    blackbody = {name: body for name, (_, body) in _table().items() if body is not None}
    assert blackbody == {"t00": Fraction(1, 15), "txx": Fraction(1, 45), "tzz": Fraction(1, 45),
                         "nec_x": Fraction(4, 45), "nec_z": Fraction(4, 45)}

"""Tests for the package's immutable value records.

Each record keeps what a frozen dataclass gave it: construction by
position, by keyword and from class-level defaults, its validation,
immutability, equality and hashing by value, and the dataclass ``repr``.
The ``repr`` strings below were taken from the dataclass versions.
"""

import math

import pytest

from casimir_stress import stress
from casimir_stress.cli import RunSpec
from casimir_stress.dielectric import PlasmaModel
from casimir_stress.quadrature import QuadratureResult, SemiInfinite, Tolerance, UnitInterval
from casimir_stress.stress import Geometry, StressDiagonal, ThermalState
from casimir_stress.units import LabParameters

RESULT = (1.5, 2e-10, 181, True)
RESULT_REPR = "QuadratureResult(value=1.5, error_estimate=2e-10, evaluations=181, converged=True)"
LAB = (1e-6, 300.0, 1e16)
SPEC = ("profile", (1.0, 10.0), 0.5, None, 25, "csv", None, 1e-9, 1e-14, False, None, None, False)

# (class, field values in order, repr, [(field overrides, __post_init__ message), ...])
RECORDS = [
    (Tolerance, (1e-9, 1e-14, 10_000_000),
     "Tolerance(rel_tol=1e-09, abs_tol=1e-14, max_evaluations=10000000)",
     [({"rel_tol": 0.0}, "rel_tol must be a positive finite number"),
      ({"rel_tol": math.inf}, "rel_tol must be a positive finite number"),
      ({"abs_tol": -1.0}, "abs_tol must be non-negative and finite"),
      ({"abs_tol": math.nan}, "abs_tol must be non-negative and finite"),
      ({"max_evaluations": 14}, "max_evaluations must be at least 15")]),
    (QuadratureResult, RESULT, RESULT_REPR, []),
    (SemiInfinite, (0.5,), "SemiInfinite(decay_scale=0.5)",
     [({"decay_scale": 0.0}, "decay_scale must be a positive finite number"),
      ({"decay_scale": math.inf}, "decay_scale must be a positive finite number")]),
    (UnitInterval, (), "UnitInterval()", []),
    (Geometry, (0.25,), "Geometry(z=0.25)",
     [({"z": 1.0}, "position z must satisfy 0 < z < 1"),
      ({"z": math.nan}, "position z must satisfy 0 < z < 1"),
      ({"z": 1e-101}, "position z must be at least 1e-100")]),
    (ThermalState, (5.0,), "ThermalState(beta=5.0)",
     [({"beta": -1.0}, "beta must be positive (or None for zero temperature)"),
      ({"beta": -math.inf}, "beta must be positive (or None for zero temperature)"),
      ({"beta": math.nan}, "beta must be positive (or None for zero temperature)"),
      ({"beta": 2.0**256}, "beta must lie within [2**-255, 2**255] (about 1.7e-77 to 5.8e76)"),
      ({"beta": 2.0**-256}, "beta must lie within [2**-255, 2**255] (about 1.7e-77 to 5.8e76)")]),
    (StressDiagonal, (QuadratureResult(*RESULT),) * 4,
     f"StressDiagonal(t00={RESULT_REPR}, txx={RESULT_REPR}, tyy={RESULT_REPR}, tzz={RESULT_REPR})",
     []),
    (PlasmaModel, (100.0,), "PlasmaModel(omega_p=100.0)",
     [({"omega_p": -1.0}, "omega_p must be >= 0 (math.inf allowed)"),
      ({"omega_p": math.nan}, "omega_p must be >= 0 (math.inf allowed)"),
      ({"omega_p": 1e101}, "a finite omega_p must be at most 1e100 (math.inf allowed)")]),
    (LabParameters, LAB,
     "LabParameters(separation=1e-06, temperature=300.0, plasma_frequency=1e+16)",
     [({"separation": 0.0}, "separation must be a positive finite length in meters"),
      ({"temperature": -1.0}, "temperature must be a finite value >= 0 Kelvin"),
      ({"temperature": math.inf}, "temperature must be a finite value >= 0 Kelvin"),
      ({"plasma_frequency": -1.0}, "plasma_frequency must be >= 0 rad/s"),
      ({"plasma_frequency": math.nan}, "plasma_frequency must be >= 0 rad/s")]),
    (RunSpec, SPEC,
     "RunSpec(command='profile', omega_pa=(1.0, 10.0), z_over_a=0.5, beta_over_a=None, "
     "grid=25, output_format='csv', output_path=None, rel_tol=1e-09, abs_tol=1e-14, "
     "si=False, separation_um=None, kelvin=None, emit_plot_script=False)",
     []),
]


@pytest.mark.parametrize("cls, values, text, rejections", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_behaves_as_its_frozen_dataclass_did(cls, values, text, rejections):
    names = tuple(cls.__annotations__)
    fields = dict(zip(names, values))
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == text

    # Keyword construction, and construction that leaves every field
    # equal to its class-level default to that default.
    assert cls(**fields) == record
    explicit = {name: value for name, value in fields.items()
                if name not in vars(cls) or vars(cls)[name] != value}
    assert cls(**explicit) == record

    # Equal values give equal objects with equal hashes; other types differ.
    twin = cls(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record != values and not record == object()

    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text

    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**fields, extra=1.0)
    if names:
        with pytest.raises(TypeError):
            cls(values[0], **{names[0]: values[0]})
    if any(name not in vars(cls) for name in names):
        with pytest.raises(TypeError):
            cls()

    for overrides, message in rejections:
        with pytest.raises(ValueError) as caught:
            cls(**{**fields, **overrides})
        assert str(caught.value) == message


def test_defaults_are_read_on_the_class_and_infinite_beta_is_zero_temperature():
    assert Tolerance.rel_tol == 1e-9 and Tolerance.abs_tol == 1e-14
    assert RunSpec.rel_tol == Tolerance.rel_tol and RunSpec.abs_tol == Tolerance.abs_tol
    assert ThermalState(math.inf).beta is None
    assert ThermalState(math.inf) == ThermalState()
    assert hash(ThermalState(math.inf)) == hash(ThermalState(None))


def test_equal_tolerances_share_a_memo_entry():
    stress.clear_caches()
    geom, model = Geometry(0.5), PlasmaModel(100.0)
    stress.pressure_zz(geom, model, tol=Tolerance(1e-6, 1e-10))
    before = stress._unplaced.cache_info()
    stress.pressure_zz(geom, model, tol=Tolerance(1e-6, 1e-10))
    after = stress._unplaced.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    stress.clear_caches()

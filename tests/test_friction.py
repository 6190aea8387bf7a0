"""Stribeck-Coulomb-viscous friction model and its parameters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from friction_scaling import scaled
from torquesense.friction import ScvParams, scv_friction
from torquesense.plant import ScenarioConfig

P = ScvParams(coulomb=1.0, breakaway=2.0, stribeck_vel=0.1, viscous=0.5)


def test_scv_value_oracle():
    # hand-evaluated: (1 + 1*exp(-1))*1 + 0.05 = 1.417879...
    expected = (1.0 + (2.0 - 1.0) * np.exp(-1.0)) + 0.5 * 0.1
    assert np.isclose(scv_friction(P, 0.1), expected, rtol=1e-12)
    assert np.isclose(scv_friction(P, 0.1), 1.41788, atol=5e-6)


def test_scv_zero_and_oddness():
    assert scv_friction(P, 0.0) == 0.0
    vs = np.linspace(-5.0, 5.0, 101)
    assert np.allclose(scv_friction(P, vs), -scv_friction(P, -vs), atol=1e-12)
    assert np.allclose(scv_friction(P, vs, smoothing=0.01),
                       -scv_friction(P, -vs, smoothing=0.01), atol=1e-12)


def test_scv_limits():
    # near zero-plus the level approaches breakaway
    assert np.isclose(scv_friction(P, 1e-9), P.breakaway, atol=1e-6)
    # at high speed the Stribeck term vanishes: coulomb + viscous tail
    v = 50.0
    assert np.isclose(scv_friction(P, v), P.coulomb + P.viscous * v, atol=1e-9)


@given(st.floats(0.001, 20.0))
def test_scv_dissipative(v):
    # friction torque opposes motion: tau_F * v > 0 for v != 0
    assert scv_friction(P, v) * v > 0.0
    assert scv_friction(P, -v) * (-v) > 0.0
    assert scv_friction(P, v, smoothing=0.01) * v > 0.0


def test_scv_monotonic_beyond_dip():
    # past the Stribeck dip the curve increases with velocity
    vs = np.linspace(0.3, 10.0, 200)
    assert np.all(np.diff(scv_friction(P, vs)) > 0.0)


def test_smooth_converges_to_exact():
    vs = np.array([-1.0, -0.2, 0.2, 1.0])
    for eps, tol in ((1e-2, 1e-8), (1e-4, 1e-12)):
        assert np.allclose(scv_friction(P, vs, smoothing=eps),
                           scv_friction(P, vs), atol=tol)


def test_scaled_params():
    s = scaled(P, 1.3)
    assert s.coulomb == pytest.approx(1.3)
    assert s.breakaway == pytest.approx(2.6)
    assert s.viscous == pytest.approx(0.65)
    assert s.stribeck_vel == P.stribeck_vel  # shape parameter untouched
    vs = np.linspace(-2, 2, 21)
    assert np.allclose(scv_friction(s, vs), 1.3 * scv_friction(P, vs),
                       rtol=1e-12)
    with pytest.raises(ValueError):
        scaled(P, 0.0)
    with pytest.raises(ValueError):
        scaled(P, -0.5)


def test_param_validation():
    with pytest.raises(ValueError):
        ScvParams(2.0, 1.0, 0.1, 0.5)  # breakaway below coulomb
    with pytest.raises(ValueError):
        ScvParams(1.0, 2.0, 0.0, 0.5)  # nonpositive stribeck velocity
    with pytest.raises(ValueError):
        ScvParams(1.0, 2.0, 0.1, -0.1)


NAN = float("nan")


# NaN passed every sign test these used to make
@pytest.mark.parametrize("make", [
    lambda: ScvParams(NAN, 2.0, 0.1, 0.5),
    lambda: ScvParams(1.0, NAN, 0.1, 0.5),
    lambda: ScvParams(1.0, 2.0, NAN, 0.5),
    lambda: ScvParams(1.0, 2.0, 0.1, float("inf")),
    # the motor settings are checked where the scenario is built
    lambda: ScenarioConfig(joints={"default": {"motor": {"k_t": NAN}}}),
    lambda: scaled(P, NAN),
], ids=["coulomb", "breakaway", "stribeck_vel", "viscous", "k_t", "scaled"])
def test_non_finite_parameters_are_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


ARRAY = ScvParams(np.array([1.0, 0.5, 3.0]), np.array([2.0, 0.5, 4.0]),
                  np.array([0.1, 0.2, 0.05]), np.array([0.5, 0.0, 1.0]))


def test_per_joint_arrays_match_each_joint():
    vs = np.array([-0.3, 0.0, 0.07])
    for eps in (0.0, 0.01):
        joint_by_joint = [scv_friction(ARRAY[j], vs[j], smoothing=eps)
                          for j in range(3)]
        assert np.array_equal(scv_friction(ARRAY, vs, smoothing=eps),
                              joint_by_joint)
    assert ARRAY[2] == ScvParams(3.0, 4.0, 0.05, 1.0)
    assert type(ARRAY[2].coulomb) is float
    half = scaled(ARRAY, 0.5)
    for j in range(3):
        assert half[j] == scaled(ARRAY[j], 0.5)


@pytest.mark.parametrize("field, value", [
    ("coulomb", [1.0, -0.1, 3.0]), ("breakaway", [2.0, 0.4, 4.0]),
    ("stribeck_vel", [0.1, 0.2, 0.0]), ("viscous", [-0.5, 0.0, 1.0])])
def test_array_validation_rejects_any_bad_joint(field, value):
    fields = {"coulomb": ARRAY.coulomb, "breakaway": ARRAY.breakaway,
              "stribeck_vel": ARRAY.stribeck_vel, "viscous": ARRAY.viscous}
    with pytest.raises(ValueError):
        ScvParams(**{**fields, field: np.array(value)})

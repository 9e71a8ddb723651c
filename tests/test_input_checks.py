"""The shared input checks: ``errors.integer``, ``errors.finite_real`` and
``fitting.lambda_grid`` raise the class their caller passes (a config
reader ConfigError, the API ArgError or ShapeError), on every bad input.

The checks raise ``error(...)``, not a named class, so these tests stand in
for the rows ``test_typed_errors`` keeps for each named raise."""

import math

import numpy as np
import pytest

from cvpert.errors import (ArgError, ConfigError, DegenerateFit, ShapeError, finite_real,
                           integer)
from cvpert import scenarios
from cvpert.fitting import lambda_grid

BAD_INTEGERS = pytest.mark.parametrize("value", [
    True, 2.0, math.nan, math.inf, 0, [[2, 3], [4, 5]], [2, 2], "2", None,
], ids=["bool", "integral-float", "nan", "inf", "below-least", "2-D-grid", "repeated-grid",
        "text", "none"])
BAD_REALS = pytest.mark.parametrize("value", [
    True, math.nan, math.inf, -math.inf, [[0.1, 0.2], [0.3, 0.4]], [0.1, 0.1], "0.1", None,
    10 ** 400,  # a JSON integer literal that no float holds
], ids=["bool", "nan", "inf", "minus-inf", "2-D-grid", "repeated-grid", "text", "none",
        "huge-int"])
API_AND_CONFIG = pytest.mark.parametrize("error", [ArgError, ShapeError, ConfigError])


@API_AND_CONFIG
@BAD_INTEGERS
def test_integer_raises_the_callers_class(error, value):
    with pytest.raises(error, match=r"^n must be an integer >= 1, got "):
        integer(value, 1, "n", error)  # least 1: True == 1 passes on the bound alone


@pytest.mark.parametrize("value", [1, 7, np.int64(3)])
def test_integer_returns_an_int(value):
    out = integer(value, 1, "n", ArgError)
    assert out == value and type(out) is int


@API_AND_CONFIG
@BAD_REALS
def test_finite_real_raises_the_callers_class(error, value):
    with pytest.raises(error, match=r"^x must be a finite number, got "):
        finite_real(value, "x", error)


@pytest.mark.parametrize("value", [2.0, 2, -1e300, np.float32(0.5)],
                         ids=["integral-float", "int", "large-negative", "float32"])
def test_finite_real_returns_a_float(value):
    out = finite_real(value, "x", ArgError)
    assert out == value and type(out) is float


GRID_ERRORS = pytest.mark.parametrize("error", [ArgError, ConfigError, DegenerateFit])
SHAPE_ERRORS = pytest.mark.parametrize("shape_error", [None, ShapeError])
VALUE_MESSAGE = r"^study: lambda_grid must be at least 3 finite numbers > 0, got "


@GRID_ERRORS
@SHAPE_ERRORS
@pytest.mark.parametrize("grid", [True, [0.1, 0.2], [[0.1, 0.2, 0.3]], [[0.1], [0.2], [0.3]]],
                         ids=["bool", "below-least", "2-D-row", "2-D-column"])
def test_lambda_grid_rejects_a_shape_with_the_shape_class_if_given(error, shape_error, grid):
    if shape_error is None:
        with pytest.raises(error, match=VALUE_MESSAGE):
            lambda_grid(grid, 3, "study", error)
    else:
        with pytest.raises(shape_error, match=r"^study: lambda_grid must be 1-D with at least "
                                              r"3 points, got shape \("):
            lambda_grid(grid, 3, "study", error, shape_error)


@GRID_ERRORS
@SHAPE_ERRORS
@pytest.mark.parametrize("grid", [[0.1, math.nan, 0.3], [0.1, 0.2, math.inf], [0.0, 0.1, 0.2],
                                  [0.1, -0.2, 0.3], [0.1, 10 ** 400, 0.3], "abc",
                                  [[0.1], [0.2, 0.3], [0.4]], [0.1, "x", 0.3]],
                         ids=["nan", "inf", "zero", "negative", "huge-int", "text", "ragged",
                              "text-entry"])
def test_lambda_grid_rejects_a_value_with_the_callers_class(error, shape_error, grid):
    with pytest.raises(error, match=VALUE_MESSAGE):
        lambda_grid(grid, 3, "study", error, shape_error)


@GRID_ERRORS
@SHAPE_ERRORS
def test_lambda_grid_rejects_a_repeated_grid_as_a_degenerate_fit(error, shape_error):
    with pytest.raises(DegenerateFit, match="two distinct x values"):
        lambda_grid([0.1, 0.1, 0.1], 3, "study", error, shape_error)


def test_lambda_grid_returns_a_float_array():
    grid = lambda_grid([1, 2.0, 0.5, 0.5], 3, "study", ArgError)
    assert grid.dtype == float and grid.tolist() == [1.0, 2.0, 0.5, 0.5]


TOO_LONG_TO_PRINT = 10 ** 5000  # past Python's limit on printing an int in decimal


@API_AND_CONFIG
def test_integer_names_an_int_too_long_to_print_by_its_digit_count(error):
    with pytest.raises(error, match=r"^restarts must be an integer >= 1, "
                                    r"got a negative integer of about 5001 digits$"):
        integer(-TOO_LONG_TO_PRINT, 1, "restarts", error)


@API_AND_CONFIG
@pytest.mark.parametrize("value, shown", [(TOO_LONG_TO_PRINT, "an integer"),
                                          (-TOO_LONG_TO_PRINT, "a negative integer")],
                         ids=["positive", "negative"])
def test_finite_real_names_an_int_too_long_to_print_by_its_digit_count(error, value, shown):
    with pytest.raises(error, match=rf"^distance must be a finite number, "
                                    rf"got {shown} of about 5001 digits$"):
        finite_real(value, "distance", error)


@pytest.mark.parametrize("value, ndim", [([1, 2.5, np.float64(3.0)], 1),
                                         ([[1, 2.0], [np.float64(3.0), np.int64(4)]], 2),
                                         (np.float64(0.5), 0)],
                         ids=["int-float-float64", "2-D-mixed", "float64-number"])
def test_config_array_takes_ints_floats_and_numpy_numbers(value, ndim):
    out = scenarios._array(value, "x", ndim)
    assert out.dtype == float and np.array_equal(out, np.array(value, dtype=float))


@pytest.mark.parametrize("value", [[1, 2.0, True], [[1, 2.0], [np.float64(3.0), False]],
                                   [np.bool_(True), 1.0], [True, TOO_LONG_TO_PRINT]],
                         ids=["bool", "2-D-bool", "numpy-bool", "bool-and-huge-int"])
def test_config_array_rejects_a_bool_entry(value):
    with pytest.raises(ConfigError, match=r"^x must be a regular array of numbers, got "):
        scenarios._array(value, "x")


@API_AND_CONFIG
@pytest.mark.parametrize("grid", [["0.01", "0.1", "0.2"], [0.01, "0.1", 0.2],
                                  np.array(["0.01", "0.1", "0.2"]),
                                  np.array([0.01, "0.1", 0.2], dtype=object), "0.1",
                                  np.array([0.01, 0.1, 0.2], dtype=complex)],
                         ids=["text", "one-text-entry", "text-array", "object-array", "one-text",
                              "complex-array"])
def test_lambda_grid_rejects_text_of_numbers_and_complex_numbers(error, grid):
    with pytest.raises(error, match=VALUE_MESSAGE):
        lambda_grid(grid, 3, "study", error)


def test_order_scaling_slopes_rejects_a_grid_of_text(quartic_pair, quartic_base):
    from cvpert.expansion import order_scaling_slopes
    from cvpert.jets import Jet

    deviation = Jet(np.array([0.2, -0.1]), np.array([[0.3], [-0.1]]))
    with pytest.raises(ArgError, match=r"^order_scaling_slopes: lambda_grid must be "):
        order_scaling_slopes(quartic_base, quartic_pair, 0.3, deviation, [1], ["0.01", "0.1"])


@pytest.mark.parametrize("grid", ["abc", []], ids=["text", "empty"])
def test_fragment_expand_reads_the_scenario_grid_before_its_default_lambda(grid):
    from cvpert.fragmentation import example52_scenario, fragment_expand

    with pytest.raises(ArgError, match=r"^fragment_expand: lambda_grid must be "):
        fragment_expand(example52_scenario(lam_grid=grid), 1)

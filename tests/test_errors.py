"""The package's one array check, ``errors.check_array``."""

import numpy as np
import pytest

from kronheat.errors import DimensionMismatch, UsageError, check_array


class TestCheckArray:
    def test_returns_the_callers_array(self):
        # no copy, and the flags stay as they are
        x = np.zeros((2, 3))
        x.flags.writeable = False
        assert check_array(x, "x", (2, 3)) is x
        assert not x.flags.writeable

    def test_sequence_is_taken_as_an_array(self):
        x = check_array([[1, 2], [3, 4]], "x", (2, 2))
        assert isinstance(x, np.ndarray) and x.shape == (2, 2)
        assert check_array([1, 2], "x", (2,), float).dtype == float

    def test_none_matches_any_length(self):
        for n in (0, 1, 5):
            check_array(np.ones((n, 2)), "x", (None, 2))

    @pytest.mark.parametrize("value, shape", [
        (np.ones((2, 3)), (3, 2)),
        (np.ones((2, 3)), (None, 2)),
        (np.ones(6), (None, 2)),
        (np.ones((1, 2, 3)), (None, 3)),
        (1.0, (None,)),
    ], ids=["transposed", "width", "too-few-axes", "too-many-axes", "scalar"])
    def test_wrong_shape_is_a_dimension_mismatch(self, value, shape):
        with pytest.raises(DimensionMismatch, match="x has shape"):
            check_array(value, "x", shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.inf)])
    def test_non_finite_entry_is_a_usage_error(self, bad):
        x = np.zeros(4, dtype=type(bad))
        x[2] = bad
        with pytest.raises(UsageError, match="x holds a non-finite entry"):
            check_array(x, "x", (4,))

    @pytest.mark.parametrize("value, dtype", [
        (["a", "b"], None), ([1.0, "b"], float), ([[1.0], [1.0, 2.0]], None),
        ([1.0, None], None), ([1.0, 1j], float),
    ], ids=["text", "text-as-float", "ragged", "object", "complex-as-float"])
    def test_not_numbers_is_a_usage_error(self, value, dtype):
        with pytest.raises(UsageError, match="x is not an array of numbers"):
            check_array(value, "x", (None,), dtype)

    def test_integer_and_bool_arrays_pass(self):
        check_array(np.arange(6).reshape(2, 3), "x", (2, 3))
        check_array(np.ones(3, dtype=bool), "x", (3,))

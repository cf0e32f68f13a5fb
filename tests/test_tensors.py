"""Tensor values, parameter collections, and the mean-L1 distance."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import merge_surgeon
from merge_surgeon.bias import BiasError, LossKind, representation_bias
from merge_surgeon.tensors import (
    MergeSurgeonError,
    ParamSet,
    TensorError,
    as_tensor,
    is_backbone_name,
)

from conftest import bitwise_equal


def l1_mean_distance(a, b):
    return representation_bias(a, b, LossKind.L1)


class TestL1MeanDistance:
    """The mean-L1 distance of the bias module, accumulated in float64."""

    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 7))
        assert l1_mean_distance(a, a.copy()) == 0.0

    def test_constant_shift(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 5)).astype(np.float32)
        assert l1_mean_distance(a, a + np.float32(0.5)) == pytest.approx(0.5, abs=1e-7)

    def test_against_zero_matrix(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert l1_mean_distance(a, np.zeros((2, 2))) == 2.5

    def test_symmetric_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal((5, 3))
            b = rng.standard_normal((5, 3))
            d_ab = l1_mean_distance(a, b)
            assert d_ab == l1_mean_distance(b, a)
            assert d_ab >= 0
            assert (d_ab == 0) == np.array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(BiasError):
            l1_mean_distance(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAsTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(TensorError):
            as_tensor([1.0, np.nan])
        with pytest.raises(TensorError):
            as_tensor([np.inf])

    def test_rejects_zero_dimension(self):
        with pytest.raises(TensorError):
            as_tensor(np.zeros((0, 3)))

    def test_read_only_float32(self):
        t = as_tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32
        with pytest.raises(ValueError):
            t[0, 0] = 9.0


class TestParamSet:
    def test_insertion_order_preserved(self):
        ps = ParamSet([("b", [1.0]), ("a", [2.0]), ("c", [3.0])])
        assert tuple(ps) == ("b", "a", "c")

    def test_duplicate_name_rejected(self):
        with pytest.raises(TensorError):
            ParamSet([("x", [1.0]), ("x", [2.0])])

    def test_name_pattern_helpers(self):
        assert is_backbone_name("block2.bias")
        assert is_backbone_name("block12.weight")
        assert not is_backbone_name("head.0.weight")
        assert not is_backbone_name("block2.scale")

    def test_bitwise_equal(self):
        a = ParamSet([("x", [1.5, -2.25])])
        b = ParamSet([("x", [1.5, -2.25])])
        c = ParamSet([("x", [1.5, -2.251])])
        assert bitwise_equal(a, b)
        assert not bitwise_equal(a, c)


def test_every_error_class_is_a_merge_surgeon_error():
    # A command ends a MergeSurgeonError in one line; an error class
    # outside it would end in a traceback.
    errors = []
    for info in pkgutil.iter_modules(merge_surgeon.__path__):
        module = importlib.import_module(f"merge_surgeon.{info.name}")
        errors += [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, Exception)
        ]
    assert len(errors) == 10
    assert all(issubclass(cls, MergeSurgeonError) for cls in errors)
    assert issubclass(MergeSurgeonError, ValueError)

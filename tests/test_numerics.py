import math

import numpy as np
import pytest

from boundedattn import numerics
from boundedattn.memory import BoundedMemory, readout


def test_softmax_symmetry():
    np.testing.assert_allclose(numerics.softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_analytic():
    out = numerics.softmax([math.log(2.0), 0.0])
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = numerics.softmax([1000.0, 1000.0])
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)
    assert np.isfinite(out).all()


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        numerics.softmax(np.zeros(0))


@pytest.mark.parametrize("length", [1, 7, 32, 63, 64])
def test_softmax_rows_max_and_output_equal_the_plain_max_form(length):
    # softmax_rows takes the row max with initial=-inf (numpy's fast path
    # for even rows); it must equal m.max(axis=-1), so every bit of the
    # output is that of the plain form, causal -inf entries included
    rng = numerics.make_rng(length)
    m = rng.normal(0.0, 10.0, (4, 3, length))
    m[..., 1:][rng.random((4, 3, length - 1)) < 0.3] = -np.inf
    m[0, 0, 1:] = -np.inf  # a row with one finite entry
    want_max = m.max(axis=-1, keepdims=True)
    assert np.array_equal(np.max(m, axis=-1, keepdims=True, initial=-np.inf), want_max)
    want = np.exp(m - want_max)
    want /= want.sum(axis=-1, keepdims=True)
    assert np.array_equal(numerics.softmax_rows(m), want)
    masked_rows = np.full((2, length), -np.inf)
    assert np.array_equal(
        np.max(masked_rows, axis=-1, initial=-np.inf), masked_rows.max(axis=-1))


def test_softmax_rows_rejects_an_empty_row_axis():
    with pytest.raises(ValueError):
        numerics.softmax_rows(np.zeros((3, 0)))
    assert numerics.softmax_rows(np.zeros((0, 3))).shape == (0, 3)


def test_softmax_shift_invariance():
    rng = numerics.make_rng(7)
    for _ in range(20):
        v = rng.normal(size=9)
        c = rng.uniform(-50.0, 50.0)
        base = numerics.softmax(v)
        shifted = numerics.softmax(v + c)
        assert np.abs(base - shifted).max() <= 1e-12
        assert abs(base.sum() - 1.0) <= 1e-12
        assert (base > 0.0).all()


def test_finite_diff_constant_function():
    # sum of softmax is identically 1, so the gradient is ~0 everywhere
    rng = numerics.make_rng(2)
    x = rng.normal(size=5)
    g = numerics.finite_diff_grad(lambda v: float(numerics.softmax(v).sum()), x)
    assert np.abs(g).max() <= 1e-8


def test_finite_diff_quadratic():
    g = numerics.finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]))
    assert np.abs(g - [2.0, 4.0]).max() <= 1e-6


def test_finite_diff_matches_analytic_readout_gradient():
    # One readout coordinate as a function of the query, differentiated by
    # hand through the softmax, against the central-difference oracle.
    rng = numerics.make_rng(5)
    n, d = 4, 3
    mem = BoundedMemory(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
    q = rng.normal(size=d)
    tau = 1.7
    j = 1

    a = numerics.softmax(mem.ktilde @ q / tau)
    analytic = (mem.ktilde.T / tau) @ ((np.diag(a) - np.outer(a, a)) @ mem.vtilde[:, j])
    fd = numerics.finite_diff_grad(lambda v: float(readout(v, mem, tau)[j]), q)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() <= 1e-4


def test_finite_diff_rejects_non_finite():
    with pytest.raises(numerics.NumericError):
        numerics.finite_diff_grad(lambda v: float("nan"), np.ones(2))


def test_seeded_rng_reproducible():
    a = numerics.make_rng(1234).random(10_000)
    b = numerics.make_rng(1234).random(10_000)
    np.testing.assert_array_equal(a, b)
    c = numerics.make_rng(1235).random(10_000)
    assert not np.array_equal(a, c)

import ast
from pathlib import Path

import numpy as np
import pytest

import boundedattn
from boundedattn.memory import (
    BoundedMemory,
    TransitionOp,
    build_memory,
    full_attention,
    readout,
    readout_normalized,
    step,
    zero_memory,
)
from boundedattn.numerics import NumericError, make_rng, softmax


def test_build_memory_standard_basis_is_identity():
    K = np.array([[1.0, 2.0], [3.0, 4.0]])
    V = np.array([[5.0, 6.0], [7.0, 8.0]])
    mem = build_memory(np.eye(2), K, V)
    np.testing.assert_array_equal(mem.ktilde, K)
    np.testing.assert_array_equal(mem.vtilde, V)


def test_build_memory_symmetric_mix():
    phis = np.array([[0.5, 0.5], [0.5, 0.5]])
    K = np.array([[2.0, 0.0], [0.0, 2.0]])
    mem = build_memory(phis, K, K)
    np.testing.assert_array_equal(mem.ktilde, np.ones((2, 2)))


def test_build_memory_matches_stacked_product_oracle():
    rng = make_rng(42)
    phis = rng.normal(size=(5, 3))
    K = rng.normal(size=(5, 4))
    V = rng.normal(size=(5, 4))
    mem = build_memory(phis, K, V)
    assert np.abs(mem.ktilde - phis.T @ K).max() <= 1e-12
    assert np.abs(mem.vtilde - phis.T @ V).max() <= 1e-12


def test_build_memory_shape_mismatch():
    with pytest.raises(ValueError):
        build_memory(np.eye(2), np.zeros((3, 4)), np.zeros((3, 4)))


def test_step_writes_one_slot():
    state = zero_memory(2, 2)
    out = step(state, [1.0, 0.0], [5.0, 6.0], [7.0, 8.0])
    np.testing.assert_array_equal(out.ktilde, [[5.0, 6.0], [0.0, 0.0]])
    np.testing.assert_array_equal(out.vtilde, [[7.0, 8.0], [0.0, 0.0]])


def test_folding_steps_equals_batch_build():
    rng = make_rng(9)
    N, n, d = 12, 4, 5
    phis = rng.normal(size=(N, n))
    K = rng.normal(size=(N, d))
    V = rng.normal(size=(N, d))
    state = zero_memory(n, d)
    for t in range(N):
        state = step(state, phis[t], K[t], V[t])
    batch = build_memory(phis, K, V)
    assert np.abs(state.ktilde - batch.ktilde).max() <= 1e-12
    assert np.abs(state.vtilde - batch.vtilde).max() <= 1e-12


def test_upper_shift_queue_keeps_last_n_keys():
    n = 2
    keys = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    shift = TransitionOp.upper_shift(n)
    phi = np.array([0.0, 1.0])
    state = zero_memory(n, 2)
    for k in keys:
        state = step(state, phi, k, k, shift)
    np.testing.assert_array_equal(state.ktilde, [[3.0, 3.0], [4.0, 4.0]])


def test_transition_matrix_matches_apply():
    shift = TransitionOp.upper_shift(4)
    m = make_rng(0).normal(size=(4, 3))
    np.testing.assert_array_equal(shift.matrix() @ m, shift.apply(m))
    assert shift.matrix()[0, 1] == 1.0 and shift.matrix()[0, 0] == 0.0


def test_readout_single_slot_ignores_query():
    mem = BoundedMemory(np.array([[3.0, -1.0]]), np.array([[4.0, 5.0]]))
    for q in ([0.0, 0.0], [10.0, -3.0]):
        np.testing.assert_allclose(readout(np.array(q), mem), [4.0, 5.0])


def test_readout_equal_keys_gives_value_mean():
    vt = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    mem = BoundedMemory(np.ones((3, 2)), vt)
    out = readout(np.array([0.3, -0.7]), mem)
    np.testing.assert_allclose(out, vt.mean(axis=0), atol=1e-12)


def test_readout_matches_direct_formula():
    rng = make_rng(21)
    mem = BoundedMemory(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
    q = rng.normal(size=4)
    tau = 2.5
    expect = mem.vtilde.T @ softmax(mem.ktilde @ q / tau)
    assert np.abs(readout(q, mem, tau) - expect).max() <= 1e-12


def test_readout_rejects_bad_temperature():
    mem = zero_memory(2, 2)
    with pytest.raises(ValueError):
        readout(np.zeros(2), mem, temperature=0.0)


def _prefix_normalized_oracle(alphas, K, V, q, t):
    # the per-token-normalized route: phi_i = alpha_i / sum_{j<=t} alpha_j,
    # memory rebuilt from scratch at each prefix length
    denom = alphas[: t + 1].sum(axis=0)
    phis = alphas[: t + 1] / denom
    mem = build_memory(phis, K[: t + 1], V[: t + 1])
    return readout(q, mem)


def test_normalized_readout_first_step_recovers_first_key():
    rng = make_rng(3)
    alpha = np.abs(rng.normal(size=3)) + 0.1
    k = rng.normal(size=4)
    v = rng.normal(size=4)
    state = step(zero_memory(3, 4, with_norm=True), alpha, k, v, alpha=alpha)
    kbar = state.ktilde / state.norm_sum[:, None]
    # alpha/alpha = 1, so every slot holds exactly the first key
    np.testing.assert_allclose(kbar, np.tile(k, (3, 1)), atol=1e-12)


def test_normalized_readout_matches_prefix_normalized_path():
    rng = make_rng(17)
    N, n, d = 10, 3, 4
    alphas = np.exp(rng.normal(size=(N, n)))
    K = rng.normal(size=(N, d))
    V = rng.normal(size=(N, d))
    q = rng.normal(size=d)
    state = zero_memory(n, d, with_norm=True)
    for t in range(N):
        state = step(state, alphas[t], K[t], V[t], alpha=alphas[t])
        got = readout_normalized(q, state)
        want = _prefix_normalized_oracle(alphas, K, V, q, t)
        assert np.abs(got - want).max() <= 1e-10


def test_normalized_memory_uniform_alpha_is_running_mean():
    # constant alpha = 1 (zero control weights through exp) makes every
    # normalized row the running mean of the keys seen so far
    rng = make_rng(5)
    N, n, d = 7, 3, 2
    K = rng.normal(size=(N, d))
    state = zero_memory(n, d, with_norm=True)
    ones = np.ones(n)
    for t in range(N):
        state = step(state, ones, K[t], K[t], alpha=ones)
        kbar = state.ktilde / state.norm_sum[:, None]
        np.testing.assert_allclose(kbar, np.tile(K[: t + 1].mean(axis=0), (n, 1)), atol=1e-12)


def test_normalized_readout_rejects_unwritten_slots():
    state = zero_memory(2, 2, with_norm=True)
    with pytest.raises(NumericError):
        readout_normalized(np.zeros(2), state)


def test_full_attention_single_token_returns_its_value():
    out = full_attention(np.array([1.0, 2.0]), np.array([[0.5, 0.5]]), np.array([[9.0, -1.0]]))
    np.testing.assert_allclose(out, [9.0, -1.0])


def test_full_attention_orthogonal_query_gives_mean():
    K = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    V = np.arange(8.0).reshape(4, 2)
    q = np.zeros(2)
    np.testing.assert_allclose(full_attention(q, K, V), V.mean(axis=0), atol=1e-12)


def test_full_attention_recovered_by_identity_control():
    rng = make_rng(33)
    for trial in range(5):
        N, d = int(rng.integers(2, 16)), int(rng.integers(2, 8))
        K = rng.normal(size=(N, d))
        V = rng.normal(size=(N, d))
        q = rng.normal(size=d)
        mem = build_memory(np.eye(N), K, V)
        diff = np.abs(readout(q, mem) - full_attention(q, K, V)).max()
        assert diff <= 1e-10


def test_step_alpha_without_normalizer_rejected():
    with pytest.raises(ValueError):
        step(zero_memory(2, 2), [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], alpha=[1.0, 0.0])


def test_fast_path_imports_nothing_from_the_reference_memory():
    # memory.py is the slow oracle the fast path is checked against; the
    # modules that train and decode must not lean on it
    src = Path(boundedattn.__file__).parent
    for name in ("attention", "strategies", "toymodel", "bench"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "memory" for m in mods), f"{name}.py imports memory"

import numpy as np
import pytest

from boundedattn import strategies as st
from boundedattn.memory import build_memory, dilated_step, full_attention, readout, zero_memory
from boundedattn.numerics import make_rng, softmax


def test_compressive_phi_values():
    c = st.CompressiveControl(n=2, ratio=2)
    np.testing.assert_array_equal(st.phi_at(c, 0), [0.5, 0.0])
    np.testing.assert_array_equal(st.phi_at(c, 2), [0.0, 0.5])


def test_compressive_overflowing_slots_rejected():
    c = st.CompressiveControl(n=2, ratio=2)
    with pytest.raises(ValueError):
        st.phi_at(c, 4)


def test_cluster_phi_spreads_by_cluster_size():
    m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    phis = st.cluster_phi(m)
    np.testing.assert_array_equal(phis[0], [0.5, 0.0])
    np.testing.assert_array_equal(phis[2], [0.0, 1.0])
    with pytest.raises(ValueError):
        st.cluster_phi(np.array([[1.0, 0.0], [1.0, 0.0]]))  # empty cluster


def test_mlp_zero_weights_sequence_mode_is_uniform():
    n, d, N = 3, 4, 5
    X = make_rng(0).normal(size=(N, d))
    phis = st.phi_mlp_sequence(X, np.zeros((n, d)))
    np.testing.assert_allclose(phis, np.full((N, n), 1.0 / N), atol=1e-15)
    # the causal route agrees at the last position
    total = np.zeros(n)
    for t in range(N):
        alpha, total = st.phi_mlp_prefix(X[t], np.zeros((n, d)), total)
    np.testing.assert_allclose(alpha / total, np.full(n, 1.0 / N), atol=1e-15)
    np.testing.assert_allclose(alpha, np.ones(n))


def test_random_strategy_is_deterministic():
    a = st.RandomSlotControl(n=4, seed=99, max_len=32)
    b = st.RandomSlotControl(n=4, seed=99, max_len=32)
    pa = st.phi_matrix(a, 32)
    pb = st.phi_matrix(b, 32)
    np.testing.assert_array_equal(pa, pb)
    assert not np.array_equal(pa, st.phi_matrix(st.RandomSlotControl(4, 100, 32), 32))


def test_linformer_rejects_overlong_positions():
    c = st.LinformerControl(n=3, max_len=8)
    with pytest.raises(ValueError):
        st.phi_at(c, 8, np.zeros((3, 8)))


def test_linformer_phi_is_column():
    w = make_rng(1).normal(size=(3, 8))
    c = st.LinformerControl(n=3, max_len=8)
    np.testing.assert_array_equal(st.phi_at(c, 5, w), w[:, 5])
    with pytest.raises(ValueError):
        st.phi_at(c, 5)  # the learned columns are an argument


def test_local_to_global_one_hot_or_zero():
    c = st.LocalToGlobalControl(n=3, global_positions=(1, 4, 5))
    np.testing.assert_array_equal(st.phi_at(c, 1), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(st.phi_at(c, 4), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(st.phi_at(c, 0), [0.0, 0.0, 0.0])


def test_basis_strategies_have_at_most_one_nonzero():
    N = 12
    cases = [
        st.LocalToGlobalControl(n=4, global_positions=(0, 3, 7, 11)),
        st.RandomSlotControl(n=4, seed=5, max_len=N),
        st.CompressiveControl(n=4, ratio=3),
        st.WindowControl(n=4),
        st.DilatedControl(n=4),
    ]
    for c in cases:
        for t in range(N):
            phi = st.phi_at(c, t)
            assert np.count_nonzero(phi) <= 1
            if isinstance(c, st.CompressiveControl):
                assert phi.max() == 1.0 / c.ratio


def test_cluster_columns_sum_to_one():
    rng = make_rng(4)
    K = rng.normal(size=(16, 3))
    m = st.cluster_assign(K, n=4, iters=5, rng=make_rng(0))
    phis = st.cluster_phi(m)
    np.testing.assert_allclose(phis.sum(axis=0), np.ones(4), atol=1e-12)
    # the attention-side control clusters each head's keys the same way
    per_head = st.ClusterControl(n=4, iters=5, seed=0).phi_from_keys(K[None, None])
    np.testing.assert_array_equal(per_head[0, 0], phis)


# --- clustering ---------------------------------------------------------------


def test_kmeans_recovers_duplicated_points():
    base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    K = np.repeat(base, 4, axis=0)
    m = st.cluster_assign(K, n=3, iters=5, rng=make_rng(2))
    labels = m.argmax(axis=1)
    # duplicates of one point share a label, and centroids equal the points
    for g in range(3):
        group = labels[g * 4 : (g + 1) * 4]
        assert (group == group[0]).all()
    cents = st.centroids_via_phi(K, m)
    assert np.abs(np.sort(cents, axis=0) - np.sort(base, axis=0)).max() <= 1e-12


def test_kmeans_identity_clustering_recovers_exact_attention():
    rng = make_rng(13)
    N, d = 6, 4
    K = rng.normal(size=(N, d))
    V = rng.normal(size=(N, d))
    q = rng.normal(size=d)
    m = st.cluster_assign(K, n=N, iters=4, rng=make_rng(3))
    phis = st.cluster_phi(m)
    out = readout(q, build_memory(phis, K, V))
    assert np.abs(out - full_attention(q, K, V)).max() <= 1e-10


def test_kmeans_sse_non_increasing():
    rng = make_rng(31)
    K = rng.normal(size=(32, 8))
    sses = []
    for iters in range(1, 7):
        m = st.cluster_assign(K, n=4, iters=iters, rng=make_rng(7))
        sses.append(st.cluster_sse(K, m))
    for a, b in zip(sses, sses[1:]):
        assert b <= a + 1e-9


def test_kmeans_too_many_clusters_rejected():
    with pytest.raises(ValueError):
        st.cluster_assign(np.zeros((3, 2)), n=4)


def test_centroids_single_cluster_is_global_mean():
    rng = make_rng(6)
    K = rng.normal(size=(9, 3))
    m = np.ones((9, 1))
    np.testing.assert_allclose(st.centroids_via_phi(K, m)[0], K.mean(axis=0), atol=1e-12)


def test_centroids_analytic_example():
    K = np.array([[2.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(st.centroids_via_phi(K, m), [[1.0, 1.0], [5.0, 5.0]])


def test_centroids_match_control_vector_memory():
    rng = make_rng(23)
    N, n, d = 11, 3, 5
    K = rng.normal(size=(N, d))
    m = st.cluster_assign(K, n=n, iters=6, rng=make_rng(1))
    phis = st.cluster_phi(m)
    mem = build_memory(phis, K, K)
    assert np.abs(mem.ktilde - st.centroids_via_phi(K, m)).max() <= 1e-12


def test_centroids_reject_empty_cluster():
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        st.centroids_via_phi(np.zeros((2, 2)), m)


# --- dilated queues -----------------------------------------------------------


def test_dilated_queues_hold_alternating_tokens():
    n, d = 2, 3
    even = zero_memory(n, d)
    odd = zero_memory(n, d)
    keys = np.arange(18.0).reshape(6, d)  # tokens t = 0..5
    for t in range(6):
        even, odd, active = dilated_step(t, keys[t], keys[t], even, odd)
        if t == 4:
            np.testing.assert_array_equal(active.ktilde, keys[[2, 4]])
        if t == 5:
            np.testing.assert_array_equal(active.ktilde, keys[[3, 5]])


def test_dilated_untouched_queue_stays_zero():
    n, d = 2, 2
    even = zero_memory(n, d)
    odd = zero_memory(n, d)
    k = np.ones(d)
    for t in (0, 2, 4):  # only one parity ever arrives
        even, odd, _ = dilated_step(t, k, k, even, odd)
    np.testing.assert_array_equal(odd.ktilde, np.zeros((n, d)))
    assert np.abs(even.ktilde).sum() > 0


def test_dilated_matches_direct_attention_over_parity_set():
    rng = make_rng(44)
    n, d, N = 3, 4, 14
    K = rng.normal(size=(N, d))
    V = rng.normal(size=(N, d))
    Q = rng.normal(size=(N, d))
    even = zero_memory(n, d)
    odd = zero_memory(n, d)
    for t in range(N):
        even, odd, active = dilated_step(t, K[t], V[t], even, odd)
        window = [p for p in range(t % 2, t + 1, 2) if p > t - 2 * n]
        if len(window) < n:
            continue  # queue not yet full: zero slots are documented, not compared
        got = readout(Q[t], active)
        want = full_attention(Q[t], K[window], V[window])
        assert np.abs(got - want).max() <= 1e-10


# --- learned control ----------------------------------------------------------


def test_phi_mlp_sequence_single_token_is_all_ones():
    w = make_rng(2).normal(size=(3, 4))
    x = make_rng(3).normal(size=(1, 4))
    np.testing.assert_allclose(st.phi_mlp_sequence(x, w), np.ones((1, 3)), atol=1e-12)


def test_phi_mlp_sequence_sums_to_one_per_slot():
    rng = make_rng(10)
    X = rng.normal(size=(9, 5))
    w = rng.normal(size=(4, 5))
    phis = st.phi_mlp_sequence(X, w)
    assert np.abs(phis.sum(axis=0) - 1.0).max() <= 1e-12
    assert (phis > 0.0).all()  # exp keeps everything strictly positive


def test_phi_mlp_single_slot_is_positional_softmax():
    # with one slot the control weights are a plain softmax over positions
    rng = make_rng(12)
    X = rng.normal(size=(6, 3))
    w = rng.normal(size=(1, 3))
    phis = st.phi_mlp_sequence(X, w)
    np.testing.assert_allclose(phis[:, 0], softmax(X @ w[0]), atol=1e-12)


def test_phi_mlp_prefix_first_step_normalizes_to_one():
    rng = make_rng(14)
    w = rng.normal(size=(3, 4))
    alpha, total = st.phi_mlp_prefix(rng.normal(size=4), w, np.zeros(3))
    np.testing.assert_allclose(alpha / total, np.ones(3), atol=1e-12)


def test_phi_mlp_prefix_final_step_matches_sequence_mode():
    rng = make_rng(15)
    N, n, d = 8, 3, 5
    X = rng.normal(size=(N, d))
    w = rng.normal(size=(n, d))
    total = np.zeros(n)
    for t in range(N):
        alpha, total = st.phi_mlp_prefix(X[t], w, total)
    seq = st.phi_mlp_sequence(X, w)
    assert np.abs(alpha / total - seq[-1]).max() <= 1e-12


def test_phi_mlp_prefix_ignores_future_tokens():
    rng = make_rng(16)
    N, n, d = 6, 2, 4
    X = rng.normal(size=(N, d))
    w = rng.normal(size=(n, d))

    def run(X, upto):
        total = np.zeros(n)
        outs = []
        for t in range(upto + 1):
            alpha, total = st.phi_mlp_prefix(X[t], w, total)
            outs.append((alpha.copy(), total.copy()))
        return outs

    t = 3
    base = run(X, t)
    X2 = X.copy()
    X2[t + 1 :] += 100.0
    pert = run(X2, t)
    for (a1, s1), (a2, s2) in zip(base, pert):
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(s1, s2)


def test_phi_at_requires_x_for_mlp():
    c = st.MlpControl(n=2)
    with pytest.raises(ValueError):
        st.phi_at(c, 0, np.zeros((2, 3)))


def test_causal_legality_classification():
    assert st.WindowControl(n=4).causal and not st.WindowControl(n=4).sequence
    assert st.DilatedControl(n=4).causal and not st.DilatedControl(n=4).sequence
    assert st.MlpControl(n=2).causal and st.MlpControl(n=2).sequence  # the site picks the normalizer
    assert not st.ClusterControl(n=3).causal and st.ClusterControl(n=3).sequence
    for c in (st.LinformerControl(2, 8), st.LocalToGlobalControl(2), st.RandomSlotControl(2, 0, 8),
              st.CompressiveControl(2, 4)):
        assert c.causal and c.sequence and c.stride == 0


def test_identity_strategy_recovers_standard_basis():
    # local-to-global over its default positions (the first n) is e_t
    phis = st.phi_matrix(st.LocalToGlobalControl(5), 5)
    np.testing.assert_array_equal(phis, np.eye(5))


# --- vectorized rows ------------------------------------------------------------


ROW_CASES = [
    (st.LinformerControl(n=3, max_len=10), make_rng(5).normal(size=(3, 10))),
    # rows 0, 1, 4, 5, 6 and 8 write nothing; slot 3 is never written
    (st.LocalToGlobalControl(n=4, global_positions=(2, 7, 3)), None),
    (st.LocalToGlobalControl(n=4), None),
    (st.RandomSlotControl(n=4, seed=3, max_len=10), None),
    (st.CompressiveControl(n=3, ratio=3), None),  # 9 positions, then overflow
]
ROW_IDS = ["linformer", "local_to_global-sparse", "local_to_global", "random", "compressive"]


@pytest.mark.parametrize("control,weights", ROW_CASES, ids=ROW_IDS)
def test_phi_matrix_equals_stacked_phi_at(control, weights):
    N = 9
    stacked = np.stack([st.phi_at(control, t, weights) for t in range(N)])
    np.testing.assert_array_equal(st.phi_matrix(control, N, weights), stacked)
    # any window of rows is the same slice of the stack
    np.testing.assert_array_equal(control.phi_rows(2, 7, weights), stacked[2:7])


@pytest.mark.parametrize("control,weights", ROW_CASES, ids=ROW_IDS)
def test_overflow_fires_at_the_same_position(control, weights):
    first_bad = None
    for t in range(20):
        try:
            st.phi_at(control, t, weights)
        except ValueError as e:
            first_bad = t
            assert f"position {t} " in str(e)
            break
    if first_bad is None:  # local-to-global has no overflow
        assert st.phi_matrix(control, 20, weights).shape == (20, control.n)
        return
    assert st.phi_matrix(control, first_bad, weights).shape == (first_bad, control.n)
    with pytest.raises(ValueError, match=f"position {first_bad} "):
        st.phi_matrix(control, 20, weights)
    with pytest.raises(ValueError, match=f"position {first_bad + 2} "):
        control.phi_rows(first_bad + 2, first_bad + 4, weights)

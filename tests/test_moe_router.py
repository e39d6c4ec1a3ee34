"""Tests for repro.moe.router."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.moe.router import TopKRouter


@pytest.fixture
def router(rng):
    return TopKRouter(hidden_size=32, num_experts=8, top_k=2, rng=rng)


class TestRouting:
    def test_result_shapes(self, router, rng):
        x = rng.normal(0, 1, (10, 32)).astype(np.float32)
        r = router.route(x)
        assert r.indices.shape == (10, 2)
        assert r.weights.shape == (10, 2)
        assert r.probs.shape == (10, 8)
        assert r.num_tokens == 10 and r.top_k == 2 and r.num_experts == 8

    def test_indices_distinct_per_token(self, router, rng):
        x = rng.normal(0, 1, (50, 32)).astype(np.float32)
        idx = router.route(x).indices
        assert all(len(set(row.tolist())) == 2 for row in idx)

    def test_weights_renormalized(self, router, rng):
        x = rng.normal(0, 1, (20, 32)).astype(np.float32)
        w = router.route(x).weights
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert (w >= 0).all()

    def test_weights_without_renormalize(self, rng):
        router = TopKRouter(32, 8, 2, renormalize=False, rng=rng)
        x = rng.normal(0, 1, (20, 32)).astype(np.float32)
        r = router.route(x)
        # raw softmax mass of the top-2 is < 1
        assert (r.weights.sum(axis=-1) < 1.0).all()
        expected = np.take_along_axis(r.probs, r.indices, axis=-1)
        assert np.allclose(r.weights, expected, atol=1e-6)

    def test_best_expert_first(self, router, rng):
        x = rng.normal(0, 1, (30, 32)).astype(np.float32)
        r = router.route(x)
        assert (r.weights[:, 0] >= r.weights[:, 1] - 1e-6).all()

    def test_deterministic_given_seed(self):
        a = TopKRouter(16, 4, 1, rng=np.random.default_rng(5))
        b = TopKRouter(16, 4, 1, rng=np.random.default_rng(5))
        x = np.random.default_rng(0).normal(0, 1, (8, 16)).astype(np.float32)
        assert np.array_equal(a.route(x).indices, b.route(x).indices)

    def test_input_validation(self, router):
        with pytest.raises(ValueError):
            router.route(np.zeros((4, 31), np.float32))
        with pytest.raises(ValueError):
            TopKRouter(8, 4, 5)
        with pytest.raises(ValueError):
            TopKRouter(8, 4, 2, expert_bias_std=-0.1)


class TestBalanceStatistics:
    def test_balanced_router_near_uniform(self, rng):
        router = TopKRouter(64, 16, 2, rng=rng)
        x = rng.normal(0, 1, (4000, 64)).astype(np.float32)
        r = router.route(x)
        counts = r.expert_counts()
        assert counts.sum() == 4000 * 2
        # every expert used, max/mean below 2
        assert counts.min() > 0
        assert counts.max() / counts.mean() < 2.0

    def test_biased_router_is_skewed(self, rng):
        flat = TopKRouter(64, 16, 2, expert_bias_std=0.0,
                          rng=np.random.default_rng(1))
        skew = TopKRouter(64, 16, 2, expert_bias_std=1.5,
                          rng=np.random.default_rng(1))
        x = rng.normal(0, 1, (4000, 64)).astype(np.float32)
        flat_imb = flat.route(x).expert_counts().max() / (4000 * 2 / 16)
        skew_imb = skew.route(x).expert_counts().max() / (4000 * 2 / 16)
        assert skew_imb > flat_imb * 1.5

    def test_load_balance_loss_near_one_when_balanced(self, rng):
        router = TopKRouter(64, 8, 2, rng=rng)
        x = rng.normal(0, 1, (2000, 64)).astype(np.float32)
        assert router.route(x).load_balance_loss() == pytest.approx(1.0, abs=0.1)

    def test_load_balance_loss_grows_with_bias(self, rng):
        skew = TopKRouter(64, 8, 2, expert_bias_std=2.0, rng=rng)
        x = rng.normal(0, 1, (2000, 64)).astype(np.float32)
        assert skew.route(x).load_balance_loss() > 1.2

    def test_z_loss_positive(self, router, rng):
        x = rng.normal(0, 1, (16, 32)).astype(np.float32)
        assert router.z_loss(x) > 0


class TestDropExperts:
    def test_drop_reduces_experts(self, router, rng):
        pruned = router.drop_experts(np.array([0, 3]))
        assert pruned.num_experts == 6
        x = rng.normal(0, 1, (10, 32)).astype(np.float32)
        assert pruned.route(x).indices.max() < 6

    def test_survivor_weights_preserved(self, router):
        pruned = router.drop_experts(np.array([0]))
        assert np.array_equal(pruned.weight, router.weight[:, 1:])

    def test_cannot_drop_all(self, router):
        with pytest.raises(ValueError):
            router.drop_experts(np.arange(8))

    def test_top_k_capped(self, rng):
        router = TopKRouter(16, 4, 3, rng=rng)
        pruned = router.drop_experts(np.array([0, 1]))
        assert pruned.top_k == 2


def _reference_counts(router: TopKRouter, x: np.ndarray) -> np.ndarray:
    """The argpartition + bincount count of the top-k winners."""
    logits = router.logits(x)
    part = np.argpartition(-logits, router.top_k - 1, axis=-1)
    return np.bincount(part[:, : router.top_k].ravel(),
                       minlength=router.num_experts)


def _assert_counts_match(router: TopKRouter, x: np.ndarray) -> None:
    got = router.route_counts(x)
    want = _reference_counts(router, x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


_settings = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestRouteCounts:
    @given(st.integers(1, 64), st.data(), st.integers(0, 300),
           st.integers(0, 2**31 - 1))
    @_settings
    def test_equals_argpartition_reference(self, num_experts, data, tokens,
                                           seed):
        top_k = data.draw(st.sampled_from(
            sorted({1, num_experts, max(1, num_experts // 2)})))
        rng = np.random.default_rng(seed)
        router = TopKRouter(16, num_experts, top_k, expert_bias_std=0.5,
                            rng=np.random.default_rng(seed))
        x = rng.normal(size=(tokens, 16)).astype(np.float32)
        _assert_counts_match(router, x)

    @given(st.integers(2, 32), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @_settings
    def test_exact_ties_at_the_boundary(self, num_experts, copies, seed):
        # duplicated weight columns with equal bias give bit-equal logits
        # in every row, so the k-th boundary is tied on most rows
        rng = np.random.default_rng(seed)
        top_k = int(rng.integers(1, num_experts + 1))
        router = TopKRouter(8, num_experts, top_k,
                            rng=np.random.default_rng(seed))
        src = rng.integers(0, num_experts, size=copies)
        dst = rng.integers(0, num_experts, size=copies)
        router.weight[:, dst] = router.weight[:, src]
        router.bias[dst] = router.bias[src]
        x = rng.normal(size=(128, 8)).astype(np.float32)
        _assert_counts_match(router, x)

    def test_forced_ties_exercise_the_recount(self, rng):
        router = TopKRouter(8, 8, 3, rng=rng)
        router.weight[:, 1:] = router.weight[:, :1]
        router.bias[:] = 0.0
        x = rng.normal(size=(64, 8)).astype(np.float32)
        logits = router.logits(x)
        assert (logits == logits[:, :1]).all()  # every row fully tied
        _assert_counts_match(router, x)
        assert router.route_counts(x).sum() == 64 * 3

    @pytest.mark.parametrize("top_k", [1, 4, 8])
    def test_zero_rows(self, rng, top_k):
        router = TopKRouter(8, 8, top_k, rng=rng)
        counts = router.route_counts(np.zeros((0, 8), dtype=np.float32))
        assert counts.shape == (8,) and not counts.any()
        _assert_counts_match(router, np.zeros((0, 8), dtype=np.float32))

    @pytest.mark.parametrize("top_k", [1, 3, 8])
    def test_nan_rows_and_columns(self, rng, top_k):
        router = TopKRouter(8, 8, top_k, rng=rng)
        x = rng.normal(size=(32, 8)).astype(np.float32)
        x[::5, 2] = np.nan  # whole rows of NaN logits
        _assert_counts_match(router, x)
        router.bias[[1, 6]] = np.nan  # NaN in two experts of every row
        _assert_counts_match(router, x)

    def test_nan_rows_cannot_hide_a_tied_row(self, rng):
        # a fully tied row wins 8 - 2 = 6 extra slots; three all-NaN rows
        # fall 3 x 2 short, so the mask's grand total still reads 4 x k
        router = TopKRouter(8, 8, 2, rng=rng)
        router.bias[:] = 0.5
        x = np.zeros((4, 8), dtype=np.float32)
        x[1:] = np.nan
        _assert_counts_match(router, x)

    def test_infinite_logits_tie(self, rng):
        router = TopKRouter(8, 8, 2, rng=rng)
        router.bias[[0, 3, 5]] = np.inf
        x = rng.normal(size=(16, 8)).astype(np.float32)
        _assert_counts_match(router, x)

"""``tensor.conv1d``, ``tensor.additive_attention``, ``tensor.dense``,
``tensor.embed_beside``, the four head losses and ``total_loss`` against
the taped graphs they replace.

The references are the code before the fusion, built on the taped ops of
``tests/taped.py``: a convolution from zero pads, tap slices, two concats,
a matmul, a bias add and a ReLU; attention from about ten taped ops around
a taped softmax; a Dense layer as a taped matmul, bias add and ReLU; the
embedding as a row gather concatenated to its input; each head loss as
the taped graph of its formula, with a taped square and log-softmax; and
the weighted total as taped products and sums.  Outputs and every gradient
must be equal bit for bit, the sign of zero included.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn import layers as nn
from mafn import losses as L
from mafn import tensor as T
from mafn.config import TrainConfig
from mafn.errors import ContractError, DimensionError, NumericError
from mafn.gradcheck import check_gradients
from mafn.tensor import Tensor
from tests.taped import (add, concat, divided, gather_rows, getitem, matmul, mul, negated, relu, sub,
                         sum_of_squares, taped_log_softmax, taped_square, taped_tanh, tmean, tsum, weighted_sum)


def reference_dense(layer: nn.Dense, x: Tensor) -> Tensor:
    """``Dense.__call__`` as a taped matmul, bias add and ReLU."""
    y = add(matmul(x, layer.W), layer.b)
    return relu(y) if layer.relu else y


def reference_state_loss(logits: Tensor, targets, mask) -> Tensor:
    targets, mask = np.asarray(targets, dtype=np.int64), np.asarray(mask, dtype=np.float64)
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    picked = tsum(mul(taped_log_softmax(logits, axis=-1), Tensor(onehot)), axis=-1)
    return divided(negated(tsum(mul(picked, Tensor(mask)))), max(float(mask.sum()), 1.0))


def reference_degradation_loss(trend: Tensor, lambda_smooth: float) -> Tensor:
    diffs = sub(getitem(trend, (Ellipsis, slice(1, None))), getitem(trend, (Ellipsis, slice(None, -1))))
    mono = tsum(relu(negated(diffs)), axis=-1)
    smooth = tsum(taped_square(diffs), axis=-1)
    per_sample = divided(add(mono, mul(Tensor(lambda_smooth), smooth)), trend.shape[-1] - 1)
    return tmean(per_sample) if per_sample.ndim else per_sample


def reference_forecast_loss(pred: Tensor, target, mask) -> Tensor:
    target, mask = np.asarray(target, dtype=np.float64), np.asarray(mask, dtype=np.float64)
    sq = tsum(taped_square(sub(pred, Tensor(target))), axis=-1)
    return divided(tsum(mul(sq, Tensor(mask))), max(float(mask.sum()), 1.0))


def reference_rul_loss(pred: Tensor, target, lambda_late: float, lambda_early: float) -> Tensor:
    diff = sub(pred, Tensor(np.asarray(target, dtype=np.float64)))
    late = taped_square(relu(diff))
    early = taped_square(relu(negated(diff)))
    return tmean(add(mul(Tensor(lambda_late), late), mul(Tensor(lambda_early), early)))


def reference_total_loss(components: dict, weights) -> Tensor:
    """``total_loss`` as taped products ``w * L`` summed in component order."""
    w = {"state": weights.w_state, "degradation": weights.w_degradation, "forecast": weights.w_forecast,
         "rul": weights.w_rul}
    out = None
    for name, value in components.items():
        term = mul(Tensor(w[name]), value)
        out = term if out is None else add(out, term)
    return out


def reference_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """The taped softmax the attention layer used."""
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return T._make(out, (x,), grad_fn, "softmax")


def reference_conv(conv: nn.Conv1d, x: Tensor) -> Tensor:
    """``Conv1d.__call__`` as pads, tap slices, concats, a matmul, a bias add
    and a ReLU."""
    B, t_len, C = x.shape
    kernel, n_channels, n_filters = conv.W.shape
    if C != n_channels:
        raise DimensionError(f"conv1d expects {n_channels} channels, got {C}")
    p = (kernel - 1) // 2
    right = kernel - 1 - p
    pieces = []
    if p:
        pieces.append(Tensor(np.zeros((B, p, C))))
    pieces.append(x)
    if right:
        pieces.append(Tensor(np.zeros((B, right, C))))
    xp = concat(pieces, axis=1) if len(pieces) > 1 else x
    taps = [getitem(xp, (slice(None), slice(j, j + t_len), slice(None))) for j in range(kernel)]
    cols = concat(taps, axis=2)
    w2 = conv.W.reshape((kernel * n_channels, n_filters))
    return relu(add(matmul(cols, w2), conv.b))


def reference_embed_beside(x: Tensor, table: Tensor, ids) -> Tensor:
    """``embed_beside`` as a taped row gather concatenated to its input."""
    return concat([x, gather_rows(table, ids)], axis=-1)


def reference_attention(attn: nn.Attention, h: Tensor):
    """``Attention.__call__`` as taped matmuls, tanh, softmax, a (B, T, 1)
    broadcast multiply and a sum over time."""
    B, t_len, _ = h.shape
    pre = taped_tanh(add(matmul(h, attn.Wh), matmul(attn.s, attn.Ws)))
    scores = matmul(pre, attn.v).reshape((B, t_len))
    weights = reference_softmax(scores, axis=-1)
    context = tsum(mul(weights.reshape((B, t_len, 1)), h), axis=1)
    return context, weights


def with_zeros(rng, shape, share):
    """Normal draws with about ``share`` of the entries set to +0.0 or -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < share] = 0.0
    a[rng.random(shape) < share] = -0.0
    return a


def grads_of(build, leaves, upstream):
    """Output data and each leaf's gradient of ``(build() * upstream).sum()``."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    weighted_sum(out, upstream).backward()
    return out.data, [leaf.grad for leaf in leaves]


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


# the share of signed zeros in an upstream gradient; 1.0 makes it all -0.0
ZERO_SHARES = st.sampled_from([0.0, 0.3, 1.0])


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 6))
    t_len = draw(st.integers(-(-kernel // 2), 8))
    return (draw(st.integers(1, 4)), t_len, draw(st.integers(1, 3)), draw(st.integers(1, 3)), kernel,
            draw(ZERO_SHARES), draw(st.integers(0, 2**32 - 1)))


@st.composite
def attention_cases(draw):
    return (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(ZERO_SHARES), draw(st.integers(0, 2**32 - 1)))


class TestConv1dOp:
    @settings(max_examples=80, deadline=None)
    @given(conv_cases())
    def test_bits_match_sliced_graph(self, case):
        B, t_len, C, F, kernel, share, seed = case
        rng = np.random.default_rng(seed)
        conv = nn.Conv1d(rng, C, F, kernel)
        conv.b.data = with_zeros(rng, F, 0.3)
        dead = rng.random(F) < 0.3          # pre-activations of exactly 0 in these filters
        conv.W.data[..., dead], conv.b.data[dead] = 0.0, 0.0
        x = T.parameter(with_zeros(rng, (B, t_len, C), 0.2))
        upstream = with_zeros(rng, (B, t_len, F), share)
        leaves = [x, conv.W, conv.b]
        out, grads = grads_of(lambda: conv(x), leaves, upstream)
        ref_out, ref_grads = grads_of(lambda: reference_conv(conv, x), leaves, upstream)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_one_tape_node(self, rng):
        x = T.parameter(rng.normal(size=(2, 5, 3)))
        W, b = T.parameter(rng.normal(size=(4, 3, 2))), T.parameter(rng.normal(size=2))
        out = T.conv1d(x, W, b)
        assert out._op == "conv1d" and out._parents == (x, W, b)

    @pytest.mark.parametrize("kernel,t_len", [(1, 1), (2, 1), (4, 2), (5, 3), (6, 3)])
    def test_gradients(self, rng, kernel, t_len):
        conv = nn.Conv1d(rng, 2, 3, kernel)
        conv.b.data = rng.normal(size=3)
        x = T.parameter(rng.normal(size=(2, t_len, 2)))
        check_gradients(lambda: sum_of_squares(conv(x)), [x, conv.W, conv.b])

    @pytest.mark.parametrize("shape", [(5, 3), (1, 5, 2), (1, 5, 3, 1)])
    def test_bad_input_shape_rejected(self, rng, shape):
        with pytest.raises(DimensionError):
            T.conv1d(Tensor(np.zeros(shape)), Tensor(np.zeros((3, 3, 2))), Tensor(np.zeros(2)))

    def test_kernel_longer_than_twice_window_rejected(self):
        with pytest.raises(ContractError):
            T.conv1d(Tensor(np.zeros((1, 2, 1))), Tensor(np.zeros((5, 1, 1))), Tensor(np.zeros(1)))


class TestAdditiveAttentionOp:
    @settings(max_examples=80, deadline=None)
    @given(attention_cases())
    def test_bits_match_taped_graph(self, case):
        B, t_len, H, A, share, seed = case
        rng = np.random.default_rng(seed)
        attn = nn.Attention(rng, H, A)
        h = T.parameter(with_zeros(rng, (B, t_len, H), 0.2) * 3.0)
        upstream = with_zeros(rng, (B, H), share)
        leaves = [h] + [t for _, t in attn.parameters()]
        out, grads = grads_of(lambda: attn(h)[0], leaves, upstream)
        ref_out, ref_grads = grads_of(lambda: reference_attention(attn, h)[0], leaves, upstream)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)
        assert_bits_equal(attn(h)[1].data, reference_attention(attn, h)[1].data)

    def test_weights_are_constant(self, rng):
        attn = nn.Attention(rng, 4, 3)
        context, weights = attn(T.parameter(rng.normal(size=(2, 5, 4))))
        assert context.requires_grad and context._op == "additive_attention"
        assert not weights.requires_grad and weights._grad_fn is None

    @pytest.mark.parametrize("t_len", [1, 4])
    def test_gradients(self, rng, t_len):
        attn = nn.Attention(rng, 4, 3)
        h = T.parameter(rng.normal(size=(2, t_len, 4)))
        check_gradients(lambda: sum_of_squares(attn(h)[0]), [h] + [t for _, t in attn.parameters()])

    @pytest.mark.parametrize("shape", [(5, 4), (1, 5, 3)])
    def test_bad_input_shape_rejected(self, rng, shape):
        attn = nn.Attention(rng, 4, 3)
        with pytest.raises(DimensionError):
            attn(Tensor(np.zeros(shape)))


@st.composite
def dense_cases(draw):
    lead = (draw(st.sampled_from([1, 7, 64])),) + ((draw(st.integers(2, 6)),) if draw(st.booleans()) else ())
    return (lead, draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.booleans()), draw(ZERO_SHARES),
            draw(st.integers(0, 2**32 - 1)))


class TestDenseOp:
    @settings(max_examples=80, deadline=None)
    @given(dense_cases())
    def test_bits_match_taped_graph(self, case):
        lead, n_in, n_out, relu, share, seed = case
        rng = np.random.default_rng(seed)
        layer = nn.Dense(rng, n_in, n_out, relu=relu)
        layer.b.data = with_zeros(rng, n_out, 0.3)
        dead = rng.random(n_out) < 0.3          # pre-activations of exactly 0 in these columns
        layer.W.data[:, dead], layer.b.data[dead] = 0.0, 0.0
        x = T.parameter(with_zeros(rng, lead + (n_in,), 0.2))
        upstream = with_zeros(rng, lead + (n_out,), share)
        leaves = [x, layer.W, layer.b]
        out, grads = grads_of(lambda: layer(x), leaves, upstream)
        ref_out, ref_grads = grads_of(lambda: reference_dense(layer, x), leaves, upstream)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_one_tape_node(self, rng):
        layer = nn.Dense(rng, 3, 2, relu=True)
        x = T.parameter(rng.normal(size=(4, 5, 3)))
        out = layer(x)
        assert out._op == "dense" and out._parents == (x, layer.W, layer.b)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)])
    @pytest.mark.parametrize("relu", [False, True])
    def test_gradients(self, rng, shape, relu):
        layer = nn.Dense(rng, 3, 2, relu=relu)
        layer.b.data = rng.normal(size=2)
        x = T.parameter(rng.normal(size=shape))
        check_gradients(lambda: sum_of_squares(layer(x)), [x, layer.W, layer.b])

    def test_bad_shapes_rejected(self, rng):
        W = Tensor(np.zeros((3, 2)))
        with pytest.raises(DimensionError, match=r"inner dimensions disagree: \(4, 2\) @ \(3, 2\)"):
            T.dense(Tensor(np.zeros((4, 2))), W, Tensor(np.zeros(2)), True)
        with pytest.raises(DimensionError, match=r"dense bias \(3,\) does not fit weights \(3, 2\)"):
            T.dense(Tensor(np.zeros((4, 3))), W, Tensor(np.zeros(3)), False)


@st.composite
def embed_cases(draw):
    lead = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    k = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, k - 1), min_size=int(np.prod(lead)), max_size=int(np.prod(lead))))
    return (lead, draw(st.integers(1, 4)), k, draw(st.integers(1, 3)), np.array(ids, dtype=np.int64).reshape(lead),
            draw(ZERO_SHARES), draw(st.integers(0, 2**32 - 1)))


class TestEmbedBesideOp:
    @settings(max_examples=80, deadline=None)
    @given(embed_cases())
    def test_bits_match_taped_graph(self, case):
        lead, D, k, m, ids, share, seed = case
        rng = np.random.default_rng(seed)
        x = T.parameter(with_zeros(rng, lead + (D,), 0.2))
        table = T.parameter(with_zeros(rng, (k, m), 0.2))
        upstream = with_zeros(rng, lead + (D + m,), share)
        out, grads = grads_of(lambda: T.embed_beside(x, table, ids), [x, table], upstream)
        ref_out, ref_grads = grads_of(lambda: reference_embed_beside(x, table, ids), [x, table], upstream)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(2, 4), ZERO_SHARES, st.integers(0, 2**32 - 1))
    def test_shared_table_bits_match_taped_graph(self, batch, t_len, horizon, share, seed):
        # as in the model: the table beside the (B, T, D) input, then beside a
        # (B, H, d) vector built from it that also feeds a second consumer, so
        # the table and that vector each take two gradient contributions
        rng = np.random.default_rng(seed)
        D, d, k, m = 3, 2, 3, 2
        x = T.parameter(with_zeros(rng, (batch, t_len, D), 0.2))
        table = T.parameter(with_zeros(rng, (k, m), 0.2))
        ids = rng.integers(0, k, size=(batch, t_len))
        fusion_ids = rng.integers(0, k, size=(batch, horizon))
        encoder = nn.Dense(rng, t_len * (D + m), horizon * d)
        up_fused = with_zeros(rng, (batch, horizon, d + m), share)
        up_vecs = with_zeros(rng, (batch, horizon, d), share)

        def build(embed):
            encoded = embed(x, table, ids).reshape((batch, t_len * (D + m)))
            vecs = encoder(encoded).reshape((batch, horizon, d))
            return add(weighted_sum(embed(vecs, table, fusion_ids), up_fused), weighted_sum(vecs, up_vecs))

        leaves = [x, table, encoder.W, encoder.b]
        out, grads = grads_of(lambda: build(T.embed_beside), leaves, 1.0)
        ref_out, ref_grads = grads_of(lambda: build(reference_embed_beside), leaves, 1.0)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_one_tape_node(self, rng):
        x = T.parameter(rng.normal(size=(2, 5, 3)))
        table = T.parameter(rng.normal(size=(4, 2)))
        ids = np.array([[0, 1, 1, 3, 0], [2, 2, 2, 2, 2]])
        out = T.embed_beside(x, table, ids)
        assert out._op == "embed_beside" and out._parents == (x, table) and out.shape == (2, 5, 5)
        check_gradients(lambda: sum_of_squares(T.embed_beside(x, table, ids)), [x, table])

    @pytest.mark.parametrize("table_shape,ids,error", [
        ((3, 2), np.array([[0.0, 1.0]]), ContractError),
        ((3, 2), np.array([[0, -1]]), ContractError),
        ((3, 2), np.array([[3, 0]]), ContractError),
        ((3,), np.array([[0, 1]]), DimensionError),
        ((3, 2), np.array([0, 1]), DimensionError),
        ((3, 2), np.array([[0, 1, 2]]), DimensionError),
        ((3, 2), np.array([[[0], [1]]]), DimensionError),
    ])
    def test_bad_input_rejected(self, table_shape, ids, error):
        with pytest.raises(error, match="embed_beside"):
            T.embed_beside(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros(table_shape)), ids)


@st.composite
def loss_cases(draw):
    return (draw(st.sampled_from([1, 7, 64])), draw(st.integers(2, 6)), draw(st.integers(1, 6)),
            draw(st.sampled_from(["zeros", "ones", "mixed"])), draw(st.integers(0, 2**32 - 1)))


def head_losses(rng, batch, horizon, k, mask_kind):
    """Each fused head loss, its taped reference and its input, on inputs
    with ties: repeated trend steps and predictions equal to their targets
    put the ReLUs' pre-activations at exactly 0."""
    mask = np.full((batch, horizon), float(mask_kind == "ones"))
    if mask_kind == "mixed":
        mask = (rng.random((batch, horizon)) < 0.5).astype(np.float64)
    targets = rng.integers(0, k, size=(batch, horizon))
    trend = rng.normal(size=(batch, horizon))
    trend[rng.random((batch, horizon)) < 0.3] = 0.5
    sensors = rng.normal(size=(batch, horizon, 3))
    rul_target = rng.random(batch)
    rul = np.where(rng.random(batch) < 0.3, rul_target, rng.normal(size=batch))
    smooth, late, early = rng.choice([0.0, 0.1, 1.3]), rng.uniform(1.0, 3.0), rng.uniform(0.0, 1.0)
    target = with_zeros(rng, (batch, horizon, 3), 0.2)
    return [
        (L.state_loss, reference_state_loss, rng.normal(size=(batch, horizon, k)) * 3.0, (targets, mask)),
        (L.degradation_loss, reference_degradation_loss, trend, (smooth,)),
        (L.forecast_loss, reference_forecast_loss, sensors, (target, mask)),
        (L.rul_loss, reference_rul_loss, rul, (rul_target, late, early)),
    ]


class TestHeadLossOps:
    @settings(max_examples=60, deadline=None)
    @given(loss_cases(), st.sampled_from([1.0, 0.3, -0.0]))
    def test_bits_match_taped_graph(self, case, upstream):
        batch, horizon, k, mask_kind, seed = case
        for fused, reference, data, args in head_losses(np.random.default_rng(seed), batch, horizon, k, mask_kind):
            x = T.parameter(data)
            value, (grad,) = grads_of(lambda: fused(x, *args), [x], upstream)
            ref_value, (ref_grad,) = grads_of(lambda: reference(x, *args), [x], upstream)
            assert_bits_equal(value, ref_value)
            assert_bits_equal(grad, ref_grad)

    @pytest.mark.parametrize("mask_kind", ["zeros", "ones", "mixed"])
    def test_one_tape_node_and_gradients(self, rng, mask_kind):
        for fused, _, data, args in head_losses(rng, 3, 4, 3, mask_kind):
            x = T.parameter(data + rng.normal(size=data.shape) * 1e-3)   # off the ReLUs' kinks
            loss = fused(x, *args)
            assert loss._op == fused.__name__ and loss._parents == (x,)
            check_gradients(lambda: fused(x, *args), [x])

    def test_one_dimensional_trend(self, rng):
        trend = T.parameter(rng.normal(size=5))
        value, (grad,) = grads_of(lambda: L.degradation_loss(trend, 0.2), [trend], 1.0)
        ref_value, (ref_grad,) = grads_of(lambda: reference_degradation_loss(trend, 0.2), [trend], 1.0)
        assert_bits_equal(value, ref_value)
        assert_bits_equal(grad, ref_grad)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(["state", "degradation", "forecast", "rul"]), st.integers(1, 4),
           st.lists(st.booleans(), min_size=4, max_size=4), st.booleans(), st.sampled_from([1.0, 0.3, -0.0]),
           st.integers(0, 2**32 - 1))
    def test_total_bits_match_taped_sum(self, names, count, zero_weights, as_config, upstream, seed):
        rng = np.random.default_rng(seed)
        weights = np.where(zero_weights, 0.0, rng.uniform(0.1, 3.0, size=4))
        fields = dict(zip(("w_state", "w_degradation", "w_forecast", "w_rul"), weights.tolist()))
        carrier = TrainConfig(**fields) if as_config else L.LossWeights(**fields)
        components = {name: T.parameter(rng.random() * 10.0) for name in names[:count]}
        leaves = list(components.values())
        value, grads = grads_of(lambda: L.total_loss(components, carrier), leaves, upstream)
        ref_value, ref_grads = grads_of(lambda: reference_total_loss(components, carrier), leaves, upstream)
        assert_bits_equal(value, ref_value)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_total_is_one_tape_node(self, rng):
        components = {name: T.parameter(rng.random()) for name in ("rul", "state")}
        total = L.total_loss(components, TrainConfig())
        assert total._op == "total_loss" and total._parents == tuple(components.values())
        check_gradients(lambda: L.total_loss(components, TrainConfig()), list(components.values()))

    def test_total_zero_weight_of_inf_is_nan(self):
        components = {"state": T.parameter(np.inf), "rul": T.parameter(1.0)}
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="weighted total loss is NaN"):
            L.total_loss(components, L.LossWeights(w_state=0.0))

    def test_untaped_under_no_grad(self, rng):
        x = T.parameter(rng.normal(size=(2, 3, 4)))
        with T.no_grad():
            loss = L.state_loss(x, np.zeros((2, 3), dtype=int), np.ones((2, 3)))
        assert not loss.requires_grad and loss._grad_fn is None

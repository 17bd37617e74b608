"""Projection heads: structure, initialization bounds, and gradient flow."""

import numpy as np
import pytest

import cfalign.heads as heads_module
from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset
from cfalign.errors import ConfigError, DimensionError
from cfalign.evaluate import eval_to_json, evaluate
from cfalign.heads import (
    LinearLayer,
    build_head,
    head_forward,
    head_parameters,
)
from cfalign.losses import info_nce
from cfalign.tensor import Graph, Tensor, backward, grad_check, transpose
from cfalign.train import metrics_to_csv, train
from chain_ops import batch_norm_chain, mul, reduce_mean, relu


def param_count(head):
    return sum(p.data.size for p in head_parameters(head))


class TestStructure:
    def test_none_is_identity(self):
        head = build_head("none", 4)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        out = head_forward(head, x)
        np.testing.assert_array_equal(out.data, x.data)
        assert param_count(head) == 0

    def test_byol_param_count(self):
        assert param_count(build_head("byol", 4, rng=0)) == 20 + 8 + 20

    @pytest.mark.parametrize("kind", ["none", "byol"])
    def test_output_shape(self, kind):
        head = build_head(kind, 6, rng=1)
        x = Tensor(np.random.default_rng(2).normal(size=(6, 7)))
        assert head_forward(head, x).data.shape == (6, 7)

    def test_layer_sequence_matches_table(self):
        head = build_head("byol", 4, rng=0)
        assert isinstance(head.fc1, LinearLayer) and isinstance(head.fc2, LinearLayer)
        assert head.fc1.weight.shape == head.fc2.weight.shape == (4, 4)
        assert head.fc1.bias.shape == head.fc2.bias.shape == head.gamma.shape == head.beta.shape == (4,)
        none = build_head("none", 4)
        assert (none.fc1, none.gamma, none.beta, none.fc2) == (None, None, None, None)

    def test_unknown_kind_rejected(self):
        for kind in ("resnet", "linear", "moco", "simclr"):  # the last three were heads once
            with pytest.raises(ConfigError):
                build_head(kind, 4)

    def test_wrong_input_dim_rejected(self):
        head = build_head("byol", 4, rng=0)
        with pytest.raises(DimensionError):
            head_forward(head, Tensor(np.zeros((5, 2))))


class TestInitialization:
    def test_uniform_bound_is_inverse_sqrt_fan_in(self):
        head = build_head("byol", 16, rng=3)
        for layer in (head.fc1, head.fc2):
            assert np.abs(layer.weight.data).max() <= 1 / 4.0
            assert np.abs(layer.bias.data).max() <= 1 / 4.0

    def test_draw_order(self):
        # fc1 weight, fc1 bias, fc2 weight, fc2 bias from the one generator
        head = build_head("byol", 4, rng=np.random.default_rng(21))
        twin = np.random.default_rng(21)
        want = [
            twin.uniform(-1 / 2.0, 1 / 2.0, size=(4, 4)),
            twin.uniform(-1 / 2.0, 1 / 2.0, size=4),
            twin.uniform(-1 / 2.0, 1 / 2.0, size=(4, 4)),
            twin.uniform(-1 / 2.0, 1 / 2.0, size=4),
        ]
        got = [head.fc1.weight, head.fc1.bias, head.fc2.weight, head.fc2.bias]
        for g, w in zip(got, want):
            assert g.data.tobytes() == w.tobytes()

    def test_seeded_build_is_reproducible(self):
        a = build_head("byol", 5, rng=7)
        b = build_head("byol", 5, rng=7)
        for pa, pb in zip(head_parameters(a), head_parameters(b)):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_bn_starts_as_identity_scale(self):
        head = build_head("byol", 4, rng=0)
        np.testing.assert_array_equal(head.gamma.data, np.ones(4))
        np.testing.assert_array_equal(head.beta.data, np.zeros(4))


class TestForwardModes:
    @pytest.mark.parametrize("kind", ["byol"])
    def test_gradients_reach_every_parameter(self, kind):
        rng = np.random.default_rng(8)
        head = build_head(kind, 4, rng=9)
        x = Tensor(rng.normal(size=(4, 6)))
        with Graph() as g:
            out = head_forward(head, x)
            root = reduce_mean(mul(out, out))
            backward(root, g)
        for p in head_parameters(head):
            assert p.grad is not None and p.grad.shape == p.data.shape

    @pytest.mark.parametrize("kind", ["none", "byol"])
    def test_loss_through_head_gradient(self, kind):
        rng = np.random.default_rng(10)
        head = build_head(kind, 4, rng=11)
        centers = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1, -1, 0])

        def fn(x):
            loss, _ = info_nce(transpose(head_forward(head, x)), labels, centers, tau=0.3)
            return loss

        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert grad_check(fn, x) < 1e-5


class TestChainBatchNormGivesSameBytes:
    """End to end, training and evaluation write the same bytes whether the
    heads run the one-node batch norm and ReLU or the 9-op chain and the
    `relu` node it replaced."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_dataset(
            SynthSpec(height=12, width=12, train_images=16, eval_images=4, regions=4, seed=7)
        )

    @staticmethod
    def outputs(data, head):
        docs = []
        for normalize in (False, True):
            cfg = RunConfig(
                seed=7, iterations=30, hidden_dim=12, feature_dim=8, head=head,
                style_transfer=True, contrastive=True,
                normalize_features=normalize, include_positive=not normalize,
            )
            state, records = train(cfg, data)
            docs.append(metrics_to_csv(records) + eval_to_json(evaluate(state, data.target_eval), cfg))
        return docs

    @pytest.mark.parametrize("head", ["byol"])
    def test_outputs_unchanged(self, data, head, monkeypatch):
        fused = self.outputs(data, head)
        calls = []

        def chain(*args, **kwargs):
            calls.append(args)
            return relu(batch_norm_chain(*args, **kwargs))

        monkeypatch.setattr(heads_module, "batch_norm_relu", chain)
        assert self.outputs(data, head) == fused
        assert calls  # the heads ran the chain


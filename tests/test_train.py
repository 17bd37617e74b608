"""Training loop: determinism, metrics identities, toggles, divergence guard."""

import numpy as np
import pytest

import cfalign.train as train_module
from cfalign.config import RunConfig
from cfalign.data import Dataset, Split, SynthSpec, generate_dataset
from cfalign.errors import DivergenceError
from cfalign.heads import head_parameters
from cfalign.model import model_parameters
from cfalign.train import (
    METRICS_COLUMNS,
    init_state,
    metrics_to_csv,
    train,
    warm_start_banks,
)


@pytest.fixture(scope="module")
def tiny_data():
    spec = SynthSpec(height=12, width=12, train_images=24, eval_images=6, regions=4, seed=5)
    return generate_dataset(spec)


def tiny_config(**overrides):
    base = dict(seed=5, iterations=40, hidden_dim=12, feature_dim=8)
    base.update(overrides)
    return RunConfig(**base)


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tiny_data):
        cfg = tiny_config(contrastive=True, style_transfer=True, iterations=25)
        _, rec_a = train(cfg, tiny_data)
        _, rec_b = train(cfg, tiny_data)
        assert metrics_to_csv(rec_a) == metrics_to_csv(rec_b)

    def test_different_seeds_differ(self, tiny_data):
        _, rec_a = train(tiny_config(seed=1, iterations=5), tiny_data)
        _, rec_b = train(tiny_config(seed=2, iterations=5), tiny_data)
        assert metrics_to_csv(rec_a) != metrics_to_csv(rec_b)

    def test_toggles_share_first_batch(self, tiny_data):
        # batch order comes from its own stream, so iteration 0 sees the same
        # images and the same init regardless of which loss terms are enabled
        _, rec_ent = train(tiny_config(iterations=1), tiny_data)
        _, rec_full = train(tiny_config(iterations=1, contrastive=True), tiny_data)
        assert rec_ent[0].ce == rec_full[0].ce
        assert rec_ent[0].entropy == rec_full[0].entropy


class TestMetrics:
    def test_total_identity_every_row(self, tiny_data):
        cfg = tiny_config(contrastive=True, iterations=30, lambda_ent=0.7, lambda_contra=0.3)
        _, records = train(cfg, tiny_data)
        for r in records:
            assert r.total == pytest.approx(r.ce + 0.7 * r.entropy + 0.3 * r.contra, abs=1e-12)

    def test_csv_shape_and_roundtrip(self, tiny_data):
        _, records = train(tiny_config(iterations=4), tiny_data)
        text = metrics_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 5
        cells = lines[2].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == records[1].ce  # repr round-trips exactly

    def test_diagnostics_in_range(self, tiny_data):
        _, records = train(tiny_config(contrastive=True, iterations=30), tiny_data)
        for r in records:
            assert 0.0 <= r.pseudo_acc <= 1.0
            assert 0.0 <= r.labeled_frac <= 1.0

    def test_disabled_terms_report_zero(self, tiny_data):
        _, records = train(tiny_config(entropy=False, iterations=3), tiny_data)
        assert all(r.entropy == 0.0 and r.contra == 0.0 for r in records)
        assert all(r.total == r.ce for r in records)


class TestProgress:
    def test_ce_decreases(self, tiny_data):
        _, records = train(tiny_config(iterations=300), tiny_data)
        early = np.mean([r.ce for r in records[:20]])
        late = np.mean([r.ce for r in records[-20:]])
        assert late < early

    def test_zero_iterations_keeps_init(self, tiny_data):
        cfg = tiny_config(iterations=0)
        state, records = train(cfg, tiny_data)
        assert records == []
        fresh = init_state(cfg, tiny_data.spec.classes, tiny_data.spec.channels)
        for got, want in zip(state.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(got.data, want.data)

    def test_extreme_learning_rate_saturates_but_stays_finite(self, tiny_data):
        # clamped logs plus a stable softmax keep the total finite even when
        # parameters blow up; the loss pins at -log(eps) instead of NaN
        _, records = train(tiny_config(learning_rate=1e30, iterations=20), tiny_data)
        assert all(np.isfinite(r.total) for r in records)

    def test_divergence_guard(self, tiny_data):
        poisoned = Dataset(
            tiny_data.spec,
            Split(np.full_like(tiny_data.source_train.images, np.nan), tiny_data.source_train.labels),
            tiny_data.target_train,
            tiny_data.target_eval,
        )
        with pytest.raises(DivergenceError, match="iteration 0"):
            train(tiny_config(iterations=5), poisoned)


class TestContrastivePath:
    def test_banks_fill_up(self, tiny_data):
        cfg = tiny_config(contrastive=True, iterations=60)
        state, _ = train(cfg, tiny_data)
        assert state.bank.init_source.all()
        assert state.bank.init_target.any()

    def test_banks_untouched_without_contrastive(self, tiny_data):
        state, _ = train(tiny_config(iterations=10), tiny_data)
        assert not state.bank.init_source.any()
        assert not state.bank.init_target.any()

    def test_warm_start_seeds_all_source_rows(self, tiny_data):
        cfg = tiny_config(contrastive=True, bank_warm_start=True, iterations=0)
        state, _ = train(cfg, tiny_data)
        assert state.bank.init_source.all()
        assert not state.bank.init_target.any()

    def test_warm_start_rows_are_class_means(self, tiny_data):
        cfg = tiny_config(contrastive=True, iterations=0)
        state, _ = train(cfg, tiny_data)
        warm_start_banks(state, tiny_data, chunk=7)
        # chunked accumulation must equal one whole-split pass
        whole = init_state(cfg, tiny_data.spec.classes, tiny_data.spec.channels)
        warm_start_banks(whole, tiny_data, chunk=10_000)
        np.testing.assert_allclose(state.bank.v_source, whole.bank.v_source, atol=1e-12)

    def test_head_parameters_move(self, tiny_data):
        cfg = tiny_config(contrastive=True, head="moco", iterations=40, lambda_contra=0.5)
        state, _ = train(cfg, tiny_data)
        fresh = init_state(cfg, tiny_data.spec.classes, tiny_data.spec.channels)
        moved = [
            not np.array_equal(got.data, want.data)
            for got, want in zip(head_parameters(state.head), head_parameters(fresh.head))
        ]
        assert any(moved)

    def test_batch_norm_heads_run(self, tiny_data):
        for kind in ("byol", "simclr"):
            cfg = tiny_config(contrastive=True, head=kind, iterations=8)
            state, records = train(cfg, tiny_data)
            assert np.isfinite(records[-1].total)
            bn = [l for l in state.head.layers if hasattr(l, "running")][0]
            assert not np.array_equal(bn.running.mean, np.zeros_like(bn.running.mean))


class TestTapeSize:
    """Tape nodes per iteration, counted at the `backward` call the loop makes.

    Each layer is one affine node and each loss one node; a change that
    splits one back into a chain of ops changes these counts.
    """

    @pytest.mark.parametrize(
        "overrides, nodes",
        [
            ({}, 15),
            ({"style_transfer": True, "contrastive": True}, 23),
            ({"style_transfer": True, "contrastive": True, "head": "byol"}, 47),
            ({"style_transfer": True, "contrastive": True, "head": "simclr"}, 65),
        ],
        ids=["ent", "full-none", "full-byol", "full-simclr"],
    )
    def test_nodes_per_iteration(self, tiny_data, monkeypatch, overrides, nodes):
        counts = []
        real = train_module.backward

        def spy(root, graph):
            counts.append(len(graph))
            return real(root, graph)

        monkeypatch.setattr(train_module, "backward", spy)
        train(tiny_config(iterations=5, **overrides), tiny_data)
        assert counts == [nodes] * 5


class TestStyleTransfer:
    def test_transfer_changes_first_loss(self, tiny_data):
        _, plain = train(tiny_config(iterations=1), tiny_data)
        _, styled = train(tiny_config(style_transfer=True, iterations=1), tiny_data)
        assert plain[0].ce != styled[0].ce

    def test_direction_changes_trajectory(self, tiny_data):
        _, s2t = train(tiny_config(style_transfer=True, iterations=5), tiny_data)
        _, t2s = train(
            tiny_config(style_transfer=True, transfer_direction="target_to_source", iterations=5),
            tiny_data,
        )
        assert metrics_to_csv(s2t) != metrics_to_csv(t2s)

    def test_target_to_source_leaves_source_batch_alone(self, tiny_data):
        # source CE at iteration 0 must match the untransferred run exactly
        _, plain = train(tiny_config(iterations=1), tiny_data)
        _, t2s = train(
            tiny_config(style_transfer=True, transfer_direction="target_to_source", iterations=1),
            tiny_data,
        )
        assert plain[0].ce == t2s[0].ce

    def test_model_init_ignores_style_toggle(self, tiny_data):
        a, _ = train(tiny_config(iterations=0), tiny_data)
        b, _ = train(tiny_config(style_transfer=True, iterations=0), tiny_data)
        for got, want in zip(model_parameters(a.model), model_parameters(b.model)):
            np.testing.assert_array_equal(got.data, want.data)

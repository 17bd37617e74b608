"""Training loop: determinism, metrics identities, toggles, divergence guard."""

import cProfile
import gc
import pstats
import tracemalloc
import weakref

import numpy as np
import pytest

import cfalign.train as train_module
from cfalign.adain import adain_transfer
from cfalign.config import RunConfig
from cfalign.data import Dataset, Split, SynthSpec, generate_dataset
from cfalign.errors import DivergenceError
from cfalign.heads import head_parameters
from cfalign.model import model_parameters
from cfalign.tensor import ArrayPool, Tensor
from cfalign.train import METRICS_COLUMNS, MetricsRecord, init_state, metrics_to_csv, train


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
        assert lines[0] == "iteration,ce,entropy,contra,total,pseudo_acc,labeled_frac"
        assert len(lines) == 5
        cells = lines[2].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == records[1].ce  # repr round-trips exactly

    def test_columns_are_the_record_fields(self):
        record = MetricsRecord(3, 0.5, 0.25, np.float64(1.0), 2.0, np.float64(0.75), 0.125)
        assert METRICS_COLUMNS == ("iteration", "ce", "entropy", "contra", "total", "pseudo_acc", "labeled_frac")
        assert record.row() == "3,0.5,0.25,1.0,2.0,0.75,0.125"

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

    def test_extreme_learning_rate_diverges_naming_the_iteration(self, tiny_data):
        # the losses' gradients stay exact as the logits saturate, so the
        # parameters keep growing until a forward pass overflows
        with pytest.raises(DivergenceError, match=r"^iteration \d+ left the finite range"):
            train(tiny_config(learning_rate=1e30, iterations=20), tiny_data)

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

    def test_normalized_exclude_positive_is_bounded(self, tiny_data):
        # With unit features and centers every logit lies in [-1/tau, 1/tau].
        # A term averages -pos/tau + logsumexp(negatives/tau) over rows:
        # -pos/tau >= -1/tau, and a logsumexp is at least its largest entry,
        # >= -1/tau. So each term is >= -2/tau, and contra, a sum of at most
        # four terms, is >= -8/tau. Full weight lets the loss push hardest.
        cfg = tiny_config(contrastive=True, normalize_features=True, include_positive=False,
                          lambda_contra=1.0, iterations=60)
        _, records = train(cfg, tiny_data)
        assert any(r.contra != 0 for r in records)
        assert min(r.contra for r in records) >= -8.0 / cfg.tau

    def test_head_parameters_move(self, tiny_data):
        cfg = tiny_config(contrastive=True, head="byol", iterations=40, lambda_contra=0.5)
        state, _ = train(cfg, tiny_data)
        fresh = init_state(cfg, tiny_data.spec.classes, tiny_data.spec.channels)
        moved = [
            not np.array_equal(got.data, want.data)
            for got, want in zip(head_parameters(state.head), head_parameters(fresh.head))
        ]
        assert any(moved)

    def test_batch_norm_heads_run(self, tiny_data):
        cfg = tiny_config(contrastive=True, head="byol", iterations=8)
        _, records = train(cfg, tiny_data)
        assert np.isfinite(records[-1].total)


TAPE_CONFIGS = [
    {},
    {"style_transfer": True, "contrastive": True},
    {"style_transfer": True, "contrastive": True, "head": "byol"},
]
TAPE_IDS = ["ent", "full-none", "full-byol"]


class TestTapeSize:
    """Tape nodes per iteration, counted at the `backward` call the loop makes.

    Each layer with its activation is one node (the first backbone layer
    with its ReLU, the second without one; the head's first layer, then its
    batch norm with its ReLU, then its second layer), and each loss one
    node; CE and entropy read the classifier's logits, so no softmax node is
    recorded. A change that splits one back into a chain of ops changes
    these counts.
    """

    @pytest.mark.parametrize("overrides, nodes", list(zip(TAPE_CONFIGS, [9, 10, 16])), ids=TAPE_IDS)
    def test_nodes_per_iteration(self, tiny_data, monkeypatch, overrides, nodes):
        counts = []
        real = train_module.backward

        def spy(root, graph):
            counts.append(len(graph))
            return real(root, graph)

        monkeypatch.setattr(train_module, "backward", spy)
        train(tiny_config(iterations=5, **overrides), tiny_data)
        assert counts == [nodes] * 5


class TestCallCount:
    """Python calls per `full` iteration at batch 1, counted by cProfile.

    A call count does not jitter the way a wall clock does, so it catches a
    step that regains per-call bookkeeping. It is ``total_calls`` of a run
    of W + N iterations minus that of a run of W, over N: the W warm-up
    iterations fill the bank, and set-up cancels out.
    """

    WARMUP, ITERATIONS = 2, 10
    # Under pytest on numpy 2.4.6 and Python 3.11, this count was 1,056
    # before the loss total became one node and the bank, AdaIN and InfoNCE
    # bookkeeping dropped their gathers, and 803 after (a plain script
    # counts 12 to 15 more). The bound sits 15% above 803 and 13% below
    # 1,056: room for numpy's own wrappers to change, none for the old
    # bookkeeping to return. Drawing log-softmax's scratch from the pool
    # later brought the count to 815, and giving every pooled array one
    # lifetime (no scratch kept by nodes; the pool reclaims what it lent
    # when the step ends) to 781. Taking each ReLU into the node of the
    # layer it follows (two fewer nodes per step) brought it to 739.
    BOUND = 920

    def test_full_batch_one(self):
        data = generate_dataset(SynthSpec(seed=0, train_images=8, eval_images=2))
        cfg = RunConfig(seed=0, style_transfer=True, contrastive=True)

        def calls(iterations):
            profile = cProfile.Profile()
            profile.enable()
            train(cfg.replace(iterations=iterations), data)
            profile.disable()
            return pstats.Stats(profile).total_calls

        per_iteration = (calls(self.WARMUP + self.ITERATIONS) - calls(self.WARMUP)) / self.ITERATIONS
        assert per_iteration <= self.BOUND, per_iteration


class TestTransientMemory:
    """Bytes a steady-state step of the `full` method allocates above what
    it starts with, by `tracemalloc`, on default-size images: with the
    `byol` head at batch 8, and with no head at batch 1.

    numpy reports its array allocations to `tracemalloc`, so the peak
    counts every temporary array a step makes and does not jitter. Steps 0
    and 1 fill the pool and are not read; from step 2 on, pooled arrays are
    reused and count only when a step draws more of them than before.
    """

    ITERATIONS = 6
    # Under numpy 2.4.6 and Python 3.11, this peak was 7.62 MB per step
    # before batch norm, log-softmax and the InfoNCE feature gradient moved
    # their (8, 8,192) temporaries into pooled buffers or in place, and
    # 3.39 MB after. The bound sits 47% above 3.39 and 34% below 7.62: an
    # (8, 8,192) float64 array is 0.52 MB, so about three such temporaries
    # coming back fail it, while room stays for numpy's own scratch to vary.
    # Reclaiming every pooled array when the step ends, in place of the
    # nodes' scratch handed back during backward, left it at 3.39 MB.
    BOUND = 5.0e6
    # The batch-1 step's peak is 0.365 MB under the same versions. Its bound
    # sits 51% above it, as the batch-8 bound does: a (16, 1,024) float64
    # hidden-width array is 0.13 MB and an (8, 1,024) feature-width one
    # 0.066 MB, so about three feature-width temporaries, or one of each
    # width, coming back fail it.
    BOUND_B1 = 0.55e6

    @classmethod
    def peaks(cls, monkeypatch, images, **overrides):
        """The `tracemalloc` peak of each step of a `full` run."""
        data = generate_dataset(SynthSpec(seed=0, train_images=images, eval_images=2))
        cfg = RunConfig(seed=0, iterations=cls.ITERATIONS, style_transfer=True, contrastive=True, **overrides)
        peaks = []
        real = train_module._step

        def spy(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            record = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return record

        monkeypatch.setattr(train_module, "_step", spy)
        tracemalloc.start()
        try:
            train(cfg, data)
        finally:
            tracemalloc.stop()
        assert len(peaks) == cls.ITERATIONS
        return peaks

    def test_byol_batch_eight(self, monkeypatch):
        peaks = self.peaks(monkeypatch, 8, head="byol", batch_source=8, batch_target=8)
        assert max(peaks[2:]) <= self.BOUND, peaks

    def test_full_batch_one(self, monkeypatch):
        peaks = self.peaks(monkeypatch, 2)
        assert max(peaks[2:]) <= self.BOUND_B1, peaks


def run_bytes(cfg, data):
    state, records = train(cfg, data)
    return metrics_to_csv(records), [p.data.tobytes() for p in state.parameters()]


class TestArrayPool:
    """The one array pool a `train` call recycles its tapes' arrays through."""

    @pytest.mark.parametrize("overrides", TAPE_CONFIGS, ids=TAPE_IDS)
    def test_no_recycled_buffer_is_read(self, tiny_data, monkeypatch, overrides):
        # every array turns to NaN as it is handed back, by `give` during
        # backward or by `reclaim` when the step ends, so a read after that
        # shows as a changed byte or a DivergenceError
        cfg = tiny_config(iterations=5, **overrides)
        want = run_bytes(cfg, tiny_data)
        real_take, real_give, real_reclaim = ArrayPool.take, ArrayPool.give, ArrayPool.reclaim
        lent = {}  # id -> array, mirroring the pool's loans
        given, reclaimed = [], []

        def take(self, shape):
            a = real_take(self, shape)
            lent[id(a)] = a
            return a

        def give(self, a):
            taken = real_give(self, a)
            if taken:
                a.fill(np.nan)
                given.append(lent.pop(id(a)).shape)
            return taken

        def reclaim(self):
            real_reclaim(self)
            for a in lent.values():
                a.fill(np.nan)
                reclaimed.append(a.shape)
            lent.clear()

        monkeypatch.setattr(ArrayPool, "take", take)
        monkeypatch.setattr(ArrayPool, "give", give)
        monkeypatch.setattr(ArrayPool, "reclaim", reclaim)
        assert run_bytes(cfg, tiny_data) == want
        assert len(given) > 0 and len(reclaimed) > 0

    def test_steady_state(self, tiny_data):
        # the second run's contrastive term is a constant 0, so the head's
        # outputs never reach the loss and its nodes run no backward; the
        # pool still takes their scratch back when the step ends
        for unreached_head in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                self.check_steady_state(tiny_data, mp, unreached_head)

    @staticmethod
    def check_steady_state(tiny_data, monkeypatch, unreached_head):
        pools, misses, held, lent = [], [], [], []
        real = train_module._step

        def spy(state, params, pool, *args):
            record = real(state, params, pool, *args)
            pools.append((id(pool), weakref.ref(pool)))
            misses.append(pool.misses)
            held.append(pool.held)
            lent.append(pool.lent)
            return record

        monkeypatch.setattr(train_module, "_step", spy)
        if unreached_head:
            monkeypatch.setattr(train_module, "contrastive_combined", lambda *args, **kwargs: Tensor(0.0))
        cfg = tiny_config(iterations=10, style_transfer=True, contrastive=True, head="byol",
                          batch_source=2, batch_target=2)
        state, records = train(cfg, tiny_data)
        assert all((r.contra == 0.0) == unreached_head for r in records[1:])
        assert misses[1] > 0
        assert misses[2:] == [misses[1]] * 8  # every take after the second step is served
        assert held[2:] == [held[1]] * 8  # and every array comes back
        assert lent == [0] * 10
        assert len({pool_id for pool_id, _ in pools}) == 1
        gc.collect()
        assert pools[0][1]() is None  # nothing `train` returned holds the pool
        assert all(p.grad is None for p in state.parameters())


class TestStyleTransfer:
    def test_transfer_changes_first_loss(self, tiny_data):
        _, plain = train(tiny_config(iterations=1), tiny_data)
        _, styled = train(tiny_config(style_transfer=True, iterations=1), tiny_data)
        assert plain[0].ce != styled[0].ce
        assert plain[0].entropy == styled[0].entropy  # the target batch is never restyled

    def test_model_init_ignores_style_toggle(self, tiny_data):
        a, _ = train(tiny_config(iterations=0), tiny_data)
        b, _ = train(tiny_config(style_transfer=True, iterations=0), tiny_data)
        for got, want in zip(model_parameters(a.model), model_parameters(b.model)):
            np.testing.assert_array_equal(got.data, want.data)


class TestWholeStepGradient:
    """`backward` of one whole training step against central differences of
    the same step's total objective, on every parameter.

    The step is `_step` itself: backbone and classifier for both domains, CE
    and entropy, the head with its batch norm, the four InfoNCE terms,
    fan-out from the backbone into all of them, and the pool. A few loop
    iterations first fill the bank. One iteration's pseudo-labels and bank
    rows are frozen as constants, so the total is a smooth function of the
    parameters. Both loss weights are 1, so every term's gradient counts at
    the tolerance.
    """

    H = 1e-6
    ENTRIES = 8  # sampled from a tensor with more entries than this

    @pytest.fixture(scope="class")
    def data(self):
        return generate_dataset(SynthSpec(height=4, width=4, classes=3, train_images=6,
                                          eval_images=1, regions=3, seed=3))

    WARM_UP = 3  # loop iterations that fill the bank before the checked step

    @pytest.mark.parametrize("head, extra", [
        ("none", {}),
        ("byol", {}),
        ("byol", {"normalize_features": True, "include_positive": False}),
    ], ids=["none", "byol", "byol-normalize-nopos"])
    def test_backward_matches_central_differences(self, data, head, extra, monkeypatch):
        cfg = RunConfig(seed=3, iterations=self.WARM_UP, hidden_dim=4, feature_dim=3, head=head,
                        batch_source=2, batch_target=2, lambda_ent=1.0, lambda_contra=1.0,
                        style_transfer=True, contrastive=True, **extra)
        state, _ = train(cfg, data)  # init, frozen style statistics, a populated bank
        params = state.parameters()
        img_s, lab_s = data.source_train.images[:2], data.source_train.labels[:2].reshape(-1)
        img_t, diag_t = data.target_train.images[:2], data.target_train.labels[:2].reshape(-1)
        img_s = adain_transfer(img_s, state.style)

        frozen = []
        real_update = train_module._update_bank_and_label

        def update_once(*args):
            if not frozen:
                frozen.append(real_update(*args))
            return frozen[0]

        seen = {}
        real_backward = train_module.backward

        def spy(root, graph):
            seen["total"] = root.item()
            if seen.pop("want_grads", False):
                real_backward(root, graph)
                seen["grads"] = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                                 for p in params]

        monkeypatch.setattr(train_module, "_update_bank_and_label", update_once)
        monkeypatch.setattr(train_module, "backward", spy)
        pool = ArrayPool()

        def total(want_grads=False):
            # without `want_grads` no gradient exists, so the step leaves the
            # parameters alone; with it, they are put back after the step
            seen["want_grads"] = want_grads
            before = [p.data.copy() for p in params]
            with np.errstate(over="raise", invalid="raise"):
                record = train_module._step(state, params, pool, img_s, lab_s, img_t, diag_t, 0)
            for p, b in zip(params, before):
                p.data[...] = b
            return record, seen["total"]

        record, _ = total(want_grads=True)
        assert record.contra != 0 and record.labeled_frac > 0
        assert state.bank.init_source.all() and state.bank.init_target.any()
        rng = np.random.default_rng(4)
        for p, analytic in zip(params, seen["grads"]):
            flat = p.data.reshape(-1)
            assert np.shares_memory(flat, p.data)  # the steps below see each nudge
            picks = range(flat.size) if flat.size <= self.ENTRIES else rng.choice(
                flat.size, self.ENTRIES, replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + self.H
                plus = total()[1]
                flat[i] = orig - self.H
                minus = total()[1]
                flat[i] = orig
                numeric = (plus - minus) / (2 * self.H)
                a = analytic.reshape(-1)[i]
                assert abs(a - numeric) <= 1e-6 * max(1.0, abs(a), abs(numeric)), (p.shape, i, a, numeric)

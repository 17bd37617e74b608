"""Autodiff core: forward values against oracles, gradients against finite differences."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from cfalign.errors import ContractError, DimensionError
from cfalign.losses import cross_entropy, entropy_from_logits, info_nce
from cfalign.tensor import (
    EPS,
    ArrayPool,
    Graph,
    Tensor,
    affine,
    backward,
    batch_norm_relu,
    grad_check,
    read_container,
    transpose,
    write_container,
    zero_grads,
)
from chain_ops import (
    add,
    batch_norm_chain,
    chain_affine,
    div,
    exp,
    log,
    matmul,
    mul,
    pick,
    reduce_mean,
    reduce_sum,
    relu,
    scale,
    softmax,
    sqrt,
    take_rows,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference, no BLAS."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def numeric_grad(fn, x: Tensor, h: float = 1e-6) -> np.ndarray:
    """Independent central-difference gradient, forward-only evaluations."""
    flat = x.data.ravel()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x).item()
        flat[i] = orig - h
        fm = fn(x).item()
        flat[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g.reshape(x.data.shape)


_FIXED_W = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
_FIXED_ROW = np.array([0.5, -1.0, 2.0])


def analytic_grad(fn, x: Tensor) -> np.ndarray:
    x.grad = None
    with Graph() as g:
        y = fn(x)
        backward(y, g)
    out = x.grad.copy()
    x.grad = None
    return out


class TestForward:
    def test_matmul_known(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, k, m = rng.integers(1, 9, size=3)
            a = rng.integers(-5, 6, size=(n, k)).astype(np.float64)
            b = rng.integers(-5, 6, size=(k, m)).astype(np.float64)
            np.testing.assert_array_equal(matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b))

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(matmul(Tensor(a), Tensor(np.eye(4))).data, a)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_softmax_known(self):
        p = softmax(Tensor([np.log(2.0), 0.0]))
        np.testing.assert_allclose(p.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        # softmax runs over the leading axis: here 7 classes of 5 pixels
        x = Tensor(rng.normal(scale=50.0, size=(7, 5)))
        p = softmax(x)
        np.testing.assert_allclose(p.data.sum(axis=0), np.ones(5), atol=1e-12)
        assert (p.data >= 0).all()

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_last_axis_of_3d(self):
        # the leading axis of a 3-d array against numpy's last-axis form
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 5))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        lead = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        assert np.array_equal(softmax(Tensor(lead)).data, np.moveaxis(e / e.sum(axis=-1, keepdims=True), -1, 0))
        w = Tensor(rng.normal(size=lead.shape))
        assert grad_check(lambda z: reduce_sum(mul(softmax(z), w)), Tensor(lead, requires_grad=True)) < 1e-8

    def test_log_clamps_at_zero(self):
        y = log(Tensor([0.0, 1.0]))
        np.testing.assert_allclose(y.data, [np.log(EPS), 0.0])

    def test_div_guards_zero_denominator(self):
        y = div(Tensor([1.0]), Tensor([0.0]))
        assert np.isfinite(y.data).all()

    def test_elementwise_broadcast(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.arange(4.0))
        np.testing.assert_array_equal(add(a, b).data, np.ones((3, 4)) + np.arange(4.0))
        np.testing.assert_array_equal(mul(a, b).data, np.ones((3, 4)) * np.arange(4.0))

    def test_float64_everywhere(self):
        x = Tensor(np.array([1, 2], dtype=np.int32))
        assert x.data.dtype == np.float64
        assert add(x, 1).data.dtype == np.float64


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Graph() as g:
            root = reduce_sum(mul(x, x))
            backward(root, g)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)

    def test_constant_branch_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 5.0])
        with Graph() as g:
            root = reduce_sum(mul(x, c))
            backward(root, g)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_fanout_accumulates(self):
        # x feeds two branches; gradients must add
        x = Tensor([1.0, -2.0], requires_grad=True)
        with Graph() as g:
            root = add(reduce_sum(scale(x, 3.0)), reduce_sum(mul(x, x)))
            backward(root, g)
        np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data)

    def test_same_tensor_used_twice_in_one_node(self):
        x = Tensor([3.0], requires_grad=True)
        with Graph() as g:
            root = reduce_sum(mul(x, x))
            backward(root, g)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph_visits_nodes_once(self):
        # s = x*x reused twice: d(s+s)/dx = 4x; double-visiting a node would inflate it
        x = Tensor([2.0], requires_grad=True)
        with Graph() as g:
            s = mul(x, x)
            root = reduce_sum(add(s, s))
            backward(root, g)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_insertion_order_is_topological(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Graph() as g:
            y = relu(scale(x, 2.0))
            reduce_sum(mul(y, y))
        produced = set()
        for node in g.nodes:
            for t in node.inputs:
                assert t is not node.output
                if t.requires_grad:
                    assert id(t) in produced or t is x
            produced.add(id(node.output))

    def test_no_graph_records_nothing(self):
        g = Graph()
        x = Tensor([1.0], requires_grad=True)
        mul(x, x)  # no active graph
        assert len(g) == 0

    def test_backward_requires_scalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            y = mul(x, x)
            with pytest.raises(ContractError):
                backward(y, g)

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Graph() as g:
            backward(reduce_mean(exp(x)), g)
        assert x.grad.shape == x.data.shape

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("relu", lambda x: reduce_sum(relu(x))),
            ("exp", lambda x: reduce_sum(exp(x))),
            ("log_shifted", lambda x: reduce_sum(log(add(mul(x, x), 0.5)))),
            ("sqrt_shifted", lambda x: reduce_sum(sqrt(add(mul(x, x), 0.5)))),
            ("softmax_pick", lambda x: reduce_mean(mul(softmax(x), softmax(x)))),
            ("div", lambda x: reduce_sum(div(x, add(mul(x, x), 1.0)))),
            ("mean_axis", lambda x: reduce_sum(mul(reduce_mean(x, axis=0), [1.0, -2.0, 0.5]))),
            ("sum_keepdims", lambda x: reduce_sum(mul(x, reduce_sum(x, axis=1, keepdims=True)))),
            ("matmul", lambda x: reduce_sum(matmul(x, _FIXED_W))),
            ("broadcast_row", lambda x: reduce_sum(mul(x, _FIXED_ROW))),
        ],
    )
    def test_op_gradients_against_finite_differences(self, name, fn):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True)
        ga = analytic_grad(fn, x)
        gn = numeric_grad(fn, x)
        np.testing.assert_allclose(ga, gn, rtol=1e-5, atol=1e-7)

    def test_relu_propagates_nan(self):
        # a comparison-based relu would flush NaN to 0 and hide bad inputs
        # from the divergence guard downstream; both layers that end in one
        # keep it. Pre-activations: NaN, -1 and 2
        out = affine(Tensor([[np.nan, -1.0, 2.0]]), Tensor([[1.0]]), Tensor([0.0]), relu=True)
        assert np.isnan(out.data[0, 0])
        np.testing.assert_array_equal(out.data[0, 1:], [0.0, 2.0])
        # batch norm over [NaN, ...] is NaN in the whole row; [-1, 1] stays
        # [-1, 1], which the ReLU takes to [0, 1]
        out = batch_norm_relu(Tensor([[np.nan, 0.0], [-1.0, 1.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0)
        assert np.isnan(out.data[0]).all()
        np.testing.assert_array_equal(out.data[1], [0.0, 1.0])

    def test_take_rows_gradient_accumulates_repeats(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 0, 2])
        with Graph() as g:
            backward(reduce_sum(take_rows(x, idx)), g)
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_pick_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        cols = np.array([1, 2])
        with Graph() as g:
            backward(reduce_sum(pick(x, cols)), g)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def run_layers(lin, build, arrays, const=()):
    """Output, per-input gradients and tape length of `build(lin, tensors)`
    under a non-uniform upstream gradient (sum of squares)."""
    tensors = {k: Tensor(v.copy(), requires_grad=k not in const) for k, v in arrays.items()}
    with Graph() as g:
        out = build(lin, tensors)
        backward(reduce_sum(mul(out, out)), g)
    return out.data, {k: t.grad for k, t in tensors.items()}, len(g)


class TestAffine:
    """The fused affine node over (k, n) inputs against
    add(matmul(transpose(w), x), column(b)), bit for bit."""

    def check(self, build, arrays, const=()):
        got, got_grads, nodes = run_layers(affine, build, arrays, const)
        want, want_grads, chain_nodes = run_layers(chain_affine, build, arrays, const)
        assert np.array_equal(got, want)
        for name, grad in want_grads.items():
            if grad is None:
                assert got_grads[name] is None
            else:
                assert np.array_equal(got_grads[name], grad), name
        return nodes, chain_nodes

    def draw(self, rng, **shapes):
        return {k: rng.normal(size=s) * rng.uniform(0.1, 10.0) for k, s in shapes.items()}

    def test_one_layer(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n, k, m = (int(v) for v in rng.integers(1, 9, size=3))
            arrays = self.draw(rng, x=(k, n), w=(k, m), b=(m,))
            nodes, chain_nodes = self.check(lambda lin, t: lin(t["x"], t["w"], t["b"]), arrays)
            # affine vs transpose, matmul, column, add; then mul, sum
            assert (nodes, chain_nodes) == (3, 6)

    def test_constant_input(self):
        rng = np.random.default_rng(61)
        arrays = self.draw(rng, x=(3, 7), w=(3, 4), b=(4,))
        self.check(lambda lin, t: lin(t["x"], t["w"], t["b"]), arrays, const=("x",))

    def test_weight_shared_by_two_calls(self):
        # w receives two accumulations; their order must be the chain's
        rng = np.random.default_rng(62)
        for _ in range(10):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            arrays = self.draw(rng, x=(d, n), w=(d, d), b1=(d,), b2=(d,))

            def build(lin, t):
                return lin(relu(lin(t["x"], t["w"], t["b1"])), t["w"], t["b2"])

            self.check(build, arrays)

    def test_weight_gradient_rule(self):
        # the node takes w's gradient as x @ g.T, the chain, through its
        # matmul and transpose nodes, as (g @ x.T).T; on every shape drawn
        # above they round alike
        rng = np.random.default_rng(63)
        for _ in range(200):
            n, k, m = (int(v) for v in rng.integers(1, 9, size=3))
            t = self.draw(rng, x=(k, n), g=(m, n))
            assert np.array_equal(t["x"] @ t["g"].T, (t["g"] @ t["x"].T).T), (n, k, m)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))


class TestArrayPool:
    def test_takes_back_only_what_it_lent(self):
        pool = ArrayPool()
        a = pool.take((3, 2))
        assert (a.shape, pool.misses, pool.held) == ((3, 2), 1, 0)
        assert not pool.give(np.empty((3, 2)))
        assert not pool.give(a[:1])  # a view is another object
        assert pool.give(a) and not pool.give(a)
        assert pool.held == 1
        assert pool.take((3, 2)) is a and pool.misses == 1
        assert pool.take((2, 3)) is not a and pool.misses == 2

    def test_reclaim_takes_back_every_lent_array_and_only_those(self):
        pool = ArrayPool()
        a, b, c = pool.take((3, 2)), pool.take((3, 2)), pool.take((4,))
        assert pool.give(b)
        pool.reclaim()
        # the three arrays it lent, b once though it was given back before
        assert (pool.lent, pool.held, pool.misses) == (0, 3, 3)
        assert not pool.give(a) and not pool.give(c)
        assert {id(pool.take((3, 2))), id(pool.take((3, 2)))} == {id(a), id(b)}
        assert pool.take((4,)) is c and pool.misses == 3
        assert pool.take((4,)) is not c and pool.misses == 4
        pool.reclaim()
        assert (pool.lent, pool.held) == (0, 4)
        pool.reclaim()  # with nothing lent, nothing changes
        assert (pool.lent, pool.held, pool.misses) == (0, 4, 4)

    def test_pooled_backward_matches_and_recycles(self):
        # fan-out: `add` hands one gradient to both uses of `hidden`, and the
        # logits feed both cross-entropy and info_nce, so adopted scratch,
        # incoming gradients and accumulated sums all meet at the same inputs
        rng = np.random.default_rng(70)
        shapes = {"x": (3, 6), "w1": (3, 4), "b1": (4,), "w2": (4, 5), "b2": (5,)}
        arrays = {k: rng.normal(size=s) for k, s in shapes.items()}
        labels = np.arange(6) % 5
        centers = rng.normal(size=(5, 5))

        def run(pool):
            t = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
            with Graph(pool=pool) as g:
                hidden = affine(t["x"], t["w1"], t["b1"], relu=True)
                logits = affine(add(hidden, hidden), t["w2"], t["b2"])
                nce, _ = info_nce(transpose(logits), labels, centers)
                backward(add(cross_entropy(logits, labels), nce), g)
            # no two tensors share a gradient array
            tensors = {id(x): x for node in g.nodes for x in (*node.inputs, node.output)}
            grads = [x.grad for x in tensors.values() if x.grad is not None]
            assert len({id(a) for a in grads}) == len(grads)
            return t, g

        want, _ = run(None)
        pool = ArrayPool()
        for step in range(3):
            got, g = run(pool)
            for k in shapes:
                assert got[k].grad.tobytes() == want[k].grad.tobytes()
            # intermediates went back as backward passed them; the root did not
            assert all(node.output.grad is None for node in g.nodes[:-1])
            zero_grads(got.values())
            pool.reclaim()
            assert pool.lent == 0
            if step == 0:
                first = (pool.misses, pool.held)
        assert (pool.misses, pool.held) == first  # later steps reuse every array

    def test_unreached_node_returns_its_scratch(self):
        # the root depends on none of the batch norm and the two losses, so
        # their backwards never run; the scratch their forwards drew still
        # goes back to the pool when it reclaims what it lent
        rng = np.random.default_rng(71)
        pool = ArrayPool()
        for step in range(3):
            leaves = [Tensor(rng.normal(size=(3, 6)), requires_grad=True),
                      Tensor(rng.normal(size=3), requires_grad=True),
                      Tensor(rng.normal(size=3), requires_grad=True),
                      Tensor(np.ones(()), requires_grad=True)]
            with Graph(pool=pool) as g:
                hidden = batch_norm_relu(*leaves[:3])
                losses = [cross_entropy(hidden, np.arange(6) % 3), entropy_from_logits(hidden)]
                root = add(leaves[3], 1.0)
                backward(root, g)
            assert len(g) == 4
            assert all(t.grad is None for t in [hidden, leaves[0], *losses])
            # the two scratch arrays of each of the three nodes, and the gradient
            # of the leaf the root depends on
            assert pool.lent == 7
            zero_grads(leaves)
            pool.reclaim()
            assert pool.lent == 0  # nothing stays lent
            if step == 0:
                first = (pool.misses, pool.held)
            assert (pool.misses, pool.held) == first

    def test_pooled_root_is_kept(self):
        pool = ArrayPool()
        x = Tensor(np.ones((2, 1)), requires_grad=True)
        with Graph(pool=pool) as g:
            root = affine(relu(x), Tensor(np.full((2, 1), 3.0)), Tensor(np.zeros(1)))
            backward(root, g)
        assert root.item() == 6.0
        assert pool.give(root.data)  # still lent: backward did not take it back


class TestBatchNorm:
    """Batch norm and its ReLU; a shift by `beta` keeps the normalized
    values above 0, where the ReLU passes them unchanged."""

    def test_unit_normalization(self):
        x = Tensor([[1.0, 3.0]])
        gamma, beta = Tensor([1.0]), Tensor([0.0])
        y = batch_norm_relu(x, gamma, beta, eps=1e-12)
        np.testing.assert_allclose(y.data, [[0.0, 1.0]], atol=1e-6)  # -1 clipped to 0
        y = batch_norm_relu(x, gamma, Tensor([1.5]), eps=1e-12)
        np.testing.assert_allclose(y.data, [[0.5, 2.5]], atol=1e-6)

    def test_affine_output(self):
        x = Tensor([[1.0, 3.0]])
        y = batch_norm_relu(x, Tensor([2.0]), Tensor([2.5]), eps=1e-12)
        np.testing.assert_allclose(y.data, [[0.5, 4.5]], atol=1e-6)

    def test_population_variance(self):
        # batch [0, 2]: mean 1, population var 1 (not the sample var 2)
        x = Tensor([[0.0, 2.0]])
        y = batch_norm_relu(x, Tensor([1.0]), Tensor([1.5]), eps=0.0)
        np.testing.assert_allclose(y.data.ravel(), [0.5, 2.5], atol=1e-12)

    def test_train_mode_gradient(self):
        rng = np.random.default_rng(7)
        gamma = Tensor(rng.normal(size=4) + 1.0)
        beta = Tensor(rng.normal(size=4))

        def fn(x):
            return reduce_mean(mul(batch_norm_relu(x, gamma, beta), (np.arange(4.0) - 1.5)[:, None]))

        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        np.testing.assert_allclose(analytic_grad(fn, x), numeric_grad(fn, x), rtol=1e-4, atol=1e-8)


def same_bits(a, b) -> bool:
    """Equal shape and bytes: unlike np.array_equal, tells -0.0 from 0.0."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def batch_norm_relu_chain(x, gamma, beta, eps=1e-5):
    return relu(batch_norm_chain(x, gamma, beta, eps=eps))


class TestBatchNormMatchesChain:
    """The one-node batch norm and ReLU against `batch_norm_chain` and
    `relu`, bit for bit: output, gradients, signed zeros included. Cases
    are drawn as (n, d) rows and run feature-major, as (d, n)."""

    @staticmethod
    def draw(rng, n, d):
        scale = 10.0 ** rng.uniform(-6, 6)
        x = (rng.normal(size=(n, d)) + rng.normal(size=d) * rng.uniform(0, 5)) * scale
        flat = rng.random(d) < 0.2  # constant columns meet the EPS guard
        x[:, flat] = rng.normal(size=int(flat.sum())) * scale
        ternary = rng.random(d) < 0.2  # exact means, so centered values hit 0
        x[:, ternary] = rng.integers(-1, 2, size=(n, int(ternary.sum()))) * scale
        gamma = rng.normal(size=d)
        gamma[rng.random(d) < 0.1] = rng.choice([0.0, -0.0])
        upstream = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        upstream[rng.random((n, d)) < 0.2] = -0.0
        upstream[:, rng.random(d) < 0.2] = -0.0
        upstream[:, rng.random(d) < 0.1] = 0.0
        case = {
            "x": x, "gamma": gamma, "beta": rng.normal(size=d), "upstream": upstream,
            "eps": float(rng.choice([0.0, 1e-5, 1e-3])),
        }
        for k in ("x", "gamma", "beta"):  # a gradient already there from later nodes
            grad = None
            if rng.random() < 0.3:
                grad = rng.normal(size=case[k].shape)
                grad[rng.random(grad.shape) < 0.5] = -0.0
            case[k + "_grad"] = grad
        for k in ("x", "upstream", "x_grad"):
            if case[k] is not None:
                case[k] = np.ascontiguousarray(case[k].T)
        return case

    @staticmethod
    def run(bn, case, trainable=("x", "gamma", "beta")):
        """Everything `bn` leaves behind, with `case["upstream"]` seeded as the
        output's gradient and the tape replayed in reverse."""
        leaves = {}
        for k in ("x", "gamma", "beta"):
            leaves[k] = Tensor(case[k].copy(), requires_grad=k in trainable)
            if k in trainable and case[k + "_grad"] is not None:
                leaves[k].grad = case[k + "_grad"].copy()
        x, gamma, beta = leaves.values()
        with Graph() as g:
            out = bn(x, gamma, beta, eps=case["eps"])
        out.grad = case["upstream"].copy()
        for node in reversed(g.nodes):
            if node.output.grad is not None:
                node.backward(node.output.grad)
        kept = (out.data, x.grad, gamma.grad, beta.grad)
        return kept, [node.tag for node in g.nodes]

    def check(self, case, trainable=("x", "gamma", "beta")):
        got, tags = self.run(batch_norm_relu, case, trainable)
        want, chain_tags = self.run(batch_norm_relu_chain, case, trainable)
        for name, a, b in zip(("out", "x", "gamma", "beta"), got, want):
            assert same_bits(a, b), name
        return tags, chain_tags

    def test_training_grid(self):
        rng = np.random.default_rng(70)
        subsets = [("x", "gamma", "beta"), ("x",), ("x", "beta"), ("gamma", "beta"), ("beta",)]
        for i in range(1500):
            n = 1 if i % 10 == 0 else int(rng.integers(1, 301))
            trainable = subsets[i % len(subsets)]
            tags, chain_tags = self.check(self.draw(rng, n, int(rng.integers(1, 21))), trainable)
            assert tags == ["batch_norm"]
            if "x" in trainable:
                chain_ops = [tag for tag in chain_tags if tag != "column"]
                assert chain_ops == ["mean", "sub", "mul", "mean", "add", "sqrt", "div", "mul", "add", "relu"]


def batch_norm_inputs(rng, case):
    """x (d, n), gamma, beta and an upstream gradient for one named case."""
    d, n = {"one-pixel": (4, 1), "one-feature": (1, 9)}.get(case, (5, 7))
    x = rng.normal(size=(d, n)) * 10.0 ** rng.uniform(-3, 3)
    gamma, beta = rng.normal(size=d), rng.normal(size=d)
    upstream = rng.normal(size=(d, n))
    if case == "signed-zero-grads":
        upstream[rng.random((d, n)) < 0.5] = -0.0
        upstream[rng.random((d, n)) < 0.3] = 0.0
        upstream[0] = -0.0
    if case == "gamma-zero-negative":
        gamma[:3] = [0.0, -0.0, -abs(gamma[2])]
        gamma[3:] = -np.abs(gamma[3:])
    if case == "constant-rows":  # v = 0: the eps and EPS guards decide
        x[::2] = rng.normal(size=(len(x[::2]), 1))
        x[1] = 0.0
    return x, gamma, beta, upstream


class TestBatchNormMatchesFresh:
    """The batch norm and ReLU that work in pooled buffers and in place
    against `batch_norm_relu_chain`, run on fresh arrays, bit for bit
    (signed zeros included) on the named cases where signs and guards
    decide. The node runs under one pool for all trials, as training runs
    it, so every trial after the first reuses dirty buffers."""

    CASES = ["random", "signed-zero-grads", "gamma-zero-negative", "one-pixel", "one-feature", "constant-rows"]

    @staticmethod
    def run(bn, inputs, trainable, pool, eps):
        leaves = [Tensor(a.copy(), requires_grad=k in trainable) for k, a in zip(("x", "gamma", "beta"), inputs)]
        with Graph(pool=pool) as g:
            out = bn(*leaves, eps=eps)
            out.grad = inputs[3].copy()
            for node in reversed(g.nodes):
                if node.output.grad is not None:
                    node.backward(node.output.grad)
        kept = [a if a is None else a.copy() for a in [out.data] + [t.grad for t in leaves]]
        if pool is not None:
            zero_grads(leaves)
            pool.reclaim()
        return kept

    @pytest.mark.parametrize("trainable", [("x", "gamma", "beta"), ("gamma", "beta"), ("x",)],
                             ids=["all", "no-x-grad", "x-only"])
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise(self, case, trainable):
        rng = np.random.default_rng([72, self.CASES.index(case)])
        pool = ArrayPool()
        for trial in range(20):
            inputs = batch_norm_inputs(rng, case)
            eps = (0.0, 1e-5)[trial % 2]
            got = self.run(batch_norm_relu, inputs, trainable, pool, eps)
            want = self.run(batch_norm_relu_chain, inputs, trainable, None, eps)
            for name, a, b in zip(("out", "x", "gamma", "beta"), got, want):
                assert same_bits(a, b), (name, trial)
        assert pool.lent == 0


class NaNPool(ArrayPool):
    """A pool that fills every array it lends with NaN, so a node that reads
    a buffer before writing it shows as NaN in what it returns."""

    def take(self, shape):
        a = super().take(shape)
        a.fill(np.nan)
        return a


class TestFusedReluMatchesChain:
    """The layers that end in a ReLU against their chain followed by
    `chain_ops.relu`, bit for bit: output and every input gradient, sign
    bits and NaNs included. The fused node runs under a `NaNPool` shared by
    all trials, the chain with fresh arrays. Upstream gradients hold -0.0,
    +0.0 and NaN, and some inputs start with a gradient from later nodes.

    Pre-activations cover +0.0, negative values and NaN; batch norm's also
    cover -0.0 (a zero row times a negative gamma, shifted by a -0.0 beta).
    The affine's cannot be -0.0: its product sums from +0.0, and adding the
    bias to a +0.0 gives +0.0."""

    @staticmethod
    def run(op, arrays, upstream, trainable, grads, pool=None):
        """Output, leaf gradients and node tags of `op(*leaves)`, with
        `upstream` seeded as the output's gradient and the tape replayed in
        reverse."""
        leaves = [Tensor(a.copy(), requires_grad=i in trainable) for i, a in enumerate(arrays)]
        for t, grad in zip(leaves, grads):
            if t.requires_grad and grad is not None:
                t.grad = grad.copy()
        with Graph(pool=pool) as g:
            out = op(*leaves)
        out.grad = upstream.copy()
        for node in reversed(g.nodes):
            if node.output.grad is not None:
                node.backward(node.output.grad)
        kept = [out.data.copy()] + [None if t.grad is None else t.grad.copy() for t in leaves]
        if pool is not None:
            pool.reclaim()
        return kept, [node.tag for node in g.nodes]

    @staticmethod
    def upstream_and_grads(rng, out_shape, arrays, trainable):
        upstream = rng.normal(size=out_shape)
        upstream[rng.random(out_shape) < 0.2] = -0.0
        upstream[rng.random(out_shape) < 0.1] = 0.0
        upstream[rng.random(out_shape) < 0.05] = np.nan
        grads = []
        for i, a in enumerate(arrays):
            grad = None
            if i in trainable and rng.random() < 0.3:
                grad = rng.normal(size=a.shape)
                grad[rng.random(a.shape) < 0.5] = -0.0
            grads.append(grad)
        return upstream, grads

    @staticmethod
    def kinds(pre):
        """The pre-activation kinds present: +0.0, -0.0, negative, NaN."""
        zero = pre == 0
        return {
            "+0.0": bool((zero & ~np.signbit(pre)).any()),
            "-0.0": bool((zero & np.signbit(pre)).any()),
            "negative": bool((pre < 0).any()),
            "nan": bool(np.isnan(pre).any()),
        }

    def check(self, fused, chain, arrays, upstream, trainable, grads, pool):
        got, tags = self.run(fused, arrays, upstream, trainable, grads, pool)
        want, chain_tags = self.run(chain, arrays, upstream, trainable, grads)
        for name, a, b in zip(("out", "0", "1", "2"), got, want):
            assert same_bits(a, b), name
        assert len(tags) == 1 and chain_tags[-1] == "relu"
        return tags[0]

    def test_affine(self):
        rng = np.random.default_rng(80)
        pool, seen = NaNPool(), set()
        subsets = [(0, 1, 2), (1, 2), (0,), (2,)]
        for i in range(400):
            k, m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 13))
            if i % 2:  # small integers: exact sums, so many pre-activations are exactly 0
                x = rng.integers(-2, 3, size=(k, n)).astype(float)
                w = rng.integers(-2, 3, size=(k, m)).astype(float)
                b = rng.integers(-3, 4, size=m).astype(float)
            else:
                x, w, b = rng.normal(size=(k, n)), rng.normal(size=(k, m)), rng.normal(size=m)
            zero = rng.random(m) < 0.3  # a zero weight column: the pre-activation is the bias
            w[:, zero] = 0.0
            b[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
            if rng.random() < 0.2:
                x[:, rng.integers(n)] = np.nan
            if rng.random() < 0.1:
                b[rng.integers(m)] = np.nan
            trainable = subsets[i % len(subsets)]
            upstream, grads = self.upstream_and_grads(rng, (m, n), (x, w, b), trainable)
            tag = self.check(
                lambda *t: affine(*t, relu=True), lambda *t: relu(chain_affine(*t)),
                (x, w, b), upstream, trainable, grads, pool,
            )
            assert tag == "affine"
            seen |= {kind for kind, present in self.kinds(w.T @ x + b[:, None]).items() if present}
        assert seen == {"+0.0", "negative", "nan"}

    def test_batch_norm(self):
        rng = np.random.default_rng(81)
        pool, seen = NaNPool(), set()
        subsets = [("x", "gamma", "beta"), ("x",), ("gamma", "beta"), ("beta",)]
        for i in range(400):
            d = int(rng.integers(3, 13))
            case = TestBatchNormMatchesChain.draw(rng, int(rng.integers(1, 40)), d)
            x, gamma, beta = case["x"], case["gamma"], case["beta"]
            rows = rng.permutation(d)
            x[rows[0]] = 0.0  # a zero row: +0.0 or -0.0 by the signs of gamma and beta
            gamma[rows[0]], beta[rows[0]] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), rng.choice([0.0, -0.0])
            if rng.random() < 0.3:
                x[rows[1], rng.integers(x.shape[1])] = np.nan
            names = subsets[i % len(subsets)]
            trainable = tuple(j for j, name in enumerate(("x", "gamma", "beta")) if name in names)
            grads = [case[name + "_grad"] for name in ("x", "gamma", "beta")]
            upstream, eps = case["upstream"], case["eps"]
            upstream[rng.random(upstream.shape) < 0.05] = np.nan
            tag = self.check(
                lambda *t: batch_norm_relu(*t, eps=eps), lambda *t: batch_norm_relu_chain(*t, eps=eps),
                (x, gamma, beta), upstream, trainable, grads, pool,
            )
            assert tag == "batch_norm"
            pre = batch_norm_chain(Tensor(x), Tensor(gamma), Tensor(beta), eps=eps).data
            seen |= {kind for kind, present in self.kinds(pre).items() if present}
        assert seen == {"+0.0", "-0.0", "negative", "nan"}


class TestGradCheck:
    def test_quadratic_passes(self):
        x = Tensor([0.5, -1.5, 2.0], requires_grad=True)
        err = grad_check(lambda t: reduce_sum(mul(t, t)), x)
        assert err < 1e-6

    def test_linear_is_nearly_exact(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda t: reduce_sum(scale(t, 3.0)), x)
        assert err < 1e-10

    def test_injected_fault_detected(self):
        # the analytic pass (first call, under a graph) sees slope 2.2, the
        # numeric probes see slope 2.0: relative error 0.2/2.2 > 0.05
        calls = []

        def faulty(t):
            calls.append(1)
            c = 2.2 if len(calls) == 1 else 2.0
            return reduce_sum(scale(t, c))

        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        assert grad_check(faulty, x) > 0.05

    def test_requires_grad_enforced(self):
        with pytest.raises(ContractError):
            grad_check(lambda t: reduce_sum(t), Tensor([1.0]))


def container_bytes(header: dict, *tensors: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + b"".join(tensors)


class TestSerialization:
    def test_golden_layout(self, tmp_path):
        # independently constructed: JSON header line, then u32 rank, u32
        # extents, little-endian f64 values
        path = tmp_path / "c.bin"
        write_container(path, {"format": "t"}, {"a": np.array([1.5, -2.0])})
        expected = b'{"format": "t", "tensors": ["a"]}\n'
        expected += struct.pack("<II", 1, 2) + struct.pack("<2d", 1.5, -2.0)
        assert path.read_bytes() == expected

    def test_roundtrip_shapes(self, tmp_path):
        rng = np.random.default_rng(3)
        shapes = [(), (1,), (5,), (3, 4), (2, 3, 4), (0, 3)]
        arrays = {str(i): rng.normal(size=shape) for i, shape in enumerate(shapes)}
        path = tmp_path / "c.bin"
        write_container(path, {"format": "t", "extra": [1, 2]}, arrays)
        header, out = read_container(path, "t")
        assert header == {"format": "t", "extra": [1, 2], "tensors": list(arrays)}
        for name, a in arrays.items():
            np.testing.assert_array_equal(out[name], a)
            assert out[name].shape == a.shape and out[name].dtype == np.float64

    def test_stream_roundtrip(self, tmp_path):
        # integer and bool arrays widen to float64 on the way out
        path = tmp_path / "c.bin"
        write_container(path, {"format": "t"}, {"i": np.arange(3), "b": np.array([True, False])})
        _, out = read_container(path, "t")
        np.testing.assert_array_equal(out["i"], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(out["b"], [1.0, 0.0])

    def test_unopenable_path_rejected(self, tmp_path):
        for path in (tmp_path / "absent.bin", tmp_path):
            with pytest.raises(ContractError, match=re.escape(f"cannot open {path}")):
                read_container(path, "t")

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"format": "t"}, {"a": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ContractError, match="declares 32 more bytes"):
            read_container(path, "t")

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"\xff\xfe not utf-8\n", "JSON header"),
            (b"not json\n", "JSON header"),
            (b"[1, 2]\n", "not a JSON object"),
            (container_bytes({"format": "other", "tensors": []}), "format 'other'"),
            (container_bytes({"format": "t"}), "tensor names"),
            (container_bytes({"format": "t", "tensors": "a"}), "tensor names"),
            (container_bytes({"format": "t", "tensors": ["a", "a"]}), "names a tensor twice"),
            (container_bytes({"format": "t", "tensors": ["a"]}), "declares 4 more bytes"),
            (container_bytes({"format": "t", "tensors": ["a"]}, struct.pack("<I", 33)), "rank 33"),
            (container_bytes({"format": "t", "tensors": []}, b"\x00"), "1 bytes after"),
        ],
    )
    def test_malformed_container_rejected(self, tmp_path, blob, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(ContractError, match=message):
            read_container(path, "t")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "c.bin"
        values = np.ones(5)
        values[3] = bad
        write_container(path, {"format": "t"}, {"ok": np.zeros(2), "w": values})
        with pytest.raises(ContractError, match=re.escape(f"{path} tensor 'w' holds a NaN or infinite")):
            read_container(path, "t")

    def test_huge_extent_rejected_before_allocating(self, tmp_path):
        # 0xFFFFFFFF values of 8 bytes would be a 34 GB read
        path = tmp_path / "huge.bin"
        path.write_bytes(
            container_bytes({"format": "t", "tensors": ["a"]}, struct.pack("<II", 1, 0xFFFFFFFF))
        )
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="declares 34359738360 more bytes"):
                read_container(path, "t")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

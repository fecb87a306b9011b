import functools
import inspect
import operator
import warnings
import weakref

import numpy as np
import pytest

from decaypo import autodiff as ad
from conftest import central_difference


class TestLogsigmoid:
    def test_zero(self):
        t = ad.Tape()
        out = ad.logsigmoid(ad.leaf(t, 0.0))
        assert out.value == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_negative_asymptote(self):
        t = ad.Tape()
        out = ad.logsigmoid(ad.leaf(t, -1000.0))
        assert out.value == pytest.approx(-1000.0, abs=1e-6)

    def test_positive_saturation(self):
        t = ad.Tape()
        out = ad.logsigmoid(ad.leaf(t, 1000.0))
        assert out.value == pytest.approx(0.0, abs=1e-6)

    def test_large_magnitude_no_overflow(self):
        t = ad.Tape()
        out = ad.logsigmoid(ad.leaf(t, np.array([-1e4, 1e4])))
        assert np.all(np.isfinite(out.value))

    def test_nonfinite_entries_give_nan_value_and_gradient(self):
        """+inf, -inf and nan give nan with a nan gradient; the finite entries
        of the same array keep the kernel's bits and its exact gradient."""
        x = np.array([0.0, np.inf, -3.5, -np.inf, 1e-300, np.nan, 745.0, -745.0])
        bad = ~np.isfinite(x)
        t = ad.Tape()
        leaf = ad.leaf(t, x)
        out = ad.logsigmoid(leaf)
        g = ad.gradients(ad.weighted_sum(out, np.ones_like(x)))[leaf]
        assert np.isnan(out.value[bad]).all() and np.isnan(g[bad]).all()
        finite = x[~bad]
        assert out.value[~bad].tobytes() == ad._logsigmoid(finite).tobytes()
        assert ad.logsigmoid(x)[~bad].tobytes() == ad._logsigmoid(finite).tobytes()
        t2 = ad.Tape()
        alone = ad.leaf(t2, finite)
        want = ad.gradients(ad.weighted_sum(ad.logsigmoid(alone), np.ones_like(finite)))[alone]
        assert g[~bad].tobytes() == want.tobytes()

    def test_monotone_and_nonpositive(self):
        x = np.linspace(-50, 50, 301)
        t = ad.Tape()
        out = ad.logsigmoid(ad.constant(t, x)).value
        assert np.all(out <= 0.0)
        assert np.all(np.diff(out) >= 0.0)

    def test_complement_identity(self):
        x = np.linspace(-30, 30, 121)
        t = ad.Tape()
        pos = ad.logsigmoid(ad.constant(t, x)).value
        neg = ad.logsigmoid(ad.constant(t, -x)).value
        assert np.max(np.abs(np.exp(pos) + np.exp(neg) - 1.0)) < 1e-12


class TestLogsigmoidKernel:
    """_logsigmoid, min(x, 0) - log1p(exp(-|x|)), against the logaddexp form
    it replaced, on normal draws and the edges of float64's exp."""
    EDGES = [0.0, 1e-300, -1e-300, 37.0, -37.0, 709.0, -709.0, 745.0, -745.0, 1000.0, -1000.0]

    @pytest.fixture
    def grid(self, rng):
        return np.concatenate([rng.normal(0.0, scale, size=100_000) for scale in (1.0, 10.0)]
                              + [self.EDGES])

    def test_value_within_4_ulp_of_logaddexp(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = ad._logsigmoid(grid)
        old = -np.logaddexp(0.0, -grid)
        deviation = np.abs(new - old)
        ulps = np.where(deviation == 0.0, 0.0, deviation / np.spacing(np.abs(old)))
        assert np.max(deviation) <= 1e-15
        assert np.max(ulps) <= 4.0
        assert np.array_equal(ad.logsigmoid(grid), new)   # the plain pass is the kernel

    def test_gradient_within_2e_16_of_sigmoid(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = ad.Tape()
            x = ad.leaf(t, grid)
            out = ad.logsigmoid(x)
            g = ad.gradients(ad.weighted_sum(out, np.ones_like(grid)))[x]
        assert np.array_equal(out.value, ad._logsigmoid(grid))
        with np.errstate(over="ignore"):
            old = 1.0 / (1.0 + np.exp(grid))   # sigma(-x), the gradient it replaced
        assert np.max(np.abs(g - old)) <= 2e-16
        # for x < 0, exp(-|x|) is exp(x): the same arithmetic, the same bits
        assert np.array_equal(g[grid < 0], old[grid < 0])
        assert g[-1] == 1.0 and g[-2] == 0.0   # at -1000 and 1000


class TestSigmoid:
    def test_matches_scipy_expit(self):
        """The numpy sigmoid is within one float64 epsilon of scipy's expit
        (the two round differently in about 2% of the draws), and it stays
        finite and warning-free out to the tails."""
        from scipy.special import expit
        x = np.concatenate([np.random.default_rng(0).normal(size=1_000_000),
                            [-1e4, -745.0, -710.0, -40.0, 40.0, 710.0, 1e4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = ad.sigmoid(x)
        assert np.max(np.abs(s - expit(x))) <= np.finfo(np.float64).eps
        assert s[-7] == 0.0 and s[-1] == 1.0


def logprobs_of(logits, targets):
    """log_softmax_gather of a constant matrix, as a plain array."""
    return ad.log_softmax_gather(ad.constant(ad.Tape(), np.asarray(logits)), targets).value


class TestSequenceLogprobs:
    def test_uniform_logits(self):
        logits = np.zeros((3, 4))
        out = logprobs_of(logits, [0, 2, 3])
        assert out == pytest.approx(-np.log(4.0) * np.ones(3), abs=1e-12)

    def test_dominant_logit(self):
        out = logprobs_of(np.array([[10.0, -10.0]]), [0])
        assert out[0] == pytest.approx(-np.log1p(np.exp(-20.0)), abs=1e-15)

    def test_matches_naive_softmax(self, rng):
        logits = rng.normal(0, 3, size=(3, 5))
        targets = rng.integers(0, 5, size=3)
        out = logprobs_of(logits, targets)
        naive = np.log(np.exp(logits) / np.sum(np.exp(logits), axis=1, keepdims=True))
        expected = naive[np.arange(3), targets]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_rows_normalize(self, rng):
        logits = rng.normal(0, 2, size=(4, 6))
        t = ad.Tape()
        full = np.vstack([
            ad.log_softmax_gather(ad.constant(t, logits),
                                  np.full(4, j)).value
            for j in range(6)]).T
        assert np.max(np.abs(np.sum(np.exp(full), axis=1) - 1.0)) < 1e-12

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            logprobs_of(np.zeros((2, 3)), [0, 3])


# Every primitive as a function of its array operands, and the shapes of
# those operands, whose entries are drawn in (-3, -0.1), inside every
# primitive's domain. test_table_names_every_primitive keeps the table whole.
W = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
PRIMITIVES = {
    "add": (ad.add, [(3, 4), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (3, 4)]),
    "scale": (lambda a: ad.scale(a, -1.5), [(3, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 3)]),
    "weighted_sum": (lambda a: ad.weighted_sum(a, W), [(3, 4)]),
    # one sum per segment, an empty one included
    "weighted_sum:bounds": (lambda a: ad.weighted_sum(a, W.ravel()[:7], (0, 3, 3, 7)), [(7,)]),
    "logsigmoid": (ad.logsigmoid, [(3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "log1mexp": (ad.log1mexp, [(3, 4)]),
    "log_softmax_gather": (lambda a: ad.log_softmax_gather(a, [3, 0, 3]), [(3, 4)]),
    "gather_rows": (lambda a: ad.gather_rows(a, [2, 0, 2, 1]), [(3, 4)]),
    "causal_mean": (lambda a: ad.causal_mean(a, (0, 1, 3)), [(3, 4)]),
}
BINARY = [name for name, (_, shapes) in PRIMITIVES.items() if len(shapes) == 2]


def operands(rng, name):
    return [-rng.uniform(0.1, 3.0, size=shape) for shape in PRIMITIVES[name][1]]


def primitive(name):
    return PRIMITIVES[name][0]


def test_table_names_every_primitive():
    """The public functions of decaypo.autodiff that record a node are
    exactly the table's, so none lacks its finite-difference check."""
    recorders = {name for name, f in vars(ad).items()
                 if inspect.isfunction(f) and f.__module__ == ad.__name__
                 and not name.startswith("_") and "_node(" in inspect.getsource(f)}
    assert recorders == {name.split(":")[0] for name in PRIMITIVES}


@pytest.mark.parametrize("name", list(PRIMITIVES))
def test_primitive_gradient_matches_central_differences(rng, name):
    args = operands(rng, name)
    w = rng.normal(0, 1, size=np.shape(primitive(name)(*args)))
    t = ad.Tape()
    leaves = [ad.leaf(t, v) for v in args]
    grads = ad.gradients(ad.weighted_sum(primitive(name)(*leaves), w), leaves)
    for i, leaf in enumerate(leaves):
        def f(v):
            return float(np.sum(w * primitive(name)(*args[:i], v, *args[i + 1:])))

        assert np.allclose(grads[leaf], central_difference(f, args[i]),
                           rtol=1e-4, atol=1e-8), (name, i)


class TestPlainOperands:
    @pytest.mark.parametrize("name", list(PRIMITIVES))
    def test_all_plain_call_returns_array_and_records_nothing(self, rng, monkeypatch, name):
        args = operands(rng, name)
        t = ad.Tape()
        taped = primitive(name)(*[ad.leaf(t, v) for v in args])
        recorded = []
        monkeypatch.setattr(ad.Tape, "_record", lambda tape, node: recorded.append(node))
        plain = primitive(name)(*args)
        assert type(plain) is np.ndarray and recorded == []
        assert np.array_equal(plain, taped.value)

    @pytest.mark.parametrize("side", [0, 1], ids=["tensor-plain", "plain-tensor"])
    @pytest.mark.parametrize("name", BINARY)
    def test_one_plain_operand_is_a_constant(self, rng, name, side):
        args = operands(rng, name)
        w = rng.normal(0, 1, size=np.shape(primitive(name)(*args)))

        def f(v):
            mixed = list(args)
            mixed[side] = ad.leaf(ad.Tape(), v)
            return primitive(name)(*mixed)

        out = f(args[side])
        (x,) = out.tape.leaves
        assert out.node.parents == (x.node,)  # one edge, to the leaf
        assert out.tape.nodes == [x.node, out.node]  # the leaf and the primitive's node
        assert np.array_equal(out.value, primitive(name)(*args))
        g = ad.gradients(ad.weighted_sum(out, w))[x]
        fd = central_difference(lambda v: np.sum(w * f(v).value), args[side])
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-8)


class TestGradients:
    def test_square(self):
        """x * x as mul(x, x): both of its edges reach x, and add up."""
        t = ad.Tape()
        x = ad.leaf(t, 3.0)
        g = ad.gradients(ad.mul(x, x))
        assert g[x] == pytest.approx(6.0, abs=1e-12)

    def test_logsigmoid_at_zero(self):
        t = ad.Tape()
        x = ad.leaf(t, 0.0)
        g = ad.gradients(ad.logsigmoid(x))
        assert g[x] == pytest.approx(0.5, abs=1e-12)

    def test_nonscalar_output_rejected(self):
        t = ad.Tape()
        x = ad.leaf(t, np.ones(3))
        with pytest.raises(ValueError):
            ad.gradients(ad.mul(x, x))

    def test_nonparticipating_leaf_is_exact_zero(self):
        t = ad.Tape()
        x = ad.leaf(t, 2.0)
        y = ad.leaf(t, np.ones(4))
        g = ad.gradients(ad.mul(x, x))
        assert g[y].shape == (4,)
        assert np.all(g[y] == 0.0)

    def test_composed_graph_finite_differences(self, rng):
        def build(a_val, b_val):
            t = ad.Tape()
            a = ad.leaf(t, a_val)
            b = ad.leaf(t, b_val)
            prod = ad.matmul(a, b)                       # (3, 3)
            gated = ad.mul(prod, ad.logsigmoid(prod))
            s = ad.weighted_sum(gated, np.arange(9.0).reshape(3, 3) / 9.0)
            out = ad.add(ad.mul(s, s), ad.weighted_sum(ad.sigmoid(prod), np.ones((3, 3))))
            return out, a, b

        for _ in range(20):
            a_val = rng.normal(0, 1, size=(3, 4))
            b_val = rng.normal(0, 1, size=(4, 3))
            out, a, b = build(a_val, b_val)
            g = ad.gradients(out, [a, b])
            fd_a = central_difference(lambda v: build(v, b_val)[0].value, a_val)
            fd_b = central_difference(lambda v: build(a_val, v)[0].value, b_val)
            assert np.allclose(g[a], fd_a, rtol=1e-4, atol=1e-7)
            assert np.allclose(g[b], fd_b, rtol=1e-4, atol=1e-7)

    def test_log_softmax_gather_finite_differences(self, rng):
        logits_val = rng.normal(0, 2, size=(4, 5))
        targets = rng.integers(0, 5, size=4)

        def f(v):
            t = ad.Tape()
            x = ad.leaf(t, v)
            return ad.weighted_sum(ad.log_softmax_gather(x, targets), np.ones(4))

        t = ad.Tape()
        x = ad.leaf(t, logits_val)
        g = ad.gradients(ad.weighted_sum(ad.log_softmax_gather(x, targets), np.ones(4)))
        fd = central_difference(lambda v: f(v).value, logits_val)
        assert np.allclose(g[x], fd, rtol=1e-4, atol=1e-7)

    def test_log1mexp_finite_differences(self, rng):
        x_val = -np.abs(rng.normal(1.0, 0.5, size=6)) - 1e-2

        def f(v):
            t = ad.Tape()
            return ad.weighted_sum(ad.log1mexp(ad.leaf(t, v)), np.ones(6)).value

        t = ad.Tape()
        x = ad.leaf(t, x_val)
        g = ad.gradients(ad.weighted_sum(ad.log1mexp(x), np.ones(6)))
        fd = central_difference(f, x_val)
        assert np.allclose(g[x], fd, rtol=1e-4, atol=1e-8)

    def test_gather_rows_finite_differences(self, rng):
        a_val = rng.normal(0, 1, size=(4, 3))
        idx = [2, 0, 2, 3, 2]  # row 2 three times, row 1 never
        w = rng.normal(0, 1, size=(5, 3))

        def f(v):
            t = ad.Tape()
            return ad.weighted_sum(ad.gather_rows(ad.leaf(t, v), idx), w).value

        t = ad.Tape()
        a = ad.leaf(t, a_val)
        out = ad.gather_rows(a, idx)
        assert np.array_equal(out.value, a_val[idx])
        g = ad.gradients(ad.weighted_sum(out, w))[a]
        assert np.allclose(g, central_difference(f, a_val), rtol=1e-4, atol=1e-8)
        assert np.allclose(g[2], w[0] + w[2] + w[4], rtol=0, atol=1e-15)
        assert np.all(g[1] == 0.0)

    def test_gather_rows_rejects_bad_index(self):
        t = ad.Tape()
        a = ad.leaf(t, np.zeros((3, 2)))
        for idx in ([0, 3], [-1], [[0]]):
            with pytest.raises(ValueError):
                ad.gather_rows(a, idx)

    @pytest.mark.parametrize("n", [1, 6])
    def test_causal_mean_finite_differences(self, rng, n):
        x_val = rng.normal(0, 1, size=(n, 3))
        w = rng.normal(0, 1, size=(n, 3))

        def f(v):
            t = ad.Tape()
            return ad.weighted_sum(ad.causal_mean(ad.leaf(t, v)), w).value

        t = ad.Tape()
        x = ad.leaf(t, x_val)
        out = ad.causal_mean(x)
        prefix_means = np.array([x_val[:i + 1].mean(axis=0) for i in range(n)])
        assert np.allclose(out.value, prefix_means, rtol=0, atol=1e-15)
        g = ad.gradients(ad.weighted_sum(out, w))[x]
        assert np.allclose(g, central_difference(f, x_val), rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("bounds", [(0, 1, 2, 3), (0, 1, 5, 6, 9), (0, 4, 9)],
                             ids=["all-length-1", "mixed", "two"])
    def test_segmented_causal_mean_finite_differences(self, rng, bounds):
        n = bounds[-1]
        x_val = rng.normal(0, 1, size=(n, 3))
        w = rng.normal(0, 1, size=(n, 3))

        def f(v):
            t = ad.Tape()
            return ad.weighted_sum(ad.causal_mean(ad.leaf(t, v), bounds), w).value

        t = ad.Tape()
        x = ad.leaf(t, x_val)
        out = ad.causal_mean(x, bounds)
        # each segment exactly as if it stood alone
        alone = np.concatenate([ad.causal_mean(ad.leaf(ad.Tape(), x_val[lo:hi])).value
                                for lo, hi in zip(bounds[:-1], bounds[1:])])
        assert np.array_equal(out.value, alone)
        g = ad.gradients(ad.weighted_sum(out, w))[x]
        assert np.allclose(g, central_difference(f, x_val), rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("width", [0, 1, 2, 3, 64, 65])
    @pytest.mark.parametrize("bounds", [(0, 30), (0, 0, 5, 5, 12, 30, 30)],
                             ids=["one", "with-empty"])
    def test_segment_cumsum_is_bitwise_np_cumsum(self, rng, width, bounds):
        """Even widths run on a complex128 view, odd ones on the floats; both
        give np.cumsum's bits per segment, on the reversed view the backward
        pass hands it and on columns that are not contiguous."""
        x = rng.normal(size=(30, width)) * 10.0 ** rng.integers(-8, 8, size=(30, width))
        for view in (x, x[::-1], x[:, ::-1], np.asfortranarray(x)):
            want = np.zeros((0, width))
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                want = np.concatenate([want, np.cumsum(view[lo:hi], axis=0)])
            assert ad._segment_cumsum(view, bounds).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bounds", [(0, 3), (1, 6), (0, 4, 2, 6), (0, 6, 7), [[0, 6]]])
    def test_causal_mean_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError, match="segment bounds"):
            ad.causal_mean(ad.leaf(ad.Tape(), np.zeros((6, 2))), bounds)

    def test_segmented_weighted_sum_sums_each_slice_alone(self, rng):
        """Segment j is np.sum of w * a over its slice alone, bit for bit:
        the bits of a lone pair's weighted token sum. The taped and plain
        calls agree."""
        for _ in range(300):
            bounds = np.concatenate(([0], np.cumsum(rng.integers(0, 40, rng.integers(1, 13)))))
            a, w = rng.normal(0, 1, bounds[-1]), rng.normal(0, 1, bounds[-1])
            sums = ad.weighted_sum(ad.leaf(ad.Tape(), a), w, bounds).value
            alone = [np.sum(w[lo:hi] * a[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
            assert sums.tobytes() == np.array(alone).tobytes()
            assert ad.weighted_sum(a, w, bounds).tobytes() == sums.tobytes()

    def test_total_adds_in_index_order(self, rng):
        """Without bounds, weighted_sum adds w * a left to right, as a chain
        of adds would: a batch's mean loss keeps the bits of adding its
        pairs' losses one by one."""
        for n in range(1, 40):
            a = rng.normal(0, 1, n) * rng.exponential(1, n)
            chain = functools.reduce(operator.add, a.tolist())
            assert float(ad.weighted_sum(a, np.ones(n))) == chain
            assert float(ad.weighted_sum(ad.leaf(ad.Tape(), a), np.ones(n)).value) == chain

    def test_weighted_sum_of_nothing_is_zero(self):
        assert float(ad.weighted_sum(np.zeros(0), np.zeros(0))) == 0.0
        t = ad.Tape()
        empty = ad.leaf(t, np.zeros(0))
        assert ad.gradients(ad.weighted_sum(empty, np.zeros(0)))[empty].shape == (0,)
        assert ad.weighted_sum(np.zeros(0), np.zeros(0), (0, 0, 0)).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bounds", [(0, 3), (0, 4, 2, 6), [[0, 6]]])
    def test_weighted_sum_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError, match="segment bounds"):
            ad.weighted_sum(np.zeros(6), np.ones(6), bounds)

    def test_segmented_weighted_sum_needs_a_vector(self):
        with pytest.raises(ValueError, match="needs a vector"):
            ad.weighted_sum(np.zeros((6, 2)), np.ones((6, 2)), (0, 6))

    def test_gather_rows_on_a_vector_finite_differences(self, rng):
        a_val = rng.normal(0, 1, size=7)
        idx = [3, 0, 3, 6, 5, 3]  # entry 3 three times, entries 1, 2 and 4 never
        w = rng.normal(0, 1, size=6)

        def f(v):
            t = ad.Tape()
            return ad.weighted_sum(ad.gather_rows(ad.leaf(t, v), idx), w).value

        t = ad.Tape()
        a = ad.leaf(t, a_val)
        out = ad.gather_rows(a, idx)
        assert np.array_equal(out.value, a_val[idx])
        g = ad.gradients(ad.weighted_sum(out, w))[a]
        assert np.allclose(g, central_difference(f, a_val), rtol=1e-4, atol=1e-8)
        assert g[3] == w[0] + w[2] + w[5] and np.all(g[[1, 2, 4]] == 0.0)

    def test_forward_primitives_on_plain_arrays_record_nothing(self, rng):
        x_val = rng.normal(0, 1, size=(6, 5))
        targets = [0, 4, 2, 2, 1, 3]
        t = ad.Tape()
        x = ad.leaf(t, x_val)
        for op in (lambda a: ad.gather_rows(a, [5, 0, 5]),
                   lambda a: ad.causal_mean(a, (0, 2, 6)),
                   ad.logsigmoid,
                   lambda a: ad.log_softmax_gather(a, targets)):
            taped, plain = op(x), op(x_val)
            assert isinstance(taped, ad.Tensor) and type(plain) is np.ndarray
            assert np.array_equal(taped.value, plain)
        assert len(t.nodes) == 5  # the leaf and one node per taped call

    def test_log1mexp_rejects_nonnegative(self):
        t = ad.Tape()
        with pytest.raises(ValueError):
            ad.log1mexp(ad.leaf(t, np.array([-1.0, 0.0])))

    def test_backward_bit_determinism(self, rng):
        a_val = rng.normal(0, 1, size=(5, 5))

        def run():
            t = ad.Tape()
            a = ad.leaf(t, a_val)
            out = ad.weighted_sum(ad.mul(ad.logsigmoid(a), a), np.ones((5, 5)))
            return ad.gradients(out)[a]

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_returned_gradients_share_no_memory(self):
        t = ad.Tape()
        a, b, c = (ad.leaf(t, np.full(3, v)) for v in (1.0, 2.0, 3.0))
        # add passes its cotangent to both operands unchanged
        g = ad.gradients(ad.weighted_sum(ad.add(ad.add(a, a), ad.add(b, c)), np.ones(3)))
        assert np.array_equal(g[a], np.full(3, 2.0))
        assert np.array_equal(g[b], np.ones(3)) and np.array_equal(g[c], np.ones(3))
        for u, v in ((a, b), (a, c), (b, c)):
            assert not np.shares_memory(g[u], g[v])

    def test_returned_gradient_is_the_callers_to_change(self):
        t = ad.Tape()
        x, y = ad.leaf(t, 1.0), ad.leaf(t, 2.0)
        out = ad.add(x, y)
        first = ad.gradients(out)
        assert not np.shares_memory(first[x], first[y])
        first[x] += 5.0
        assert first[y] == 1.0
        second = ad.gradients(out)
        assert second[x] == 1.0 and second[y] == 1.0

    @pytest.mark.parametrize("consumer", [
        lambda x: ad.weighted_sum(x, np.arange(3.0)),
        lambda x: ad.weighted_sum(ad.logsigmoid(x), np.arange(3.0))],
        ids=["weighted_sum", "logsigmoid"])
    def test_a_value_no_vjp_captured_is_freed_with_its_tensor(self, consumer):
        """The tape records edges, not values: while it lives, the sum of two
        leaves, which neither add's vjps nor its consumer's capture, is freed
        once its tensor is dropped, and the gradients do not change."""
        t = ad.Tape()
        a, b = ad.leaf(t, np.array([-1.0, 0.5, 2.0])), ad.leaf(t, np.ones(3))
        total = ad.add(a, b)
        value = weakref.ref(total.value)
        out = consumer(total)
        want = ad.gradients(consumer(ad.add(a, b)))[a]
        del total
        assert value() is None
        g = ad.gradients(out)
        assert np.array_equal(g[a], want) and np.array_equal(g[b], want)

    def test_different_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError):
            ad.add(ad.leaf(t1, 1.0), ad.leaf(t2, 1.0))

import warnings

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

    def test_nonfinite_rejected(self):
        t = ad.Tape()
        with pytest.raises(ValueError):
            ad.logsigmoid(ad.leaf(t, np.array([0.0, np.inf])))

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


# The primitives the forward-pass test below does not cover, each as a
# function of its array operands; every operand here is a 3 x 4 matrix with
# entries in (-3, -0.1), inside every primitive's domain, except matmul's
# right operand, which is 4 x 3.
W = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
UNARY = {"scale": lambda a: ad.scale(a, -1.5), "arraysum": ad.arraysum,
         "weighted_sum": lambda a: ad.weighted_sum(a, W), "square": ad.square,
         "sigmoid": ad.sigmoid, "log1mexp": ad.log1mexp}
BINARY = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "matmul": ad.matmul}


def operand(rng, shape=(3, 4)):
    return -rng.uniform(0.1, 3.0, size=shape)


def operands(rng, name):
    return [operand(rng)] if name in UNARY else \
        [operand(rng), operand(rng, (4, 3) if name == "matmul" else (3, 4))]


def primitive(name):
    return UNARY.get(name) or BINARY[name]


class TestPlainOperands:
    @pytest.mark.parametrize("name", [*UNARY, *BINARY])
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
    @pytest.mark.parametrize("name", list(BINARY))
    def test_one_plain_operand_is_a_constant(self, rng, name, side):
        args = operands(rng, name)
        w = rng.normal(0, 1, size=np.shape(BINARY[name](*args)))

        def f(v):
            mixed = list(args)
            mixed[side] = ad.leaf(ad.Tape(), v)
            return BINARY[name](*mixed)

        out = f(args[side])
        x = out.parents[0]
        assert len(out.parents) == 1 and x.is_leaf
        assert len(out.tape.nodes) == 2  # the leaf and the primitive's node
        assert np.array_equal(out.value, BINARY[name](*args))
        g = ad.gradients(ad.weighted_sum(out, w))[x]
        fd = central_difference(lambda v: np.sum(w * f(v).value), args[side])
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-8)


class TestGradients:
    def test_square(self):
        t = ad.Tape()
        x = ad.leaf(t, 3.0)
        g = ad.gradients(ad.square(x))
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
            ad.gradients(ad.square(x))

    def test_nonparticipating_leaf_is_exact_zero(self):
        t = ad.Tape()
        x = ad.leaf(t, 2.0)
        y = ad.leaf(t, np.ones(4))
        g = ad.gradients(ad.square(x))
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
            out = ad.add(ad.square(s), ad.arraysum(ad.sigmoid(prod)))
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
            return ad.arraysum(ad.log_softmax_gather(x, targets))

        t = ad.Tape()
        x = ad.leaf(t, logits_val)
        g = ad.gradients(ad.arraysum(ad.log_softmax_gather(x, targets)))
        fd = central_difference(lambda v: f(v).value, logits_val)
        assert np.allclose(g[x], fd, rtol=1e-4, atol=1e-7)

    def test_log1mexp_finite_differences(self, rng):
        x_val = -np.abs(rng.normal(1.0, 0.5, size=6)) - 1e-2

        def f(v):
            t = ad.Tape()
            return ad.arraysum(ad.log1mexp(ad.leaf(t, v))).value

        t = ad.Tape()
        x = ad.leaf(t, x_val)
        g = ad.gradients(ad.arraysum(ad.log1mexp(x)))
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

    @pytest.mark.parametrize("bounds", [(0, 3), (1, 6), (0, 4, 2, 6), (0, 6, 7), [[0, 6]]])
    def test_causal_mean_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError, match="segment bounds"):
            ad.causal_mean(ad.leaf(ad.Tape(), np.zeros((6, 2))), bounds)

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
            out = ad.arraysum(ad.mul(ad.logsigmoid(a), a))
            return ad.gradients(out)[a]

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_returned_gradients_share_no_memory(self):
        t = ad.Tape()
        a, b, c = (ad.leaf(t, np.full(3, v)) for v in (1.0, 2.0, 3.0))
        # add passes its cotangent to both operands unchanged
        g = ad.gradients(ad.arraysum(ad.add(ad.add(a, a), ad.add(b, c))))
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

    def test_different_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError):
            ad.add(ad.leaf(t1, 1.0), ad.leaf(t2, 1.0))

import numpy as np
import pytest

from decaypo.schedules import DecaySchedule, UNIFORM, weights


class TestExamples:
    def test_exponential_gamma_one_is_uniform(self):
        s = DecaySchedule(kind="exponential", gamma=1.0)
        for T, l in [(1, 0), (5, 3), (17, 9)]:
            assert np.array_equal(weights(s, T, l), np.ones(T))

    def test_exponential_answer_start(self):
        s = DecaySchedule(kind="exponential", gamma=0.9, origin="answer_start")
        assert weights(s, 3, 7) == pytest.approx([1.0, 0.9, 0.81], abs=1e-15)

    def test_head(self):
        s = DecaySchedule(kind="head", gamma=0.5)
        expected = [1] * 5 + [0] * 5
        assert np.array_equal(weights(s, 10, 4), expected)

    def test_linear(self):
        s = DecaySchedule(kind="linear", gamma=1.0)
        assert weights(s, 4, 0) == pytest.approx([1.0, 0.75, 0.5, 0.25], abs=1e-15)

    def test_powerlaw_answer_start(self):
        s = DecaySchedule(kind="powerlaw", gamma=1.0, origin="answer_start")
        assert weights(s, 3, 5) == pytest.approx([1.0, 0.5, 1.0 / 3.0], abs=1e-15)

    def test_uniform_ignores_origin(self):
        for origin in ("prompt_start", "answer_start"):
            s = DecaySchedule(kind="uniform", gamma=1.0, origin=origin)
            assert np.array_equal(weights(s, 6, 11), np.ones(6))


class TestInvariants:
    def test_bounded_when_gamma_below_one(self):
        rng = np.random.default_rng(0)
        for kind in ("uniform", "exponential", "head", "linear", "powerlaw"):
            for _ in range(20):
                g = float(rng.uniform(0.05, 1.0))
                s = DecaySchedule(kind=kind, gamma=g)
                w = weights(s, int(rng.integers(1, 30)), int(rng.integers(0, 10)))
                assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_strictly_decreasing_on_support(self):
        cases = [
            DecaySchedule(kind="exponential", gamma=0.9, origin="answer_start"),
            DecaySchedule(kind="linear", gamma=1.0),
            DecaySchedule(kind="powerlaw", gamma=0.7, origin="answer_start"),
        ]
        for s in cases:
            w = weights(s, 12, 0)
            support = w[w > 0]
            assert np.all(np.diff(support) < 0)

    def test_prompt_start_is_scaled_answer_start(self):
        s_p = DecaySchedule(kind="exponential", gamma=0.93, origin="prompt_start")
        s_a = DecaySchedule(kind="exponential", gamma=0.93, origin="answer_start")
        for T, l in [(1, 0), (4, 2), (9, 7)]:
            wp = weights(s_p, T, l)
            wa = weights(s_a, T, l)
            assert np.array_equal(wp, (0.93 ** l) * wa)


class TestValidation:
    def test_exponential_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            DecaySchedule(kind="exponential", gamma=0.0)

    def test_exponential_above_one_warns(self):
        with pytest.warns(UserWarning):
            DecaySchedule(kind="exponential", gamma=1.1)

    def test_warning_names_the_callers_line(self):
        with pytest.warns(UserWarning) as caught:
            DecaySchedule(kind="exponential", gamma=1.1)
        assert len(caught) == 1
        assert caught[0].filename == __file__

    def test_head_linear_gamma_range(self):
        for kind in ("head", "linear"):
            with pytest.raises(ValueError):
                DecaySchedule(kind=kind, gamma=1.5)
            with pytest.raises(ValueError):
                DecaySchedule(kind=kind, gamma=0.0)

    def test_powerlaw_requires_nonnegative(self):
        with pytest.raises(ValueError):
            DecaySchedule(kind="powerlaw", gamma=-0.1)

    def test_unknown_kind_and_origin(self):
        with pytest.raises(ValueError):
            DecaySchedule(kind="cosine")
        with pytest.raises(ValueError):
            DecaySchedule(origin="middle")

    def test_response_len_must_be_positive(self):
        with pytest.raises(ValueError):
            weights(UNIFORM, 0, 0)

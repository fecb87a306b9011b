import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.special import logsumexp

from decaypo import mdp
from decaypo.mdp import (MDPStack, discount_horizon, enumerate_trajectories,
                         policy_value, random_mdp, random_stack,
                         soft_value_iteration, suboptimality_decompose,
                         suboptimality_bound, trajectory_identity_check,
                         uniform_policy, verify_bounds)


def stack_of(*mdps):
    """The stack of the given stacks of same-shape MDPs, each keeping its own R."""
    return MDPStack(P=np.concatenate([m.P for m in mdps]), r=np.concatenate([m.r for m in mdps]),
                    H=mdps[0].H, R=np.concatenate([m.R for m in mdps]))


def one_mdp(P, r, H, R):
    """The stack of one MDP with transitions P (S, A, S) and rewards r (S, A)."""
    return MDPStack(P=np.asarray(P)[None], r=np.asarray(r)[None], H=H, R=[R])


class TestTabularMDP:
    """A single MDP: a stack of one."""

    def test_single_state_single_action(self):
        m = random_mdp(1, 1, 3, 1.0, seed=0)
        assert m.P.shape == (1, 1, 1, 1) and m.R.shape == (1,)
        assert m.P[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        a, b = random_mdp(4, 3, 5, 2.0, seed=9), random_mdp(4, 3, 5, 2.0, seed=9)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.r, b.r)

    def test_invariant_sweep(self):
        for seed in range(200):
            m = random_mdp(3, 2, 4, 1.5, seed=seed)
            assert np.max(np.abs(np.sum(m.P[0], axis=2) - 1.0)) <= 1e-12
            assert np.max(np.abs(m.r)) <= 1.5

    def test_bad_transitions_rejected(self):
        P = np.ones((2, 2, 2)) * 0.6
        with pytest.raises(ValueError):
            one_mdp(P=P, r=np.zeros((2, 2)), H=2, R=1.0)

    def test_reward_bound_enforced(self):
        m = random_mdp(2, 2, 2, 1.0, seed=1)
        with pytest.raises(ValueError):
            MDPStack(P=m.P, r=m.r * 5, H=2, R=m.R)

    @pytest.mark.parametrize("field", ["P", "r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_the_field(self, field, bad):
        m = random_mdp(2, 2, 3, 1.0, 0)
        arrays = {"P": m.P.copy(), "r": m.r.copy()}
        if field == "P":
            arrays["P"][0, 1, 0] = bad  # one whole transition row
        else:
            arrays["r"][0, 0, 1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MDPStack(P=arrays["P"], r=arrays["r"], H=3, R=m.R)


class TestSoftValueIteration:
    def test_one_step_hand_check(self):
        # H=1, A=2, rewards [1, 0], uniform ref, beta=1
        P = np.ones((1, 2, 1))
        m = one_mdp(P=P, r=np.array([[1.0, 0.0]]), H=1, R=1.0)
        (V, Q), pi = soft_value_iteration(m, uniform_policy(m), beta=1.0, gamma=1.0)
        assert Q[0, 0] == pytest.approx([1 + np.log(0.5), np.log(0.5)], abs=1e-12)
        assert V[0, 0] == pytest.approx(np.log((np.e + 1) / 2), abs=1e-12)
        assert V[0, 0] == pytest.approx(0.620115, abs=1e-6)
        assert pi[0, 0, 0] == pytest.approx(np.e / (np.e + 1), abs=1e-12)
        assert pi[0, 0, 0] == pytest.approx(0.731059, abs=1e-6)

    def test_large_beta_approaches_reference(self):
        m = random_mdp(3, 3, 4, 1.0, seed=3)
        ref = uniform_policy(m)
        _, pi = soft_value_iteration(m, ref, beta=1e6, gamma=0.9)
        tv = 0.5 * np.sum(np.abs(pi - ref), axis=2)
        assert np.max(tv) <= 1e-3

    def test_gamma_zero_ignores_future(self):
        m = random_mdp(3, 2, 5, 1.0, seed=4)
        ref = uniform_policy(m)
        (V, Q), _ = soft_value_iteration(m, ref, beta=0.5, gamma=0.0)
        expected = m.r[0] + 0.5 * np.log(0.5)
        for t in range(m.H):
            assert np.allclose(Q[t], expected, atol=1e-12)

    def test_policy_rows_normalized(self):
        m = random_mdp(4, 3, 6, 1.0, seed=5)
        _, pi = soft_value_iteration(m, uniform_policy(m), beta=0.3, gamma=0.95)
        assert np.max(np.abs(np.sum(pi, axis=2) - 1.0)) <= 1e-12

    def test_zero_support_reference_rejected(self):
        m = random_mdp(2, 2, 2, 1.0, seed=6)
        ref = np.zeros((2, 2, 2))
        ref[:, :, 0] = 1.0
        with pytest.raises(ValueError):
            soft_value_iteration(m, ref, beta=1.0, gamma=1.0)

    def test_gamma_one_matches_plain_backward_induction(self):
        m = random_mdp(4, 3, 6, 1.0, seed=7)
        ref = uniform_policy(m)
        beta = 0.4
        (V, Q), _ = soft_value_iteration(m, ref, beta, 1.0)
        # independent recursion with explicit loops
        P, r = m.P[0], m.r[0]
        V2 = np.zeros(m.S)
        for t in range(m.H - 1, -1, -1):
            Q2 = np.empty((m.S, m.A))
            for s in range(m.S):
                for a in range(m.A):
                    Q2[s, a] = r[s, a] + beta * np.log(ref[t, s, a]) + P[s, a] @ V2
            V2 = beta * np.log(np.sum(np.exp(Q2 / beta), axis=1))
            assert np.allclose(Q[t], Q2, atol=1e-10)
        assert np.allclose(V[0], V2, atol=1e-10)


class TestPolicyValue:
    def test_deterministic_chain_geometric_sum(self):
        S, H, c = 3, 5, 0.7
        P = np.zeros((S, 1, S))
        for s in range(S):
            P[s, 0, (s + 1) % S] = 1.0
        m = one_mdp(P=P, r=np.full((S, 1), c), H=H, R=1.0)
        pi = uniform_policy(m)
        for gamma in (0.5, 0.9):
            expected = c * (1 - gamma ** H) / (1 - gamma)
            assert policy_value(m, pi, gamma) == pytest.approx(expected, abs=1e-12)
        assert policy_value(m, pi, 1.0) == pytest.approx(c * H, abs=1e-12)

    def test_monte_carlo_rollout_oracle(self):
        m = random_mdp(3, 2, 4, 1.0, seed=11)
        _, pi = soft_value_iteration(m, uniform_policy(m), beta=0.5, gamma=0.9)
        gamma = 0.9
        exact = policy_value(m, pi, gamma)
        n = 200_000
        rng = np.random.default_rng(2)
        states = np.zeros(n, dtype=np.int64)
        returns = np.zeros(n)
        for t in range(m.H):
            u = rng.random(n)
            actions = (u[:, None] > np.cumsum(pi[t][states], axis=1)).sum(axis=1)
            returns += gamma ** t * m.r[0, states, actions]
            u2 = rng.random(n)
            states = (u2[:, None] > np.cumsum(m.P[0, states, actions], axis=1)).sum(axis=1)
        se = np.std(returns, ddof=1) / np.sqrt(n)
        assert abs(np.mean(returns) - exact) <= 3 * se


class TestTrajectoryIdentity:
    def test_single_step(self):
        m = random_mdp(3, 2, 1, 1.0, seed=12)
        for a in range(2):
            lhs, rhs, res = trajectory_identity_check(
                m, uniform_policy(m), beta=0.7, gamma=0.9, trajectory=[(0, a)])
            assert res <= 1e-12
            assert lhs == pytest.approx(m.r[0, 0, a], abs=1e-12)

    def test_full_length_deterministic(self):
        for seed in range(5):
            m = random_mdp(3, 2, 4, 1.0, seed=seed, deterministic=True)
            for gamma in (0.5, 0.9, 1.0):
                for traj in enumerate_trajectories(m):
                    _, _, res = trajectory_identity_check(
                        m, uniform_policy(m), 0.5, gamma, traj)
                    assert res <= 1e-8

    @pytest.mark.parametrize("beta", [1e-3, 1e-310])
    def test_small_beta_finite(self, beta):
        # the soft optimum of a non-greedy action underflows to 0 here, but
        # its log-ratio to the reference, (Q - V)/beta - log ref, is finite
        m = random_mdp(3, 2, 4, 1.0, 0, deterministic=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for traj in enumerate_trajectories(m):
                _, _, res = trajectory_identity_check(m, uniform_policy(m), beta, 0.9, traj)
                assert res <= 1e-8

    def test_impossible_transition_rejected(self):
        m = random_mdp(2, 2, 3, 1.0, seed=1, deterministic=True)
        s0, a0 = 0, 0
        next_state = int(np.argmax(m.P[0, s0, a0]))
        bad_state = 1 - next_state
        with pytest.raises(ValueError):
            trajectory_identity_check(m, uniform_policy(m), 0.5, 0.9,
                                      [(s0, a0), (bad_state, 0)])


class TestDecomposition:
    def test_pi_equals_pi_star(self):
        m = random_mdp(4, 3, 5, 1.0, seed=13)
        _, pi = soft_value_iteration(m, uniform_policy(m), 0.3, 1.0)
        rep = suboptimality_decompose(m, pi, pi, gamma=0.7)
        assert rep.delta2 == pytest.approx(0.0, abs=1e-12)
        assert rep.subopt == pytest.approx(0.0, abs=1e-12)
        assert rep.delta1 == pytest.approx(-rep.delta3, abs=1e-12)

    def test_gamma_one_collapses_mismatch_terms(self):
        m = random_mdp(4, 3, 5, 1.0, seed=14)
        ref = uniform_policy(m)
        _, pi_star = soft_value_iteration(m, ref, 0.3, 1.0)
        _, pi = soft_value_iteration(m, ref, 0.3, 0.5)
        rep = suboptimality_decompose(m, pi_star, pi, gamma=1.0)
        assert rep.delta1 == pytest.approx(0.0, abs=1e-12)
        assert rep.delta3 == pytest.approx(0.0, abs=1e-12)
        assert rep.subopt == pytest.approx(rep.delta2, abs=1e-12)

    def test_telescoping_on_random_instances(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            m = random_mdp(int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                           int(rng.integers(1, 11)), 1.0, seed=seed)
            ref = uniform_policy(m)
            _, pi_star = soft_value_iteration(m, ref, 0.3, 1.0)
            _, pi = soft_value_iteration(m, ref, 0.3, 0.8)
            rep = suboptimality_decompose(m, pi_star, pi, gamma=0.8)
            assert rep.delta1 + rep.delta2 + rep.delta3 == \
                pytest.approx(rep.subopt, abs=1e-9)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.9, 1.0])
    def test_decompose_reports_equal_bound_reports(self, gamma):
        m = random_mdp(4, 3, 8, 1.0, seed=22)
        ref = uniform_policy(m)
        _, pi_star = soft_value_iteration(m, ref, 0.3, 1.0)
        _, pi = soft_value_iteration(m, ref, 0.3, 0.5)
        rep = suboptimality_decompose(m, pi_star, pi, gamma)
        assert rep == suboptimality_bound(m, pi_star, pi, gamma)  # field for field
        assert rep.tv_expectation > 0 and rep.bound_total > 0


class TestOccupancy:
    def test_identical_policies(self):
        m = random_mdp(3, 2, 4, 1.0, seed=15)
        pi = uniform_policy(m)
        assert suboptimality_bound(m, pi, pi, 1.0).tv_expectation == 0.0

    def test_total_disagreement(self):
        m = random_mdp(3, 2, 4, 1.0, seed=16)
        a = np.zeros((m.H, m.S, m.A))
        b = np.zeros((m.H, m.S, m.A))
        a[:, :, 0] = 1.0
        b[:, :, 1] = 1.0
        assert suboptimality_bound(m, a, b, 1.0).tv_expectation == pytest.approx(1.0, abs=1e-12)

    def test_visitation_matches_path_enumeration(self):
        m = random_mdp(3, 2, 3, 1.0, seed=17)
        _, pi = soft_value_iteration(m, uniform_policy(m), 0.5, 0.9)
        d = mdp._visitation(m.P, pi[None])[0]
        # brute force: sum over all (action, state) paths
        expected = np.zeros((m.H, m.S))
        expected[0, 0] = 1.0
        for t in range(1, m.H):
            for s_prev in range(m.S):
                for a in range(m.A):
                    for s in range(m.S):
                        expected[t, s] += (expected[t - 1, s_prev]
                                           * pi[t - 1, s_prev, a]
                                           * m.P[0, s_prev, a, s])
            assert np.sum(expected[t]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(d, expected, atol=1e-12)

    def test_result_in_unit_interval(self):
        for seed in range(20):
            m = random_mdp(3, 3, 4, 1.0, seed=seed)
            ref = uniform_policy(m)
            _, a = soft_value_iteration(m, ref, 0.2, 1.0)
            _, b = soft_value_iteration(m, ref, 0.2, 0.5)
            assert 0.0 <= suboptimality_bound(m, a, b, 1.0).tv_expectation <= 1.0


class TestTheorem1:
    def test_arithmetic_example(self):
        # H=2, R=1, gamma=0.5 -> g = 1.5, term1 = 2(2 - 1.5) = 1
        assert discount_horizon(0.5, 2) == pytest.approx(1.5, abs=1e-15)
        term1 = 2 * (2 - discount_horizon(0.5, 2)) * 1.0
        term2 = 2 * discount_horizon(0.5, 2) ** 2 * 0.25 * 1.0
        assert term1 == pytest.approx(1.0, abs=1e-12)
        assert term2 == pytest.approx(1.125, abs=1e-12)

    def test_gamma_one_limit(self):
        m = random_mdp(3, 2, 4, 1.0, seed=18)
        ref = uniform_policy(m)
        _, pi_star = soft_value_iteration(m, ref, 0.3, 1.0)
        _, pi = soft_value_iteration(m, ref, 0.3, 0.5)
        rep = suboptimality_bound(m, pi_star, pi, gamma=1.0)
        assert rep.bound_term1 == 0.0
        assert rep.bound_term2 == pytest.approx(
            2 * m.H ** 2 * rep.tv_expectation * m.R[0], abs=1e-12)

    def test_bound_holds_on_random_sweep(self):
        for seed in range(50):
            m = random_mdp(4, 3, 6, 1.0, seed=seed)
            ref = uniform_policy(m)
            _, pi_star = soft_value_iteration(m, ref, 0.3, 1.0)
            for gamma in (0.5, 0.9, 0.98):
                _, pi = soft_value_iteration(m, ref, 0.3, gamma)
                rep = suboptimality_bound(m, pi_star, pi, gamma)
                assert rep.subopt <= rep.bound_total + 1e-9
                g = discount_horizon(gamma, m.H)
                assert rep.delta1 <= (m.H - g) * m.R[0] + 1e-9
                assert rep.delta3 <= (m.H - g) * m.R[0] + 1e-9

    def test_delta2_bound_with_gamma_optimal_pi_star(self):
        # Lemma-level check: when pi* is optimal for the same gamma the
        # policy-gap term obeys the occupancy bound
        for seed in range(20):
            m = random_mdp(3, 2, 5, 1.0, seed=seed)
            ref = uniform_policy(m)
            gamma = 0.9
            _, pi_star = soft_value_iteration(m, ref, 0.3, gamma)
            _, pi = soft_value_iteration(m, ref, 0.3, 0.4)
            rep = suboptimality_bound(m, pi_star, pi, gamma)
            assert rep.delta2 <= rep.bound_term2 + 1e-9


class TestValidation:
    def test_policy_shape(self):
        m = random_mdp(2, 2, 3, 1.0, seed=19)
        with pytest.raises(ValueError, match="policy shape"):
            policy_value(m, np.ones((2, 2, 2)) / 2, 0.9)

    def test_policy_rows_must_normalize(self):
        m = random_mdp(2, 2, 3, 1.0, seed=20)
        with pytest.raises(ValueError, match="policy rows must be distributions"):
            policy_value(m, np.full((3, 2, 2), 0.3), 0.9)


# ---------------------------------------------------------------------------
# the stacked core against a per-discount oracle

def oracle_soft_value_iteration(m, ref, beta, gamma):
    """One discount at a time, with scipy's logsumexp and an explicit
    renormalization of each policy row."""
    P, r = m.P[0], m.r[0]
    V = np.zeros((m.H + 1, m.S))
    Q = np.zeros((m.H, m.S, m.A))
    pi = np.zeros((m.H, m.S, m.A))
    for t in range(m.H - 1, -1, -1):
        Q[t] = r + beta * np.log(ref[t]) + gamma * (P @ V[t + 1])
        V[t] = beta * logsumexp(Q[t] / beta, axis=1)
        pi[t] = np.exp((Q[t] - V[t][:, None]) / beta)
        pi[t] /= np.sum(pi[t], axis=1, keepdims=True)
    return V, Q, pi


def oracle_policy_value(m, pi, gamma):
    V = np.zeros(m.S)
    for t in range(m.H - 1, -1, -1):
        V = np.sum(pi[t] * (m.r[0] + gamma * (m.P[0] @ V)), axis=1)
    return V


def oracle_occupancy_tv(m, pi_star, pi):
    d = np.zeros((m.H, m.S))
    d[0, 0] = 1.0
    for t in range(m.H - 1):
        d[t + 1] = np.einsum("sa,sak->k", d[t][:, None] * pi_star[t], m.P[0])
    return float(np.mean(np.sum(d * 0.5 * np.sum(np.abs(pi_star - pi), axis=2), axis=1)))


def oracle_report(m, pi_star, pi, gamma):
    v1_star, vg_star = (oracle_policy_value(m, pi_star, g)[0] for g in (1.0, gamma))
    vg, v1 = (oracle_policy_value(m, pi, g)[0] for g in (gamma, 1.0))
    g = discount_horizon(gamma, m.H)
    tv = oracle_occupancy_tv(m, pi_star, pi)
    term1, term2 = 2.0 * (m.H - g) * m.R[0], 2.0 * g * g * tv * m.R[0]
    return (gamma, v1_star - vg_star, vg_star - vg, vg - v1, v1_star - v1,
            term1, term2, term1 + term2, tv)


# (S, A, H, seeds): random shapes plus the edge shapes S=1, A=1, H=1, and two
# with A >= 8, where the backup's sum over actions adds in another order than
# numpy's paired sum over a contiguous last axis would
SHAPES = [(4, 3, 8, 30), (5, 2, 12, 10), (1, 3, 6, 5), (4, 1, 6, 5), (3, 3, 1, 5),
          (1, 1, 1, 3), (7, 4, 5, 5), (6, 9, 5, 4), (8, 16, 6, 3)]
# gamma = 1 and repeated discounts included
GAMMAS = [0.5, 0.9, 0.9, 0.98, 1.0, 1.0, 0.31]


def _deviation(a, b):
    return float(np.max(np.abs(np.subtract(a, b, dtype=np.float64))))


class TestStackedCoreEquivalence:
    """The stacked backup and pair evaluation agree with the per-discount
    recursion to 1e-12 (observed: about 1e-14)."""

    @pytest.mark.parametrize("S,A,H,seeds", SHAPES)
    def test_public_functions_match_oracle(self, S, A, H, seeds):
        worst = 0.0
        for seed in range(seeds):
            m = random_mdp(S, A, H, 1.0, seed=seed)
            rng = np.random.default_rng(seed)
            ref = rng.dirichlet(np.ones(A), size=(H, S))
            beta = float(rng.uniform(0.05, 2.0))
            _, _, pi_star = oracle_soft_value_iteration(m, ref, beta, 1.0)
            for gamma in GAMMAS + [0.0]:
                (V, Q), pi = soft_value_iteration(m, ref, beta, gamma)
                V_o, Q_o, pi_o = oracle_soft_value_iteration(m, ref, beta, gamma)
                worst = max(worst, _deviation(V, V_o), _deviation(Q, Q_o),
                            _deviation(pi, pi_o))
                # every state's value, not only the start state's
                V_all = mdp._evaluate(m.P, m.r, pi_o[None, None], [gamma])
                worst = max(worst, _deviation(V_all[0, 0, 0], oracle_policy_value(m, pi_o, gamma)),
                            abs(policy_value(m, pi_o, gamma)
                                - oracle_policy_value(m, pi_o, gamma)[0]))
                if gamma == 0.0:
                    continue
                expected = oracle_report(m, pi_star, pi_o, gamma)
                worst = max(worst,
                            _deviation(astuple(suboptimality_bound(m, pi_star, pi_o, gamma)),
                                       expected),
                            _deviation(astuple(suboptimality_decompose(
                                m, pi_star, pi_o, gamma)), expected))
        print(f"max deviation from the per-discount oracle: {worst:.2e}")
        assert worst <= 1e-12, worst

    @pytest.mark.parametrize("S,A,H,seeds", SHAPES)
    def test_verify_bounds_matches_per_gamma_bounds(self, S, A, H, seeds):
        worst = 0.0
        ref = uniform_policy(random_mdp(S, A, H, 1.0, seed=0))
        beta = 0.3
        stack = verify_bounds(random_stack(S, A, H, 1.0, range(seeds)), ref, beta, GAMMAS)
        assert stack.shape == (seeds, len(GAMMAS), 8)  # every seed in one stack
        for seed, reports in enumerate(stack):
            m = random_mdp(S, A, H, 1.0, seed=seed)
            _, pi_star = soft_value_iteration(m, ref, beta, 1.0)
            _, _, pi_star_o = oracle_soft_value_iteration(m, ref, beta, 1.0)
            for gamma, fields in zip(GAMMAS, reports):
                _, pi = soft_value_iteration(m, ref, beta, gamma)
                per_gamma = suboptimality_bound(m, pi_star, pi, gamma)
                _, _, pi_o = oracle_soft_value_iteration(m, ref, beta, gamma)
                rep = (gamma, *fields)
                worst = max(worst, _deviation(rep, astuple(per_gamma)),
                            _deviation(rep, oracle_report(m, pi_star_o, pi_o, gamma)))
                assert fields[3] <= fields[6] + 1e-9  # subopt <= bound_total
        print(f"max deviation from per-gamma bounds and the oracle: {worst:.2e}")
        assert worst <= 1e-12, worst

    def test_repeated_gammas_give_the_same_rows(self):
        m = random_mdp(4, 3, 8, 1.0, seed=3)
        [(a, b, c)] = verify_bounds(stack_of(m), uniform_policy(m), 0.3, [0.9, 0.7, 0.9])
        assert _deviation(a, c) <= 1e-12
        assert _deviation(a, b) > 1e-3

    def test_stack_rows_equal_stacks_of_one(self):
        # each MDP keeps its own reward bound R inside the stack; A = 16 sums
        # over actions in the order that A >= 8 changes
        for S, A, H in ((5, 2, 12), (6, 16, 7)):
            mdps = [random_mdp(S, A, H, R, seed=seed)
                    for seed, R in enumerate((0.5, 1.0, 2.0, 3.5))]
            ref = uniform_policy(mdps[0])
            stack = verify_bounds(stack_of(*mdps), ref, 0.3, GAMMAS)
            for m, reports in zip(mdps, stack):
                alone = verify_bounds(stack_of(m), ref, 0.3, GAMMAS)[0]
                assert reports.tobytes() == alone.tobytes()  # bit for bit
                assert all(fields[4] == 2.0 * (m.H - discount_horizon(gamma, m.H)) * m.R[0]
                           for gamma, fields in zip(GAMMAS, reports))  # bound_term1

    def test_each_discount_solved_once_and_a_gamma_one_row_is_zero(self, monkeypatch):
        """The backup and the evaluation see each discount of [1, *gammas]
        once, and a gamma = 1 row is pi* against itself: every field 0."""
        seen = {}
        for name, at in (("_soft_backup", 4), ("_evaluate", 3)):  # where gammas is passed
            def spy(*args, name=name, at=at, real=getattr(mdp, name)):
                seen[name] = list(args[at])
                return real(*args)
            monkeypatch.setattr(mdp, name, spy)
        stack = random_stack(4, 3, 8, 1.0, range(3))
        reports = verify_bounds(stack, uniform_policy(stack), 0.3, GAMMAS)
        assert seen["_soft_backup"] == [1.0, 0.5, 0.9, 0.98, 0.31]
        assert seen["_evaluate"] == [1.0, 0.5, 0.9, 0.98, 0.31]
        rows = reports[:, [i for i, gamma in enumerate(GAMMAS) if gamma == 1.0]]
        assert rows.shape == (3, 2, 8) and np.all(rows == 0.0)
        assert np.all(reports[:, 0, 3] > 0.0)  # gamma = 0.5 is not pi*

    def test_verify_bounds_rejects_an_empty_stack(self):
        with pytest.raises(ValueError, match="at least one MDP"):
            random_stack(2, 2, 3, 1.0, [])
        with pytest.raises(ValueError, match="at least one MDP"):
            MDPStack(P=np.empty((0, 2, 2, 2)), r=np.empty((0, 2, 2)), H=3, R=np.empty(0))

    @pytest.mark.parametrize("other", [(3, 2, 3), (2, 3, 3), (2, 2, 4)])
    def test_verify_bounds_rejects_mixed_shapes(self, other):
        # a stack holds one (S, A, H), and its reference policy must have it too
        stack = random_stack(2, 2, 3, 1.0, range(3))
        with pytest.raises(ValueError, match="policy shape"):
            verify_bounds(stack, uniform_policy(random_mdp(*other, 1.0, seed=1)), 0.3, [0.9])

    def test_verify_bounds_rejects_gamma_outside_unit_interval(self):
        stack = random_stack(2, 2, 3, 1.0, [0])
        for gammas in ([0.0], [0.5, 1.5], [-0.1]):
            with pytest.raises(ValueError, match="gamma"):
                verify_bounds(stack, uniform_policy(stack), 0.3, gammas)


class TestValidatedBeforeSolving:
    """Bad discounts and trajectories are rejected before the backup runs."""

    @pytest.fixture(autouse=True)
    def no_backup(self, monkeypatch):
        def backup(*args, **kwargs):
            raise AssertionError("the backup ran before the arguments were checked")
        monkeypatch.setattr(mdp, "_soft_backup", backup)

    @pytest.mark.parametrize("gammas", [[0.0], [0.9, 1.5], [-0.1]])
    def test_verify_bounds_gamma(self, gammas):
        stack = random_stack(2, 2, 3, 1.0, [0, 1])
        with pytest.raises(ValueError, match=r"^gamma must be in \(0, 1\]$"):
            verify_bounds(stack, uniform_policy(stack), 0.3, gammas)

    def test_suboptimality_bound_gamma(self):
        m = random_mdp(2, 2, 3, 1.0, seed=0)
        rows = [(suboptimality_bound, 0.0)] + [
            (suboptimality_decompose, gamma) for gamma in (0.0, 1.5, float("nan"))]
        for report, gamma in rows:
            with pytest.raises(ValueError, match=r"^gamma must be in \(0, 1\]$"):
                report(m, uniform_policy(m), uniform_policy(m), gamma)

    @pytest.mark.parametrize("trajectory,message", [
        ([], "trajectory length must be in"), ([(0, 0)] * 4, "trajectory length must be in"),
        ([(0, 2)], "invalid state/action at step 0"),
        ([(0, 0), (2, 0)], "invalid state/action at step 1")])
    def test_trajectory_identity_check(self, trajectory, message):
        m = random_mdp(2, 2, 3, 1.0, seed=1, deterministic=True)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            trajectory_identity_check(m, uniform_policy(m), 0.5, 0.9, trajectory)


class TestRewardScale:
    """4 H^2 R must be finite: no report can then overflow."""

    def test_overflowing_draw_rejected_naming_r_and_h(self):
        for draw in (random_mdp, lambda *args: random_stack(*args[:4], [args[4]])):
            with pytest.raises(ValueError, match=r"^reward bound R .* H = 3\b"):
                draw(2, 2, 3, 1e308, 0)

    @pytest.mark.parametrize("H", [8, 64])
    def test_largest_accepted_bound_gives_finite_reports(self, H):
        R = mdp._largest_R(H)
        assert np.isfinite(4.0 * H * H * R)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = random_stack(6, 4, H, R, range(3))
            reports = verify_bounds(stack, uniform_policy(stack), 0.3, [0.5, 0.9, 0.98, 1.0])
            assert np.isfinite(reports).all()
            # the largest total the bound can reach: tv = 1 at gamma = 1, 2 H^2 R
            m = random_mdp(3, 2, H, R, seed=0)
            a, b = np.zeros((H, 3, 2)), np.zeros((H, 3, 2))
            a[..., 0], b[..., 1] = 1.0, 1.0
            total = suboptimality_bound(m, a, b, 1.0).bound_total
        assert np.isfinite(total) and total == pytest.approx(2.0 * H * H * R, rel=1e-12)

    def test_one_step_larger_bound_rejected(self):
        H = 64
        R = np.nextafter(mdp._largest_R(H), np.inf)
        with pytest.raises(ValueError, match=r"^reward bound R can overflow at horizon H = 64"):
            random_stack(2, 2, H, R, [0])
        m = random_mdp(2, 2, H, 1.0, seed=0)
        with pytest.raises(ValueError, match=r" H = 64: .* \(MDP 1 of the stack\)$"):
            MDPStack(P=np.concatenate([m.P, m.P]), r=np.concatenate([m.r, m.r]), H=H,
                     R=np.array([1.0, R]))


class TestDeterministicTransitions:
    @pytest.mark.parametrize("S", [1, 2, 5, 9])
    @pytest.mark.parametrize("A", [1, 3, 4])
    def test_one_hot_table_matches_loop_fill(self, S, A):
        for seed in range(12):
            m = random_mdp(S, A, 3, 1.5, seed=seed, deterministic=True)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            P = np.zeros((S, A, S))
            nxt = rng.integers(0, S, size=(S, A))
            for s in range(S):
                for a in range(A):
                    P[s, a, nxt[s, a]] = 1.0
            r = rng.uniform(-1.5, 1.5, size=(S, A))
            assert m.P[0].tobytes() == P.tobytes() and m.P[0].shape == P.shape
            assert m.r[0].tobytes() == r.tobytes()



class TestStackedDraw:
    @pytest.mark.parametrize("S,A,H,seeds", [(4, 3, 8, range(100)), (64, 16, 64, [0, 7, 9])])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_every_mdp_equals_random_mdp_of_its_seed(self, S, A, H, seeds, deterministic):
        stack = random_stack(S, A, H, 2.5, seeds, deterministic)
        assert stack.P.shape == (len(seeds), S, A, S) and stack.r.shape == (len(seeds), S, A)
        assert stack.R.tolist() == [2.5] * len(seeds)
        for b, seed in enumerate(seeds):
            m = random_mdp(S, A, H, 2.5, seed, deterministic)
            assert stack.P[b].tobytes() == m.P[0].tobytes()  # bit for bit
            assert stack.r[b].tobytes() == m.r[0].tobytes()

    @staticmethod
    def _spoil(kind, P, r):
        """Make MDP 2 of the stack fail one check."""
        if kind == "P not finite":
            P[2, 1, 0] = np.nan
        elif kind == "P infinite":
            P[2, 0, 1, 1] = np.inf
        elif kind == "r not finite":
            r[2, 2, 1] = -np.inf
        elif kind == "rows":
            P[2, 1, 1] *= 0.9
        elif kind == "negative":
            P[2, 0, 0] = [-0.5, 1.5, 0.0]  # the row still sums to 1
        else:
            r[2, 1, 0] = 1.0 + 1e-9

    @pytest.mark.parametrize("kind", ["P not finite", "P infinite", "r not finite", "rows",
                                      "negative", "reward"])
    def test_check_rejects_like_tabular_mdp_and_names_the_mdp(self, kind):
        good = random_stack(3, 2, 4, 1.0, range(5))
        P, r = good.P.copy(), good.r.copy()
        self._spoil(kind, P, r)
        with pytest.raises(ValueError) as single:
            MDPStack(P=P[2:3], r=r[2:3], H=4, R=good.R[2:3])  # a stack of one
        with pytest.raises(ValueError) as stacked:
            MDPStack(P=P, r=r, H=4, R=good.R)
        assert str(stacked.value) == f"{single.value} (MDP 2 of the stack)"

    def test_check_names_the_first_bad_mdp(self):
        good = random_stack(3, 2, 4, 1.0, range(5))
        r = good.r.copy()
        r[4, 0, 0], r[1, 2, 1] = 1.5, -1.5
        with pytest.raises(ValueError, match=r"^rewards exceed the stated bound R \(MDP 1 "):
            MDPStack(P=good.P, r=r, H=4, R=good.R)
        # each MDP is checked against its own bound
        MDPStack(P=good.P, r=r, H=4, R=np.array([1.0, 1.5, 1.0, 1.0, 1.5]))

    def test_inconsistent_shapes_rejected(self):
        good = random_stack(3, 2, 4, 1.0, range(2))
        for P, r, R in [(good.P, good.r[:, :2], good.R), (good.P, good.r[:1], good.R),
                        (good.P[..., :2], good.r, good.R), (good.P, good.r, good.R[:1])]:
            with pytest.raises(ValueError, match="inconsistent"):
                MDPStack(P=P, r=r, H=4, R=R)
        with pytest.raises(ValueError, match="horizon"):
            MDPStack(P=good.P, r=good.r, H=0, R=good.R)


def _malformed(m):
    good = uniform_policy(m)
    negative = good.copy()
    negative[0, 0, 0], negative[0, 0, 1] = -0.5, negative[0, 0, 1] + 0.5 + good[0, 0, 0]
    nan = good.copy()
    nan[-1, -1, 0] = np.nan
    return {"shape": good[:-1], "state_action": good[0], "negative": negative,
            "unnormalized": good * 0.9, "nan": nan}


PUBLIC_ENTRIES = {
    "policy_value": lambda m, bad, good: policy_value(m, bad, 0.9),
    "decompose_pi_star": lambda m, bad, good: suboptimality_decompose(m, bad, good, 0.9),
    "decompose_pi": lambda m, bad, good: suboptimality_decompose(m, good, bad, 0.9),
    "bound_pi_star": lambda m, bad, good: suboptimality_bound(m, bad, good, 0.9),
    "bound_pi": lambda m, bad, good: suboptimality_bound(m, good, bad, 0.9),
    # the occupancy TV, read from the bound's report at gamma = 1
    "occupancy_tv_pi_star": lambda m, bad, good: suboptimality_bound(
        m, bad, good, 1.0).tv_expectation,
    "occupancy_tv_pi": lambda m, bad, good: suboptimality_bound(m, good, bad, 1.0).tv_expectation,
    "soft_value_iteration": lambda m, bad, good: soft_value_iteration(m, bad, 0.3, 0.9),
    "trajectory_identity_check": lambda m, bad, good: trajectory_identity_check(
        m, bad, 0.3, 0.9, [(0, 0)]),
    "verify_bounds": lambda m, bad, good: verify_bounds(stack_of(m), bad, 0.3, [0.9]),
}


@pytest.mark.parametrize("entry", sorted(PUBLIC_ENTRIES))
@pytest.mark.parametrize("kind", ["shape", "state_action", "negative", "unnormalized", "nan"])
def test_every_public_entry_rejects_malformed_policy(entry, kind):
    m = random_mdp(3, 2, 4, 1.0, seed=21)
    with pytest.raises(ValueError, match="policy"):
        PUBLIC_ENTRIES[entry](m, _malformed(m)[kind], uniform_policy(m))


ONE_MDP = r"^expected a stack of one MDP, got a stack of 2$"


@pytest.mark.parametrize("entry", sorted(set(PUBLIC_ENTRIES) - {"verify_bounds"}))
def test_every_single_mdp_entry_rejects_a_stack_of_two(entry):
    two = random_stack(3, 2, 4, 1.0, [21, 22])
    good = uniform_policy(two)
    with pytest.raises(ValueError, match=ONE_MDP):
        PUBLIC_ENTRIES[entry](two, good, good)


def test_enumerate_trajectories_rejects_a_stack_of_two():
    with pytest.raises(ValueError, match=ONE_MDP):
        enumerate_trajectories(random_stack(2, 2, 3, 1.0, [0, 1], deterministic=True))

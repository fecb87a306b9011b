from dataclasses import astuple

import numpy as np
import pytest
from scipy.special import logsumexp

from decaypo import mdp
from decaypo.mdp import (TabularMDP, discount_horizon, enumerate_trajectories,
                         occupancy_tv, policy_value, random_mdp,
                         soft_value_iteration, state_visitation,
                         suboptimality_decompose, suboptimality_bound,
                         trajectory_identity_check, uniform_policy,
                         validate_policy, verify_bounds)


class TestTabularMDP:
    def test_single_state_single_action(self):
        m = random_mdp(1, 1, 3, 1.0, seed=0)
        assert m.P[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        a, b = random_mdp(4, 3, 5, 2.0, seed=9), random_mdp(4, 3, 5, 2.0, seed=9)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.r, b.r)

    def test_invariant_sweep(self):
        for seed in range(200):
            m = random_mdp(3, 2, 4, 1.5, seed=seed)
            assert np.max(np.abs(np.sum(m.P, axis=2) - 1.0)) <= 1e-12
            assert np.max(np.abs(m.r)) <= 1.5

    def test_bad_transitions_rejected(self):
        P = np.ones((2, 2, 2)) * 0.6
        with pytest.raises(ValueError):
            TabularMDP(P=P, r=np.zeros((2, 2)), H=2, R=1.0)

    def test_reward_bound_enforced(self):
        m = random_mdp(2, 2, 2, 1.0, seed=1)
        with pytest.raises(ValueError):
            TabularMDP(P=m.P, r=m.r * 5, H=2, R=1.0)

    @pytest.mark.parametrize("field", ["P", "r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_the_field(self, field, bad):
        m = random_mdp(2, 2, 3, 1.0, 0)
        arrays = {"P": m.P.copy(), "r": m.r.copy()}
        if field == "P":
            arrays["P"][1, 0] = bad  # one whole transition row
        else:
            arrays["r"][0, 1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TabularMDP(P=arrays["P"], r=arrays["r"], H=3, R=1.0)


class TestSoftValueIteration:
    def test_one_step_hand_check(self):
        # H=1, A=2, rewards [1, 0], uniform ref, beta=1
        P = np.ones((1, 2, 1))
        m = TabularMDP(P=P, r=np.array([[1.0, 0.0]]), H=1, R=1.0)
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
        expected = m.r + 0.5 * np.log(0.5)
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
        V2 = np.zeros(m.S)
        for t in range(m.H - 1, -1, -1):
            Q2 = np.empty((m.S, m.A))
            for s in range(m.S):
                for a in range(m.A):
                    Q2[s, a] = m.r[s, a] + beta * np.log(ref[t, s, a]) + m.P[s, a] @ V2
            V2 = beta * np.log(np.sum(np.exp(Q2 / beta), axis=1))
            assert np.allclose(Q[t], Q2, atol=1e-10)
        assert np.allclose(V[0], V2, atol=1e-10)


class TestPolicyValue:
    def test_deterministic_chain_geometric_sum(self):
        S, H, c = 3, 5, 0.7
        P = np.zeros((S, 1, S))
        for s in range(S):
            P[s, 0, (s + 1) % S] = 1.0
        m = TabularMDP(P=P, r=np.full((S, 1), c), H=H, R=1.0)
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
            returns += gamma ** t * m.r[states, actions]
            u2 = rng.random(n)
            states = (u2[:, None] > np.cumsum(m.P[states, actions], axis=1)).sum(axis=1)
        se = np.std(returns, ddof=1) / np.sqrt(n)
        assert abs(np.mean(returns) - exact) <= 3 * se


class TestTrajectoryIdentity:
    def test_single_step(self):
        m = random_mdp(3, 2, 1, 1.0, seed=12)
        for a in range(2):
            lhs, rhs, res = trajectory_identity_check(
                m, uniform_policy(m), beta=0.7, gamma=0.9, trajectory=[(0, a)])
            assert res <= 1e-12
            assert lhs == pytest.approx(m.r[0, a], abs=1e-12)

    def test_full_length_deterministic(self):
        for seed in range(5):
            m = random_mdp(3, 2, 4, 1.0, seed=seed, deterministic=True)
            for gamma in (0.5, 0.9, 1.0):
                for traj in enumerate_trajectories(m):
                    _, _, res = trajectory_identity_check(
                        m, uniform_policy(m), 0.5, gamma, traj)
                    assert res <= 1e-8

    def test_impossible_transition_rejected(self):
        m = random_mdp(2, 2, 3, 1.0, seed=1, deterministic=True)
        s0, a0 = 0, 0
        next_state = int(np.argmax(m.P[s0, a0]))
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


class TestOccupancy:
    def test_identical_policies(self):
        m = random_mdp(3, 2, 4, 1.0, seed=15)
        pi = uniform_policy(m)
        assert occupancy_tv(m, pi, pi) == 0.0

    def test_total_disagreement(self):
        m = random_mdp(3, 2, 4, 1.0, seed=16)
        a = np.zeros((m.H, m.S, m.A))
        b = np.zeros((m.H, m.S, m.A))
        a[:, :, 0] = 1.0
        b[:, :, 1] = 1.0
        assert occupancy_tv(m, a, b) == pytest.approx(1.0, abs=1e-12)

    def test_visitation_matches_path_enumeration(self):
        m = random_mdp(3, 2, 3, 1.0, seed=17)
        _, pi = soft_value_iteration(m, uniform_policy(m), 0.5, 0.9)
        d = state_visitation(m, pi)
        # brute force: sum over all (action, state) paths
        expected = np.zeros((m.H, m.S))
        expected[0, 0] = 1.0
        for t in range(1, m.H):
            for s_prev in range(m.S):
                for a in range(m.A):
                    for s in range(m.S):
                        expected[t, s] += (expected[t - 1, s_prev]
                                           * pi[t - 1, s_prev, a]
                                           * m.P[s_prev, a, s])
            assert np.sum(expected[t]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(d, expected, atol=1e-12)

    def test_result_in_unit_interval(self):
        for seed in range(20):
            m = random_mdp(3, 3, 4, 1.0, seed=seed)
            ref = uniform_policy(m)
            _, a = soft_value_iteration(m, ref, 0.2, 1.0)
            _, b = soft_value_iteration(m, ref, 0.2, 0.5)
            assert 0.0 <= occupancy_tv(m, a, b) <= 1.0


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
            2 * m.H ** 2 * rep.tv_expectation * m.R, abs=1e-12)

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
                assert rep.delta1 <= (m.H - g) * m.R + 1e-9
                assert rep.delta3 <= (m.H - g) * m.R + 1e-9

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
        with pytest.raises(ValueError):
            validate_policy(m, np.ones((2, 2, 2)) / 2)

    def test_policy_rows_must_normalize(self):
        m = random_mdp(2, 2, 3, 1.0, seed=20)
        with pytest.raises(ValueError):
            validate_policy(m, np.full((3, 2, 2), 0.3))


# ---------------------------------------------------------------------------
# the stacked core against a per-discount oracle

def oracle_soft_value_iteration(m, ref, beta, gamma):
    """One discount at a time, with scipy's logsumexp and an explicit
    renormalization of each policy row."""
    V = np.zeros((m.H + 1, m.S))
    Q = np.zeros((m.H, m.S, m.A))
    pi = np.zeros((m.H, m.S, m.A))
    for t in range(m.H - 1, -1, -1):
        Q[t] = m.r + beta * np.log(ref[t]) + gamma * (m.P @ V[t + 1])
        V[t] = beta * logsumexp(Q[t] / beta, axis=1)
        pi[t] = np.exp((Q[t] - V[t][:, None]) / beta)
        pi[t] /= np.sum(pi[t], axis=1, keepdims=True)
    return V, Q, pi


def oracle_policy_value(m, pi, gamma):
    V = np.zeros(m.S)
    for t in range(m.H - 1, -1, -1):
        V = np.sum(pi[t] * (m.r + gamma * (m.P @ V)), axis=1)
    return V


def oracle_occupancy_tv(m, pi_star, pi):
    d = np.zeros((m.H, m.S))
    d[0, 0] = 1.0
    for t in range(m.H - 1):
        d[t + 1] = np.einsum("sa,sak->k", d[t][:, None] * pi_star[t], m.P)
    return float(np.mean(np.sum(d * 0.5 * np.sum(np.abs(pi_star - pi), axis=2), axis=1)))


def oracle_report(m, pi_star, pi, gamma):
    v1_star, vg_star = (oracle_policy_value(m, pi_star, g)[0] for g in (1.0, gamma))
    vg, v1 = (oracle_policy_value(m, pi, g)[0] for g in (gamma, 1.0))
    g = discount_horizon(gamma, m.H)
    tv = oracle_occupancy_tv(m, pi_star, pi)
    term1, term2 = 2.0 * (m.H - g) * m.R, 2.0 * g * g * tv * m.R
    return (gamma, v1_star - vg_star, vg_star - vg, vg - v1, v1_star - v1,
            term1, term2, term1 + term2, tv)


# (S, A, H, seeds): random shapes plus the edge shapes S=1, A=1, H=1
SHAPES = [(4, 3, 8, 30), (5, 2, 12, 10), (1, 3, 6, 5), (4, 1, 6, 5), (3, 3, 1, 5),
          (1, 1, 1, 3), (7, 4, 5, 5)]
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
                worst = max(worst, _deviation(mdp._evaluate(m, pi_o[None], [gamma])[0, 0],
                                              oracle_policy_value(m, pi_o, gamma)),
                            abs(policy_value(m, pi_o, gamma)
                                - oracle_policy_value(m, pi_o, gamma)[0]))
                if gamma == 0.0:
                    continue
                expected = oracle_report(m, pi_star, pi_o, gamma)
                worst = max(worst,
                            _deviation(astuple(suboptimality_bound(m, pi_star, pi_o, gamma)),
                                       expected),
                            _deviation(astuple(suboptimality_decompose(
                                m, pi_star, pi_o, gamma))[1:5], expected[1:5]),
                            abs(occupancy_tv(m, pi_star, pi_o) - expected[-1]))
        print(f"max deviation from the per-discount oracle: {worst:.2e}")
        assert worst <= 1e-12, worst

    @pytest.mark.parametrize("S,A,H,seeds", SHAPES)
    def test_verify_bounds_matches_per_gamma_bounds(self, S, A, H, seeds):
        worst = 0.0
        for seed in range(seeds):
            m = random_mdp(S, A, H, 1.0, seed=seed)
            ref = uniform_policy(m)
            beta = 0.3
            reports = verify_bounds(m, ref, beta, GAMMAS)
            assert [r.gamma for r in reports] == GAMMAS
            _, pi_star = soft_value_iteration(m, ref, beta, 1.0)
            _, _, pi_star_o = oracle_soft_value_iteration(m, ref, beta, 1.0)
            for gamma, rep in zip(GAMMAS, reports):
                _, pi = soft_value_iteration(m, ref, beta, gamma)
                per_gamma = suboptimality_bound(m, pi_star, pi, gamma)
                _, _, pi_o = oracle_soft_value_iteration(m, ref, beta, gamma)
                worst = max(worst, _deviation(astuple(rep), astuple(per_gamma)),
                            _deviation(astuple(rep), oracle_report(m, pi_star_o, pi_o, gamma)))
                assert rep.subopt <= rep.bound_total + 1e-9
        print(f"max deviation from per-gamma bounds and the oracle: {worst:.2e}")
        assert worst <= 1e-12, worst

    def test_repeated_gammas_give_the_same_rows(self):
        m = random_mdp(4, 3, 8, 1.0, seed=3)
        a, b, c = verify_bounds(m, uniform_policy(m), 0.3, [0.9, 0.7, 0.9])
        assert _deviation(astuple(a), astuple(c)) <= 1e-12
        assert _deviation(astuple(a), astuple(b)) > 1e-3

    def test_verify_bounds_rejects_gamma_outside_unit_interval(self):
        m = random_mdp(2, 2, 3, 1.0, seed=0)
        for gammas in ([0.0], [0.5, 1.5], [-0.1]):
            with pytest.raises(ValueError, match="gamma"):
                verify_bounds(m, uniform_policy(m), 0.3, gammas)


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
            assert m.P.tobytes() == P.tobytes() and m.P.shape == P.shape
            assert m.r.tobytes() == r.tobytes()


def _malformed(m):
    good = uniform_policy(m)
    negative = good.copy()
    negative[0, 0, 0], negative[0, 0, 1] = -0.5, negative[0, 0, 1] + 0.5 + good[0, 0, 0]
    nan = good.copy()
    nan[-1, -1, 0] = np.nan
    return {"shape": good[:-1], "negative": negative, "unnormalized": good * 0.9, "nan": nan}


PUBLIC_ENTRIES = {
    "validate_policy": lambda m, bad, good: validate_policy(m, bad),
    "policy_value": lambda m, bad, good: policy_value(m, bad, 0.9),
    "state_visitation": lambda m, bad, good: state_visitation(m, bad),
    "decompose_pi_star": lambda m, bad, good: suboptimality_decompose(m, bad, good, 0.9),
    "decompose_pi": lambda m, bad, good: suboptimality_decompose(m, good, bad, 0.9),
    "bound_pi_star": lambda m, bad, good: suboptimality_bound(m, bad, good, 0.9),
    "bound_pi": lambda m, bad, good: suboptimality_bound(m, good, bad, 0.9),
    "occupancy_tv_pi_star": lambda m, bad, good: occupancy_tv(m, bad, good),
    "occupancy_tv_pi": lambda m, bad, good: occupancy_tv(m, good, bad),
    "soft_value_iteration": lambda m, bad, good: soft_value_iteration(m, bad, 0.3, 0.9),
    "trajectory_identity_check": lambda m, bad, good: trajectory_identity_check(
        m, bad, 0.3, 0.9, [(0, 0)]),
    "verify_bounds": lambda m, bad, good: verify_bounds(m, bad, 0.3, [0.9]),
}


@pytest.mark.parametrize("entry", sorted(PUBLIC_ENTRIES))
@pytest.mark.parametrize("kind", ["shape", "negative", "unnormalized", "nan"])
def test_every_public_entry_rejects_malformed_policy(entry, kind):
    m = random_mdp(3, 2, 4, 1.0, seed=21)
    with pytest.raises(ValueError, match="policy"):
        PUBLIC_ENTRIES[entry](m, _malformed(m)[kind], uniform_policy(m))

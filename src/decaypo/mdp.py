"""Finite-horizon tabular MDPs: decayed soft value iteration, exact policy
evaluation, the suboptimality decomposition, and the discount-tradeoff
upper bound with its occupancy total-variation term."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


@dataclass
class TabularMDP:
    P: np.ndarray        # (S, A, S) transition probabilities
    r: np.ndarray        # (S, A) rewards, |r| <= R
    H: int
    R: float
    s0: int = 0

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.float64)
        S, A, S2 = self.P.shape
        if S2 != S or self.r.shape != (S, A):
            raise ValueError("inconsistent transition/reward shapes")
        if self.H < 1:
            raise ValueError("horizon must be >= 1")
        if np.max(np.abs(np.sum(self.P, axis=2) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1")
        if np.any(self.P < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if np.max(np.abs(self.r)) > self.R + 1e-12:
            raise ValueError("rewards exceed the stated bound R")

    @property
    def S(self) -> int:
        return self.P.shape[0]

    @property
    def A(self) -> int:
        return self.P.shape[1]


def validate_policy(mdp: TabularMDP, pi: np.ndarray) -> np.ndarray:
    """A policy table is (H, S, A); rows are distributions over actions."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (mdp.H, mdp.S, mdp.A):
        raise ValueError(f"policy shape {pi.shape} != {(mdp.H, mdp.S, mdp.A)}")
    if np.any(pi < 0) or np.max(np.abs(np.sum(pi, axis=2) - 1.0)) > 1e-12:
        raise ValueError("policy rows must be distributions")
    return pi


def uniform_policy(mdp: TabularMDP) -> np.ndarray:
    return np.full((mdp.H, mdp.S, mdp.A), 1.0 / mdp.A)


def random_mdp(S: int, A: int, H: int, R: float, seed: int,
               deterministic: bool = False) -> TabularMDP:
    """Dirichlet transitions and uniform rewards in [-R, R].

    ``deterministic`` draws one-hot transitions instead; the trajectory
    reward identity telescopes exactly only in that regime (token-level
    MDPs are deterministic).
    """
    if S < 1 or A < 1 or H < 1 or not R > 0:
        raise ValueError("require S, A, H >= 1 and R > 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    if deterministic:
        P = np.zeros((S, A, S))
        nxt = rng.integers(0, S, size=(S, A))
        for s in range(S):
            for a in range(A):
                P[s, a, nxt[s, a]] = 1.0
    else:
        P = rng.dirichlet(np.ones(S), size=(S, A))
    r = rng.uniform(-R, R, size=(S, A))
    return TabularMDP(P=P, r=r, H=H, R=R)


def _ref_table(mdp: TabularMDP, pi_ref) -> np.ndarray:
    pi_ref = np.asarray(pi_ref, dtype=np.float64)
    if pi_ref.shape == (mdp.S, mdp.A):
        pi_ref = np.broadcast_to(pi_ref, (mdp.H, mdp.S, mdp.A))
    return validate_policy(mdp, np.array(pi_ref))


def soft_value_iteration(mdp: TabularMDP, pi_ref, beta: float, gamma: float):
    """Backward induction of the decayed soft Bellman recursion.

    Q[t] = r + beta*log pi_ref + gamma * P V[t+1];
    V[t] = beta * logsumexp(Q[t]/beta); the returned policy is the
    Boltzmann optimum exp((Q - V)/beta), normalized by construction.
    """
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if not 0 <= gamma <= 1:
        # gamma = 0 is allowed: the backup then sees only immediate rewards
        raise ValueError("gamma must be in [0, 1]")
    ref = _ref_table(mdp, pi_ref)
    if np.any(ref <= 0):
        raise ValueError("pi_ref must have full support (zero-probability "
                         "action makes beta*log pi_ref = -inf)")
    H, S, A = mdp.H, mdp.S, mdp.A
    V = np.zeros((H + 1, S))
    Q = np.zeros((H, S, A))
    pi = np.zeros((H, S, A))
    for t in range(H - 1, -1, -1):
        Q[t] = mdp.r + beta * np.log(ref[t]) + gamma * (mdp.P @ V[t + 1])
        V[t] = beta * logsumexp(Q[t] / beta, axis=1)
        pi[t] = np.exp((Q[t] - V[t][:, None]) / beta)
        pi[t] /= np.sum(pi[t], axis=1, keepdims=True)
    return (V, Q), pi


def policy_value(mdp: TabularMDP, pi, gamma: float, s: int | None = None) -> float:
    """Exact expected decayed return by backward induction."""
    pi = validate_policy(mdp, pi)
    V = np.zeros(mdp.S)
    for t in range(mdp.H - 1, -1, -1):
        q = mdp.r + gamma * (mdp.P @ V)
        V = np.sum(pi[t] * q, axis=1)
    return float(V[mdp.s0 if s is None else s])


def trajectory_identity_check(mdp: TabularMDP, pi_ref, beta: float, gamma: float,
                              trajectory):
    """Decayed trajectory reward vs the value-plus-log-ratio telescoping.

    Returns (lhs, rhs, residual). For full-horizon trajectories through
    deterministic transitions the residual is zero up to roundoff.
    """
    (V, Q), pi_star = soft_value_iteration(mdp, pi_ref, beta, gamma)
    ref = _ref_table(mdp, pi_ref)
    if not 1 <= len(trajectory) <= mdp.H:
        raise ValueError("trajectory length must be in [1, H]")
    prev = None
    for t, (s, a) in enumerate(trajectory):
        if not (0 <= s < mdp.S and 0 <= a < mdp.A):
            raise ValueError(f"invalid state/action at step {t}")
        if prev is not None and mdp.P[prev[0], prev[1], s] <= 0.0:
            raise ValueError(f"impossible transition into step {t}")
        prev = (s, a)
    lhs = sum(gamma ** t * mdp.r[s, a] for t, (s, a) in enumerate(trajectory))
    s0 = trajectory[0][0]
    rhs = V[0][s0] + sum(
        gamma ** t * beta * np.log(pi_star[t, s, a] / ref[t, s, a])
        for t, (s, a) in enumerate(trajectory))
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def enumerate_trajectories(mdp: TabularMDP, s0: int | None = None):
    """All positive-probability full-length (s, a) trajectories."""
    start = mdp.s0 if s0 is None else s0

    def extend(prefix, s, t):
        if t == mdp.H:
            yield list(prefix)
            return
        for a in range(mdp.A):
            prefix.append((s, a))
            for s2 in np.nonzero(mdp.P[s, a] > 0)[0]:
                yield from extend(prefix, int(s2), t + 1)
            prefix.pop()

    yield from extend([], start, 0)


@dataclass
class SuboptimalityReport:
    gamma: float
    delta1: float = 0.0
    delta2: float = 0.0
    delta3: float = 0.0
    subopt: float = 0.0
    bound_term1: float = 0.0
    bound_term2: float = 0.0
    bound_total: float = 0.0
    tv_expectation: float = 0.0


def suboptimality_decompose(mdp: TabularMDP, pi_star, pi, gamma: float,
                            s: int | None = None) -> SuboptimalityReport:
    """Split V_1^{pi*} - V_1^{pi} into the two discount-mismatch terms and
    the policy-gap term at discount gamma (evaluation discount fixed at 1)."""
    v1_star = policy_value(mdp, pi_star, 1.0, s)
    vg_star = policy_value(mdp, pi_star, gamma, s)
    vg = policy_value(mdp, pi, gamma, s)
    v1 = policy_value(mdp, pi, 1.0, s)
    return SuboptimalityReport(
        gamma=gamma,
        delta1=v1_star - vg_star,
        delta2=vg_star - vg,
        delta3=vg - v1,
        subopt=v1_star - v1,
    )


def state_visitation(mdp: TabularMDP, pi) -> np.ndarray:
    """d[t, s]: probability of being in s at step t under pi, from s0."""
    pi = validate_policy(mdp, pi)
    d = np.zeros((mdp.H, mdp.S))
    d[0, mdp.s0] = 1.0
    for t in range(mdp.H - 1):
        flow = d[t][:, None] * pi[t]          # (S, A)
        d[t + 1] = np.einsum("sa,sak->k", flow, mdp.P)
    return d


def occupancy_tv(mdp: TabularMDP, pi_star, pi) -> float:
    """Expected TV distance between the policies under pi*'s visitation,
    averaged uniformly (undiscounted) over the H timesteps."""
    pi_star = validate_policy(mdp, pi_star)
    pi = validate_policy(mdp, pi)
    d = state_visitation(mdp, pi_star)
    tv = 0.5 * np.sum(np.abs(pi_star - pi), axis=2)   # (H, S)
    return float(np.mean(np.sum(d * tv, axis=1)))


def discount_horizon(gamma: float, H: int) -> float:
    """(1 - gamma^H) / (1 - gamma), analytic H at gamma = 1."""
    if gamma == 1.0:
        return float(H)
    return float((1.0 - gamma ** H) / (1.0 - gamma))


def suboptimality_bound(mdp: TabularMDP, pi_star, pi, gamma: float,
                   s: int | None = None) -> SuboptimalityReport:
    """Full report: deltas, occupancy TV, and the two bound terms
    2(H - g)R and 2 g^2 tv R with g = (1-gamma^H)/(1-gamma)."""
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    report = suboptimality_decompose(mdp, pi_star, pi, gamma, s)
    g = discount_horizon(gamma, mdp.H)
    tv = occupancy_tv(mdp, pi_star, pi)
    report.tv_expectation = tv
    report.bound_term1 = 2.0 * (mdp.H - g) * mdp.R
    report.bound_term2 = 2.0 * g * g * tv * mdp.R
    report.bound_total = report.bound_term1 + report.bound_term2
    return report

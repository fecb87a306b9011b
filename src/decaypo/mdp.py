"""Finite-horizon tabular MDPs: decayed soft value iteration, exact policy
evaluation, the suboptimality decomposition, and the discount-tradeoff
upper bound with its occupancy total-variation term, all from two backward
passes: a soft backup of stacked discounts, an exact evaluation of pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import rng


@dataclass
class TabularMDP:
    """Every episode starts in state 0."""

    P: np.ndarray        # (S, A, S) transition probabilities
    r: np.ndarray        # (S, A) rewards, |r| <= R
    H: int
    R: float

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.float64)
        S, A, S2 = self.P.shape
        if S2 != S or self.r.shape != (S, A):
            raise ValueError("inconsistent transition/reward shapes")
        if self.H < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("P", "r"):  # NaN would pass every comparison below
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
    if (pi < 0).any() or not abs(pi.sum(axis=2) - 1.0).max() <= 1e-12:  # NaN fails too
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
    draw = rng(seed)
    if deterministic:
        P = np.eye(S)[draw.integers(0, S, size=(S, A))]   # one-hot next states
    else:
        P = draw.dirichlet(np.ones(S), size=(S, A))
    r = draw.uniform(-R, R, size=(S, A))
    return TabularMDP(P=P, r=r, H=H, R=R)


def _ref_table(mdp: TabularMDP, pi_ref) -> np.ndarray:
    pi_ref = np.asarray(pi_ref, dtype=np.float64)
    if pi_ref.shape == (mdp.S, mdp.A):
        pi_ref = np.broadcast_to(pi_ref, (mdp.H, mdp.S, mdp.A))
    return validate_policy(mdp, np.array(pi_ref))


def _soft_backup(mdp: TabularMDP, ref: np.ndarray, beta: float, gammas, Q=None):
    """The soft backup of every discount in ``gammas`` at once, from a
    validated (H, S, A) ``ref``: V (G, H+1, S) and the Boltzmann policies
    (G, H, S, A); fills Q (G, H, S, A) when it is given."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    gammas = np.asarray(gammas, dtype=np.float64)
    if not np.all((0 <= gammas) & (gammas <= 1)):
        # gamma = 0 is allowed: the backup then sees only immediate rewards
        raise ValueError("gamma must be in [0, 1]")
    if np.any(ref <= 0):
        raise ValueError("pi_ref must have full support (zero-probability "
                         "action makes beta*log pi_ref = -inf)")
    G, (H, S, A) = len(gammas), ref.shape
    base = mdp.r + beta * np.log(ref)
    PT = mdp.P.reshape(S * A, S).T                 # V @ PT = P V for every (s, a)
    V, pi = np.zeros((G, H + 1, S)), np.empty((G, H, S, A))
    for t in range(H - 1, -1, -1):
        q = base[t] + gammas[:, None, None] * (V[:, t + 1] @ PT).reshape(G, S, A)
        if Q is not None:
            Q[:, t] = q
        m = q.max(axis=2, keepdims=True)
        e = np.exp((q - m) / beta)
        z = e.sum(axis=2, keepdims=True)
        V[:, t] = (m + beta * np.log(z))[:, :, 0]  # beta * logsumexp(q / beta)
        pi[:, t] = e / z                           # exp((q - V) / beta)
    return V, pi


def _evaluate(mdp: TabularMDP, pis: np.ndarray, gammas) -> np.ndarray:
    """V[p, d, s]: the exact decayed return of pis[p] at discount gammas[d]
    from s, by one backward induction; each step forms every policy's state
    transitions once and applies them to all discounts."""
    V = np.zeros((len(pis), len(gammas), mdp.S))
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    reward = np.einsum("phsa,sa->hps", pis, mdp.r)[:, :, None]
    steps = pis.transpose(1, 2, 0, 3)              # (H, S, P, A)
    for t in range(mdp.H - 1, -1, -1):
        M = steps[t] @ mdp.P                       # M[s, p, k] = P^{pi_p}(k | s)
        V = reward[t] + g * (V @ M.transpose(1, 2, 0))
    return V


def _visitation(mdp: TabularMDP, pi: np.ndarray) -> np.ndarray:
    d = np.zeros((mdp.H, mdp.S))
    d[0, 0] = 1.0
    for t in range(mdp.H - 1):
        d[t + 1] = (d[t][:, None] * pi[t]).reshape(-1) @ mdp.P.reshape(-1, mdp.S)
    return d


def soft_value_iteration(mdp: TabularMDP, pi_ref, beta: float, gamma: float):
    """Backward induction of the decayed soft Bellman recursion.

    Q[t] = r + beta*log pi_ref + gamma * P V[t+1];
    V[t] = beta * logsumexp(Q[t]/beta); the returned policy is the
    Boltzmann optimum exp((Q - V)/beta), normalized by construction.
    """
    Q = np.empty((1, mdp.H, mdp.S, mdp.A))
    V, pi = _soft_backup(mdp, _ref_table(mdp, pi_ref), beta, [gamma], Q)
    return (V[0], Q[0]), pi[0]


def policy_value(mdp: TabularMDP, pi, gamma: float) -> float:
    """Exact expected decayed return from state 0 by backward induction."""
    V = _evaluate(mdp, validate_policy(mdp, pi)[None], [gamma])
    return float(V[0, 0, 0])


def trajectory_identity_check(mdp: TabularMDP, pi_ref, beta: float, gamma: float,
                              trajectory):
    """Decayed trajectory reward vs the value-plus-log-ratio telescoping.

    Returns (lhs, rhs, residual). For full-horizon trajectories through
    deterministic transitions the residual is zero up to roundoff.
    """
    ref = _ref_table(mdp, pi_ref)
    (V,), (pi_star,) = _soft_backup(mdp, ref, beta, [gamma])
    if not 1 <= len(trajectory) <= mdp.H:
        raise ValueError("trajectory length must be in [1, H]")
    for t, (s, a) in enumerate(trajectory):
        if not (0 <= s < mdp.S and 0 <= a < mdp.A):
            raise ValueError(f"invalid state/action at step {t}")
        if t and mdp.P[trajectory[t - 1][0], trajectory[t - 1][1], s] <= 0.0:
            raise ValueError(f"impossible transition into step {t}")
    lhs = sum(gamma ** t * mdp.r[s, a] for t, (s, a) in enumerate(trajectory))
    s0 = trajectory[0][0]
    rhs = V[0][s0] + sum(
        gamma ** t * beta * np.log(pi_star[t, s, a] / ref[t, s, a])
        for t, (s, a) in enumerate(trajectory))
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def enumerate_trajectories(mdp: TabularMDP):
    """All positive-probability full-length (s, a) trajectories from state 0."""

    def extend(prefix, s, t):
        if t == mdp.H:
            yield list(prefix)
            return
        for a in range(mdp.A):
            prefix.append((s, a))
            for s2 in np.nonzero(mdp.P[s, a] > 0)[0]:
                yield from extend(prefix, int(s2), t + 1)
            prefix.pop()

    yield from extend([], 0, 0)


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


def _reports(mdp: TabularMDP, pis: np.ndarray, gammas, bound: bool):
    """Reports of pis[1 + i] against pi* = pis[0] at gammas[i]: the
    decomposition and, with ``bound``, the occupancy TV and the bound
    terms, for which pis[1:] is overwritten with |pis[1:] - pis[0]|."""
    if bound and not all(0 < g <= 1 for g in gammas):
        raise ValueError("gamma must be in (0, 1]")
    V = _evaluate(mdp, pis, [1.0, *gammas])[:, :, 0]
    i = np.arange(1, len(gammas) + 1)
    v1_star, vg_star, vg, v1 = V[0, 0], V[0, i], V[i, i], V[i, 0]
    reports = [SuboptimalityReport(gamma, *map(float, deltas)) for gamma, *deltas in zip(
        gammas, v1_star - vg_star, vg_star - vg, vg - v1, v1_star - v1)]
    if bound:
        gaps = np.abs(np.subtract(pis[1:], pis[0], out=pis[1:]), out=pis[1:])
        tvs = 0.5 * np.einsum("hs,khsa->k", _visitation(mdp, pis[0]), gaps) / mdp.H
        for rep, tv in zip(reports, tvs):
            g = discount_horizon(rep.gamma, mdp.H)
            rep.tv_expectation = float(tv)
            rep.bound_term1 = 2.0 * (mdp.H - g) * mdp.R
            rep.bound_term2 = 2.0 * g * g * rep.tv_expectation * mdp.R
            rep.bound_total = rep.bound_term1 + rep.bound_term2
    return reports


def suboptimality_decompose(mdp: TabularMDP, pi_star, pi, gamma: float) -> SuboptimalityReport:
    """Split V_1^{pi*} - V_1^{pi} into the two discount-mismatch terms and
    the policy-gap term at discount gamma (evaluation discount fixed at 1)."""
    pis = np.stack([validate_policy(mdp, pi_star), validate_policy(mdp, pi)])
    return _reports(mdp, pis, [gamma], bound=False)[0]


def state_visitation(mdp: TabularMDP, pi) -> np.ndarray:
    """d[t, s]: probability of being in s at step t under pi, from state 0."""
    return _visitation(mdp, validate_policy(mdp, pi))


def occupancy_tv(mdp: TabularMDP, pi_star, pi) -> float:
    """Expected TV distance between the policies under pi*'s visitation,
    averaged uniformly (undiscounted) over the H timesteps."""
    return suboptimality_bound(mdp, pi_star, pi, 1.0).tv_expectation


def discount_horizon(gamma: float, H: int) -> float:
    """(1 - gamma^H) / (1 - gamma), analytic H at gamma = 1."""
    if gamma == 1.0:
        return float(H)
    return float((1.0 - gamma ** H) / (1.0 - gamma))


def suboptimality_bound(mdp: TabularMDP, pi_star, pi, gamma: float) -> SuboptimalityReport:
    """Full report: deltas, occupancy TV, and the two bound terms
    2(H - g)R and 2 g^2 tv R with g = (1-gamma^H)/(1-gamma)."""
    pis = np.stack([validate_policy(mdp, pi_star), validate_policy(mdp, pi)])
    return _reports(mdp, pis, [gamma], bound=True)[0]


def verify_bounds(mdp: TabularMDP, pi_ref, beta: float, gammas) -> list[SuboptimalityReport]:
    """suboptimality_bound of the soft optimum at each gamma against pi*, the
    one at gamma = 1, from a single backup of [1, *gammas]."""
    gammas = [float(g) for g in gammas]
    _, pis = _soft_backup(mdp, _ref_table(mdp, pi_ref), beta, [1.0, *gammas])
    return _reports(mdp, pis, gammas, bound=True)

"""Finite-horizon tabular MDPs: decayed soft value iteration, exact policy
evaluation, the suboptimality decomposition, and the discount-tradeoff
upper bound with its occupancy total-variation term, all from two backward
passes over a stack of same-shape MDPs: a soft backup of stacked discounts,
an exact evaluation of pairs. The backup works action-major, so that each
reduction over actions runs down contiguous rows of states, and returns pi
and Q state-major like everything else here. MDPStack is the one MDP type:
a single MDP is a stack of one, and the single-MDP functions take one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import rng


@dataclass
class MDPStack:
    """B MDPs of one (S, A, H), each with its own reward bound; every
    episode starts in state 0."""

    P: np.ndarray        # (B, S, A, S) transition probabilities
    r: np.ndarray        # (B, S, A) rewards, |r[b]| <= R[b]
    H: int
    R: np.ndarray        # (B,) reward bounds

    S = property(lambda self: self.P.shape[1])
    A = property(lambda self: self.P.shape[2])

    def __post_init__(self):
        self.P, self.r, self.R = (np.asarray(x, dtype=np.float64) for x in (self.P, self.r, self.R))
        B, S, A, S2 = self.P.shape
        if B < 1:
            raise ValueError("a stack needs at least one MDP")
        if S2 != S or self.r.shape != (B, S, A) or self.R.shape != (B,):
            raise ValueError("inconsistent transition/reward shapes")
        if self.H < 1:
            raise ValueError("horizon must be >= 1")
        P, r, R = self.P, self.r, self.R[:, None, None]
        for message, check in {
                "P must be finite": lambda: np.isfinite(P),  # NaN would pass every later check
                "r must be finite": lambda: np.isfinite(r),
                "transition rows must sum to 1": lambda: np.abs(P.sum(axis=3) - 1.0) <= 1e-12,
                "transition probabilities must be nonnegative": lambda: P >= 0,
                "rewards exceed the stated bound R": lambda: np.abs(r) <= R + 1e-12,
                _scale_error(self.H): lambda: self.R <= _largest_R(self.H),
        }.items():
            ok = check()
            if not ok.all():
                raise ValueError(message if B == 1 else
                                 f"{message} (MDP {np.argwhere(~ok)[0, 0]} of the stack)")


def _one(mdp: MDPStack) -> MDPStack:
    """``mdp`` itself, which a single-MDP function needs to be a stack of one."""
    if len(mdp.P) != 1:
        raise ValueError(f"expected a stack of one MDP, got a stack of {len(mdp.P)}")
    return mdp


def _policy(stack: MDPStack, pi) -> np.ndarray:
    """A policy table is (H, S, A), shared by every MDP of ``stack``; rows
    are distributions over actions."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (stack.H, stack.S, stack.A):
        raise ValueError(f"policy shape {pi.shape} != {(stack.H, stack.S, stack.A)}")
    if (pi < 0).any() or not abs(pi.sum(axis=2) - 1.0).max() <= 1e-12:  # NaN fails too
        raise ValueError("policy rows must be distributions")
    return pi


def uniform_policy(mdp: MDPStack) -> np.ndarray:
    return np.full((mdp.H, mdp.S, mdp.A), 1.0 / mdp.A)


def _largest_R(H: int) -> float:
    """The largest reward bound at horizon H. No value the verifier forms
    exceeds 2 H^2 R in magnitude: the bound's total 2(H - g)R + 2 g^2 tv R
    peaks there, at g = H and tv = 1. Requiring 4 H^2 R to be finite leaves a
    factor of two, so returns, gaps and bound terms cannot overflow."""
    return np.finfo(np.float64).max / (4.0 * H * H)


def _scale_error(H: int) -> str:
    return (f"reward bound R can overflow at horizon H = {H}: "
            f"4*H*H*R must be finite, so R <= {_largest_R(H):.6g}")


def random_mdp(S: int, A: int, H: int, R: float, seed: int,
               deterministic: bool = False) -> MDPStack:
    """The stack of one random_stack(S, A, H, R, [seed], deterministic)."""
    return random_stack(S, A, H, R, [seed], deterministic)


def random_stack(S: int, A: int, H: int, R: float, seeds,
                 deterministic: bool = False) -> MDPStack:
    """MDP b has Dirichlet transitions and uniform rewards in [-R, R], drawn
    from its own generator rng(seeds[b]) straight into the stack's arrays
    and checked with the others in one pass.

    ``deterministic`` draws one-hot transitions instead; the trajectory
    reward identity telescopes exactly only in that regime (token-level
    MDPs are deterministic).
    """
    if S < 1 or A < 1 or H < 1 or not R > 0:
        raise ValueError("require S, A, H >= 1 and R > 0")
    if not R <= _largest_R(H):
        raise ValueError(_scale_error(H))
    P, r = np.empty((len(seeds), S, A, S)), np.empty((len(seeds), S, A))
    for b, seed in enumerate(seeds):
        draw = rng(seed)
        if deterministic:
            P[b] = np.eye(S)[draw.integers(0, S, size=(S, A))]   # one-hot next states
        else:
            P[b] = draw.dirichlet(np.ones(S), size=(S, A))
        r[b] = draw.uniform(-R, R, size=(S, A))
    return MDPStack(P=P, r=r, H=H, R=np.full(len(seeds), float(R)))


# The most elements of the (B, G, H, S, A) policy tensor that one stack of
# MDPs may fill; mdp-verify verifies as many same-shape MDPs together as fit.
STACK_ELEMENTS = 2 ** 16


def _soft_backup(P, r, ref: np.ndarray, beta: float, gammas, Q=None):
    """The soft backup of every stacked MDP (P, r) at every discount in
    ``gammas`` at once, from a validated (H, S, A) ``ref``: V (B, G, H+1, S)
    and the Boltzmann policies (B, G, H, S, A); fills Q (B, G, H, S, A) when
    it is given. Each step works on q (B, G, A, S), action-major, so the max
    and the sum over actions add whole rows of states in place; pi and Q are
    written back state-major through transposed views."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    gammas = np.asarray(gammas, dtype=np.float64)
    if not np.all((0 <= gammas) & (gammas <= 1)):
        # gamma = 0 is allowed: the backup then sees only immediate rewards
        raise ValueError("gamma must be in [0, 1]")
    if np.any(ref <= 0):
        raise ValueError("pi_ref must have full support (zero-probability "
                         "action makes beta*log pi_ref = -inf)")
    (B, S, A), G, H = r.shape, len(gammas), len(ref)
    base = (r[:, None] + beta * np.log(ref)).transpose(0, 1, 3, 2).copy()  # (B, H, A, S)
    PT = P.transpose(0, 3, 2, 1).reshape(B, S, A * S)  # V @ PT = P V, columns (a, s)
    V, pi = np.zeros((B, G, H + 1, S)), np.empty((B, G, H, S, A))
    q = np.empty((B, G, A, S))
    flat, g, pi_am = q.reshape(B, G, A * S), gammas[:, None, None], pi.transpose(0, 1, 2, 4, 3)
    # a tiny beta can take (q - max) / beta below -1.8e308; that overflow is
    # harmless, since the -inf it gives exps to an exact 0
    with np.errstate(over="ignore"):
        for t in range(H - 1, -1, -1):
            np.matmul(V[:, :, t + 1], PT, out=flat)
            q *= g
            q += base[:, None, t]
            if Q is not None:
                Q[:, :, t] = q.transpose(0, 1, 3, 2)
            m = q.max(axis=2)
            q -= m[:, :, None]
            q /= beta
            np.exp(q, out=q)
            z = q.sum(axis=2)
            V[:, :, t] = m + beta * np.log(z)              # beta * logsumexp(q / beta)
            np.divide(q, z[:, :, None], out=pi_am[:, :, t])  # exp((q - V) / beta)
    return V, pi


def _evaluate(P, r, pis: np.ndarray, gammas) -> np.ndarray:
    """V[b, p, d, s]: the exact decayed return of pis[b, p] in MDP b at
    discount gammas[d] from s, by one backward induction; each step forms
    every policy's state transitions once and applies them to all discounts."""
    B, N, H, S, _ = pis.shape
    V = np.zeros((B, N, len(gammas), S))
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    reward = np.einsum("bphsa,bsa->hbps", pis, r)[..., None, :]
    steps = pis.transpose(2, 0, 3, 1, 4)            # (H, B, S, N, A)
    for t in range(H - 1, -1, -1):
        M = steps[t] @ P                            # M[b, s, p, k] = P_b^{pi_p}(k | s)
        V = reward[t] + g * (V @ M.transpose(0, 2, 3, 1))
    return V


def _visitation(P, pi: np.ndarray) -> np.ndarray:
    """d[b, t, s]: probability of being in s at step t under pi[b] in MDP b,
    from state 0."""
    B, H, S, A = pi.shape
    d = np.zeros((B, H, 1, S))
    d[:, 0, 0, 0] = 1.0
    flat = P.reshape(B, S * A, S)
    for t in range(H - 1):
        d[:, t + 1] = (d[:, t, 0, :, None] * pi[:, t]).reshape(B, 1, S * A) @ flat
    return d[:, :, 0]


def soft_value_iteration(mdp: MDPStack, pi_ref, beta: float, gamma: float):
    """Backward induction of the decayed soft Bellman recursion.

    Q[t] = r + beta*log pi_ref + gamma * P V[t+1];
    V[t] = beta * logsumexp(Q[t]/beta); the returned policy is the
    Boltzmann optimum exp((Q - V)/beta), normalized by construction.
    """
    ref = _policy(_one(mdp), pi_ref)
    Q = np.empty((1, 1, mdp.H, mdp.S, mdp.A))
    V, pi = _soft_backup(mdp.P, mdp.r, ref, beta, [gamma], Q)
    return (V[0, 0], Q[0, 0]), pi[0, 0]


def policy_value(mdp: MDPStack, pi, gamma: float) -> float:
    """Exact expected decayed return from state 0 by backward induction."""
    V = _evaluate(mdp.P, mdp.r, _policy(_one(mdp), pi)[None, None], [gamma])
    return float(V[0, 0, 0, 0])


def trajectory_identity_check(mdp: MDPStack, pi_ref, beta: float, gamma: float,
                              trajectory):
    """Decayed trajectory reward vs the value-plus-log-ratio telescoping.

    Returns (lhs, rhs, residual). For full-horizon trajectories through
    deterministic transitions the residual is zero up to roundoff.
    """
    ref = _policy(_one(mdp), pi_ref)
    if not 1 <= len(trajectory) <= mdp.H:
        raise ValueError("trajectory length must be in [1, H]")
    for t, (s, a) in enumerate(trajectory):
        if not (0 <= s < mdp.S and 0 <= a < mdp.A):
            raise ValueError(f"invalid state/action at step {t}")
        if t and mdp.P[0, trajectory[t - 1][0], trajectory[t - 1][1], s] <= 0.0:
            raise ValueError(f"impossible transition into step {t}")
    (V, Q), _ = soft_value_iteration(mdp, pi_ref, beta, gamma)
    lhs = sum(gamma ** t * mdp.r[0, s, a] for t, (s, a) in enumerate(trajectory))
    s0 = trajectory[0][0]
    # beta*log(pi*/pi_ref) as Q - beta*log pi_ref - V: every term is finite,
    # where pi* itself underflows to 0 for a small beta
    rhs = V[0][s0] + sum(
        gamma ** t * (Q[t, s, a] - beta * np.log(ref[t, s, a]) - V[t][s])
        for t, (s, a) in enumerate(trajectory))
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def enumerate_trajectories(mdp: MDPStack):
    """All positive-probability full-length (s, a) trajectories from state 0."""
    (P,) = _one(mdp).P

    def extend(prefix, s, t):
        if t == mdp.H:
            yield list(prefix)
            return
        for a in range(mdp.A):
            prefix.append((s, a))
            for s2 in np.nonzero(P[s, a] > 0)[0]:
                yield from extend(prefix, int(s2), t + 1)
            prefix.pop()

    return extend([], 0, 0)


@dataclass
class SuboptimalityReport:
    gamma: float
    delta1: float
    delta2: float
    delta3: float
    subopt: float
    bound_term1: float
    bound_term2: float
    bound_total: float
    tv_expectation: float


def _reports(P, r, R, pis: np.ndarray, discounts, cols) -> np.ndarray:
    """reports[b, i] (B, G, 8): the SuboptimalityReport fields after gamma of
    pis[b, cols[i]] against pi* = pis[b, 0] at gamma = discounts[cols[i]] in
    stacked MDP b, discounts[0] being 1: the decomposition, the bound terms
    and the occupancy TV, for which pis[:, 1:] is overwritten with
    |pis[:, 1:] - pis[:, 0]|."""
    V = _evaluate(P, r, pis, discounts)[..., 0]
    v1_star, vg_star, vg, v1 = V[:, :1, 0], V[:, 0, cols], V[:, cols, cols], V[:, cols, 0]
    gaps = np.abs(np.subtract(pis[:, 1:], pis[:, :1], out=pis[:, 1:]), out=pis[:, 1:])
    # products of one MDP's matrices only, so a row does not depend on its stack
    B, K, H, S, A = gaps.shape
    d = _visitation(P, pis[:, 0]).reshape(B, 1, 1, H * S)
    tv = 0.5 * (d @ gaps.reshape(B, K, H * S, A)).sum(axis=(2, 3)) / H
    tv = np.insert(tv, 0, 0.0, axis=1)[:, cols]  # pi* is 0 from itself
    g = np.array([discount_horizon(discounts[c], H) for c in cols])
    term1 = 2.0 * (H - g) * R[:, None]
    term2 = 2.0 * g * g * tv * R[:, None]
    return np.stack([v1_star - vg_star, vg_star - vg, vg - v1, v1_star - v1,
                     term1, term2, term1 + term2, tv], axis=2)


def _bound_gammas(gammas) -> list:
    """The discounts of a bound as floats, each in (0, 1]."""
    gammas = [float(g) for g in gammas]
    if not all(0 < g <= 1 for g in gammas):
        raise ValueError("gamma must be in (0, 1]")
    return gammas


def discount_horizon(gamma: float, H: int) -> float:
    """(1 - gamma^H) / (1 - gamma), analytic H at gamma = 1."""
    if gamma == 1.0:
        return float(H)
    return float((1.0 - gamma ** H) / (1.0 - gamma))


def suboptimality_bound(mdp: MDPStack, pi_star, pi, gamma: float) -> SuboptimalityReport:
    """Full report at discount gamma in (0, 1] (evaluation discount fixed at
    1): V_1^{pi*} - V_1^{pi} split into the two discount-mismatch terms and
    the policy-gap term, the occupancy TV, and the two bound terms
    2(H - g)R and 2 g^2 tv R with g = (1-gamma^H)/(1-gamma)."""
    _bound_gammas([gamma])
    pis = np.stack([_policy(_one(mdp), pi_star), _policy(mdp, pi)])
    row = _reports(mdp.P, mdp.r, mdp.R, pis[None], [1.0, gamma], [1])
    return SuboptimalityReport(gamma, *row[0, 0].tolist())


suboptimality_decompose = suboptimality_bound  # the decomposition is the report's deltas


def verify_bounds(stack: MDPStack, pi_ref, beta: float, gammas) -> np.ndarray:
    """reports[b, i] (B, G, 8): the fields after gamma of the
    suboptimality_bound of the soft optimum at gammas[i] against pi*, the
    one at gamma = 1, in MDP b of ``stack``; one backup of each discount of
    [1, *gammas] serves the whole stack, so a gamma = 1 row is pi* against
    itself."""
    gammas = _bound_gammas(gammas)  # checked before the backup solves any of them
    solved = list(dict.fromkeys([1.0, *gammas]))
    _, pis = _soft_backup(stack.P, stack.r, _policy(stack, pi_ref), beta, solved)
    return _reports(stack.P, stack.r, stack.R, pis, solved, [solved.index(g) for g in gammas])

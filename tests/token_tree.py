"""An exact token tree on which the losses can be checked in closed form.

A tree of horizon H over A tokens has every response of exactly H tokens
as a leaf: the A^H responses of ``responses``, in lexicographic order. Its
prefixes, the responses' first t tokens for t = 0 .. H - 1, are its nodes,
numbered depth by depth (the root is node 0). A policy is a (nodes, A)
table: row n holds the next-token distribution, or the logits, after
prefix n. The prompt is one token that every response shares.

``population_loss`` is a loss's expectation over ordered pairs of distinct
responses: each pair (i, j) is weighted by pi_ref(i) pi_ref(j) sigma(R_i -
R_j), the chance that i and j are drawn from the reference and i is
preferred under Bradley-Terry on the reward R. ``soft_optimum`` is the
policy pi* proportional to pi_ref exp(R / beta), which maximises
E[R] - beta KL(pi || pi_ref), and ``as_mdp`` is the tree as a deterministic
MDP of one state per node, for mdp.soft_value_iteration, whose policy
``soft_value_table`` reads back into a table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from decaypo import autodiff as ad
from decaypo.losses import LossConfig, PairScore, pair_losses
from decaypo.mdp import MDPStack, soft_value_iteration


@dataclass(frozen=True)
class TokenTree:
    A: int
    H: int

    @cached_property
    def responses(self) -> np.ndarray:
        """(A^H, H) tokens, one response a row, in lexicographic order."""
        return np.array(list(itertools.product(range(self.A), repeat=self.H)), dtype=np.int64)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The first node of each depth 0 .. H, the last entry the node count."""
        return np.cumsum([0] + [self.A ** t for t in range(self.H)])

    @property
    def nodes(self) -> int:
        return int(self.offsets[-1])

    @cached_property
    def prefix_rows(self) -> np.ndarray:
        """(A^H, H): the node each response's token t is drawn at."""
        rows = np.empty_like(self.responses)
        index = np.zeros(len(rows), dtype=np.int64)  # y[:t] read as a base-A number
        for t in range(self.H):
            rows[:, t] = self.offsets[t] + index
            index = index * self.A + self.responses[:, t]
        return rows

    def depth(self, t: int) -> slice:
        return slice(self.offsets[t], self.offsets[t + 1])

    def sequence_logprobs(self, table: np.ndarray) -> np.ndarray:
        """Each response's log-probability under a (nodes, A) policy table."""
        return np.log(table)[self.prefix_rows, self.responses].sum(axis=1)


def random_policy(tree: TokenTree, rng) -> np.ndarray:
    """A (nodes, A) table of softmaxed standard-normal logits."""
    e = np.exp(rng.standard_normal((tree.nodes, tree.A)))
    return e / e.sum(axis=1, keepdims=True)


def problem(A: int, H: int, seed: int):
    """A tree, a random reference policy and rewards uniform in [-1, 1]."""
    tree = TokenTree(A, H)
    rng = np.random.default_rng(seed)
    return tree, random_policy(tree, rng), rng.uniform(-1.0, 1.0, A ** H)


def soft_optimum(tree: TokenTree, ref: np.ndarray, reward: np.ndarray,
                 beta: float) -> np.ndarray:
    """The (nodes, A) table of pi* = pi_ref exp(R / beta) / Z: at each node,
    the share of each child's subtree in the node's sum of pi_ref exp(R / beta)."""
    mass = np.exp(tree.sequence_logprobs(ref) + (reward - reward.max()) / beta)
    table = np.empty_like(ref)
    for t in range(tree.H):
        child = mass.reshape(tree.A ** t, tree.A, -1).sum(axis=2)
        table[tree.depth(t)] = child / child.sum(axis=1, keepdims=True)
    return table


def as_mdp(tree: TokenTree, reward: np.ndarray) -> MDPStack:
    """The tree as a one-MDP stack: state n is node n, action a appends
    token a (node A n + 1 + a), and a response's reward is paid at its last
    token. The deepest nodes step back to the root, past the horizon."""
    S = tree.nodes
    P = np.zeros((1, S, tree.A, S))
    r = np.zeros((1, S, tree.A))
    inner = np.arange(tree.offsets[tree.H - 1])[:, None]  # the nodes above the deepest
    tokens = np.arange(tree.A)
    P[0, inner, tokens, tree.A * inner + 1 + tokens] = 1.0
    P[0, tree.offsets[tree.H - 1]:, :, 0] = 1.0
    r[0, tree.depth(tree.H - 1)] = reward.reshape(-1, tree.A)
    return MDPStack(P, r, tree.H, np.array([np.abs(reward).max()]))


def soft_value_table(tree: TokenTree, ref: np.ndarray, reward: np.ndarray, beta: float,
                     gamma: float) -> np.ndarray:
    """soft_value_iteration's (H, S, A) policy on as_mdp(tree, reward) at
    beta and gamma as a (nodes, A) table: row t at the nodes of depth t."""
    _, pi = soft_value_iteration(as_mdp(tree, reward),
                                 np.broadcast_to(ref, (tree.H, *ref.shape)), beta, gamma)
    return np.concatenate([pi[t, tree.depth(t)] for t in range(tree.H)])


def population_loss(tree: TokenTree, logits, ref: np.ndarray, reward: np.ndarray,
                    cfg: LossConfig):
    """The expected loss under cfg of the pairs drawn as the module says,
    for a (nodes, A) logit table (a leaf for gradients): one PairScore of
    every ordered pair of distinct responses, each side's tokens gathered
    by prefix row, with prompt length 1."""
    i, j = np.nonzero(~np.eye(len(tree.responses), dtype=bool))
    ref_logps = np.log(ref)

    def side(which):
        rows, tokens = tree.prefix_rows[which].ravel(), tree.responses[which].ravel()
        return (ad.log_softmax_gather(ad.gather_rows(logits, rows), tokens),
                ref_logps[rows, tokens])

    (chosen, chosen_ref), (rejected, rejected_ref) = side(i), side(j)
    lens = np.full(len(i), tree.H)
    score = PairScore(chosen, rejected, chosen_ref, rejected_ref, prompt_len=np.ones_like(lens),
                      example_id=np.arange(len(i)), chosen_lens=lens, rejected_lens=lens)
    p_ref = np.exp(tree.sequence_logprobs(ref))
    weights = p_ref[i] * p_ref[j] / (1.0 + np.exp(reward[j] - reward[i]))
    return ad.weighted_sum(pair_losses(score, cfg), weights)


def largest_gradient(tree: TokenTree, table: np.ndarray, ref: np.ndarray,
                     reward: np.ndarray, cfg: LossConfig) -> float:
    """max |d population_loss / d logits| under cfg at logits log ``table``."""
    with ad.Tape() as tape:
        logits = ad.leaf(tape, np.log(table))
        loss = population_loss(tree, logits, ref, reward, cfg)
        return float(np.abs(ad.gradients(loss, [logits])[logits]).max())

"""DPO's population loss on an exact token tree is stationary at the soft
optimum pi* = pi_ref exp(R / beta) / Z, the derivation of Rafailov et al.
2023 (arXiv:2305.18290) run on the lab's own loss code; and that closed
form is mdp.soft_value_iteration's optimum at gamma = 1.

Tolerances, fixed before the first run: the largest gradient entry of the
population loss at log pi* is at most 1e-12 (the loss and every pair
weight are O(1), so this is rounding), and at log pi_ref, the control, it
is at least 1e-3; the closed form and the value iteration agree to 1e-12
per probability, and differ by more than 1e-3 at gamma 0.5, the control.
"""

import numpy as np
import pytest

from decaypo.losses import LossConfig
from token_tree import largest_gradient, problem, soft_optimum, soft_value_table

STATIONARY, CONTROL, SAME_POLICY = 1e-12, 1e-3, 1e-12
CASES = [(A, H, beta, seed) for A, H in ((2, 3), (2, 4), (3, 3))
         for beta in (0.3, 1.0) for seed in (0, 1)]
IDS = [f"A{A}-H{H}-beta{beta}-seed{seed}" for A, H, beta, seed in CASES]


@pytest.mark.parametrize("A,H,beta,seed", CASES, ids=IDS)
def test_dpo_population_loss_is_stationary_at_the_soft_optimum(A, H, beta, seed):
    tree, ref, reward = problem(A, H, seed)
    dpo = LossConfig(method="dpo", beta=beta)
    assert largest_gradient(tree, soft_optimum(tree, ref, reward, beta), ref, reward,
                            dpo) <= STATIONARY
    assert largest_gradient(tree, ref, ref, reward, dpo) >= CONTROL


@pytest.mark.parametrize("A,H,beta,seed", CASES, ids=IDS)
def test_closed_form_is_the_soft_value_iteration_optimum_at_gamma_1(A, H, beta, seed):
    tree, ref, reward = problem(A, H, seed)
    closed = soft_optimum(tree, ref, reward, beta)
    # every sequence's log-ratio to the reference is R / beta plus one constant
    shift = tree.sequence_logprobs(closed) - tree.sequence_logprobs(ref) - reward / beta
    assert np.ptp(shift) <= SAME_POLICY
    gap = {gamma: float(np.abs(soft_value_table(tree, ref, reward, beta, gamma) - closed).max())
           for gamma in (1.0, 0.5)}
    assert gap[1.0] <= SAME_POLICY
    assert gap[0.5] >= CONTROL

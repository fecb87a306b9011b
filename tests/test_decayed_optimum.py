"""D2PO's population loss on an exact token tree is stationary at the
gamma-discounted soft optimum pi*_gamma, soft_value_iteration's policy at
the same beta and gamma, when preferences are Bradley-Terry on the decayed
return gamma^(H-1) R of a reward paid at the last token. This is the
token-level reading of DPO (Rafailov et al. 2024, "From r to Q*",
arXiv:2404.12358) with a discount: summed over a response, beta gamma^t
log(pi*_gamma / pi_ref) telescopes to gamma^(H-1) R minus the root's soft
value.

With the answer_start origin the weights are gamma^t. With prompt_start
they are gamma^l gamma^t, here with prompt length l = 1, a smaller beta:
the loss is stationary at pi*_gamma solved at beta gamma.

Tolerances, fixed before the first run: the largest gradient entry at the
optimum is at most 1e-12 (the loss and every pair weight are O(1), so this
is rounding). Each control is at least 1e-5: d2po at pi*_1, dpo at
pi*_gamma, and prompt_start d2po at pi*_gamma solved at beta.
"""

import pytest

from decaypo.losses import LossConfig
from decaypo.schedules import DecaySchedule
from token_tree import largest_gradient, problem, soft_value_table

STATIONARY, CONTROL = 1e-12, 1e-5
CASES = [(A, H, gamma, beta, seed) for A, H in ((2, 3), (2, 4), (3, 3))
         for gamma in (0.9, 0.5) for beta in (0.3, 1.0) for seed in (0, 1)]
IDS = [f"A{A}-H{H}-gamma{gamma}-beta{beta}-seed{seed}" for A, H, gamma, beta, seed in CASES]


@pytest.mark.parametrize("A,H,gamma,beta,seed", CASES, ids=IDS)
def test_answer_start_d2po_is_stationary_at_the_discounted_soft_optimum(A, H, gamma, beta,
                                                                         seed):
    tree, ref, reward = problem(A, H, seed)
    labels = gamma ** (H - 1) * reward
    d2po = LossConfig(method="d2po", beta=beta,
                      schedule=DecaySchedule("exponential", gamma, "answer_start"))
    target = soft_value_table(tree, ref, reward, beta, gamma)
    assert largest_gradient(tree, target, ref, labels, d2po) <= STATIONARY
    undiscounted = soft_value_table(tree, ref, reward, beta, 1.0)
    assert largest_gradient(tree, undiscounted, ref, labels, d2po) >= CONTROL
    assert largest_gradient(tree, target, ref, labels,
                            LossConfig(method="dpo", beta=beta)) >= CONTROL


@pytest.mark.parametrize("A,H,gamma,beta,seed", CASES, ids=IDS)
def test_prompt_start_d2po_is_stationary_at_the_optimum_at_beta_gamma(A, H, gamma, beta, seed):
    tree, ref, reward = problem(A, H, seed)
    labels = gamma ** (H - 1) * reward
    d2po = LossConfig(method="d2po", beta=beta,
                      schedule=DecaySchedule("exponential", gamma, "prompt_start"))
    assert largest_gradient(tree, soft_value_table(tree, ref, reward, beta * gamma, gamma),
                            ref, labels, d2po) <= STATIONARY
    assert largest_gradient(tree, soft_value_table(tree, ref, reward, beta, gamma),
                            ref, labels, d2po) >= CONTROL

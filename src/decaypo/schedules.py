"""Per-position loss coefficient schedules.

Five kinds: uniform (no decay), exponential, head, linear, power-law. The
exponential and power-law kinds support two decay origins: counting
positions from the first prompt token or from the first response token.
Head and linear are truncations of the response, so the origin is ignored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np

KINDS = ("uniform", "exponential", "head", "linear", "powerlaw")
ORIGINS = ("prompt_start", "answer_start")


@dataclass(frozen=True)
class DecaySchedule:
    kind: str = "exponential"
    gamma: float = 0.98
    origin: str = "prompt_start"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown decay origin {self.origin!r}")
        g = self.gamma
        if self.kind == "exponential":
            if not g > 0:
                raise ValueError("exponential decay requires gamma > 0")
            if g > 1:
                # stacklevel 3: past the dataclass-generated __init__ to its caller
                warnings.warn("gamma > 1 emphasizes late tokens and is known "
                              "to hurt preference optimization", stacklevel=3)
        elif self.kind in ("head", "linear"):
            if not 0 < g <= 1:
                raise ValueError(f"{self.kind} decay requires 0 < gamma <= 1")
        elif self.kind == "powerlaw":
            if not g >= 0:
                raise ValueError("power-law decay requires gamma >= 0")


UNIFORM = DecaySchedule(kind="uniform", gamma=1.0)


def weights(schedule: DecaySchedule, response_len: int, prompt_len: int = 0) -> np.ndarray:
    """Coefficient w_t for each of the ``response_len`` response positions."""
    T = int(response_len)
    l = int(prompt_len)
    if T < 1:
        raise ValueError("response_len must be >= 1")
    if l < 0:
        raise ValueError("prompt_len must be >= 0")
    g = schedule.gamma
    o = l if schedule.origin == "prompt_start" else 0
    t = np.arange(T, dtype=np.float64)

    if schedule.kind == "uniform":
        return np.ones(T)
    if schedule.kind == "exponential":
        # Written as gamma^o * gamma^t so the prompt-start weights equal the
        # answer-start weights times the scalar gamma^l bit-for-bit.
        return (g ** o) * np.power(g, t)
    if schedule.kind == "head":
        return (t < ceil(g * T)).astype(np.float64)
    if schedule.kind == "linear":
        cut = ceil(g * T)
        w = 1.0 - t / (g * T)
        w[t >= cut] = 0.0
        return w
    # power-law; positions counted from 1 to avoid division by zero at t=0
    return 1.0 / np.power(o + t + 1.0, g)

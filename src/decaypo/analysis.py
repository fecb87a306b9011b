"""Diagnostic analyses over models and preference data, emitted as CSV:
per-position KL between two models, reference-margin density, realized
probability per position, and loss binned by chosen/rejected length gap."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import row_logsumexp
from .losses import LossConfig, pair_loss
from .model import PolicyModel, make_sequence, packed_logprobs, response_logits
from .model import token_logprobs  # unused here; benchmarks/test_benchmarks.py reads it


@dataclass
class PositionCurve:
    positions: list[int]
    values: list[float]

    def __post_init__(self):
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


@dataclass
class DensityHistogram:
    centers: np.ndarray
    density: np.ndarray
    bin_width: float


# Sequences per packed pass, so that a pass's R x V arrays hold at most
# PACK * context rows however many sequences an analysis reads.
PACK = 32


def _per_sequence(score, seqs):
    """One array per sequence, in order, from ``score(pack) -> (flat rows,
    offsets)`` run over consecutive packs of at most PACK sequences."""
    for i in range(0, len(seqs), PACK):
        flat, offsets = score(seqs[i:i + PACK])
        yield from np.split(flat, offsets[1:-1])


def _position_distribution_logs(model: PolicyModel, seqs):
    """Log next-token distributions at every response position of a packed
    pass over ``seqs`` (R x V), and the offsets that cut them per sequence."""
    rows, offsets = response_logits(model, seqs)
    return rows - row_logsumexp(rows)[:, None], offsets


def kl_categorical(logp: np.ndarray, logq: np.ndarray):
    """Row-wise KL(p || q) of log-distributions, roundoff clamped at 0; a float for 1-D."""
    return np.maximum(np.sum(np.exp(logp) * (logp - logq), axis=-1), 0.0)


def _position_kl(policy: PolicyModel, reference: PolicyModel, seqs):
    """KL(policy || reference) per response row of a packed pass, and its offsets."""
    logp, offsets = _position_distribution_logs(policy, seqs)
    return kl_categorical(logp, _position_distribution_logs(reference, seqs)[0]), offsets


def kl_per_position(policy: PolicyModel, reference: PolicyModel, samples,
                    max_pos: int) -> PositionCurve:
    """Survivor-mean KL(policy || reference) at each response position."""
    if not samples:
        raise ValueError("kl_per_position requires samples")
    if policy.context != reference.context:
        raise ValueError("models must share context length")
    return _survivor_mean((kl.tolist() for kl in _per_sequence(
        partial(_position_kl, policy, reference), samples)), max_pos)


def prob_per_position(model: PolicyModel, samples, max_pos: int) -> PositionCurve:
    """Survivor-mean realized next-token probability per response position."""
    if not samples:
        raise ValueError("prob_per_position requires samples")
    return _survivor_mean((np.exp(logps).tolist() for logps in
                           _per_sequence(partial(packed_logprobs, model), samples)), max_pos)


def _survivor_mean(rows, max_pos: int) -> PositionCurve:
    """Mean at each position p <= max_pos over the rows that reach p; each
    row is an iterable of one sequence's per-position values, summed in
    sequence order."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for row in rows:
        for p, value in zip(range(max_pos + 1), row):
            sums[p] = sums.get(p, 0.0) + value
            counts[p] = counts.get(p, 0) + 1
    positions = sorted(sums)
    return PositionCurve(positions, [sums[p] / counts[p] for p in positions])


def ref_margin_density(reference: PolicyModel, pairs, bins: int) -> DensityHistogram:
    """Histogram density of chosen-minus-rejected sequence log-prob margins
    under the reference model."""
    if not pairs:
        raise ValueError("ref_margin_density requires pairs")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    seqs = [make_sequence(p.prompt, response) for p in pairs for response in (p.chosen, p.rejected)]
    sums = np.array([np.sum(logps) for logps in
                     _per_sequence(partial(packed_logprobs, reference), seqs)])
    margins = sums[0::2] - sums[1::2]
    lo, hi = float(np.min(margins)), float(np.max(margins))
    if hi == lo:
        # degenerate single spike; give it one unit-width bin
        lo, hi = lo - 0.5, hi + 0.5
    density, edges = np.histogram(margins, bins=bins, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return DensityHistogram(centers=centers, density=density,
                            bin_width=float(edges[1] - edges[0]))


@dataclass
class LengthGapRow:
    gap_lo: float
    gap_hi: float
    mean_loss: float
    count: int


def loss_by_length_gap(cfg: LossConfig, scored_pairs, gap_bins) -> list[LengthGapRow]:
    """Mean configured loss per length-gap (T_w - T_l) bin.

    gap_bins is a sorted list of integer boundaries; gaps outside all bins
    land in an overflow row."""
    boundaries = list(gap_bins)
    if boundaries != sorted(boundaries) or len(boundaries) < 2:
        raise ValueError("gap_bins must be >= 2 sorted boundaries")
    n_bins = len(boundaries) - 1
    sums = np.zeros(n_bins + 1)
    counts = np.zeros(n_bins + 1, dtype=np.int64)
    for score in scored_pairs:
        gap = np.shape(score.chosen_logps)[0] - np.shape(score.rejected_logps)[0]
        b = bisect.bisect_right(boundaries, gap) - 1
        idx = b if 0 <= b < n_bins else n_bins  # the last slot is the overflow
        sums[idx] += pair_loss(score, cfg)
        counts[idx] += 1
    edges = [*zip(boundaries, boundaries[1:]), (float("-inf"), float("inf"))]
    return [LengthGapRow(lo, hi, float(total / count), int(count))
            for (lo, hi), total, count in zip(edges, sums, counts) if count]


def _cell(value) -> str:
    # repr of a Python float round-trips exactly; numpy scalars repr as np.float64(...)
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def write_csv(path, header, rows) -> None:
    """The one CSV format: the header, then one line per row; floats are
    written as ``repr(float(x))``, other values with ``str``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def read_csv(path, header) -> list[list[str]]:
    """The rows below ``header`` in a file written by write_csv, as text cells."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in map(str.strip, f) if line]
    if not lines or lines[0] != ",".join(header):
        raise ValueError(f"{path}: expected the CSV header {','.join(header)!r}")
    return [line.split(",") for line in lines[1:]]


def write_curve_csv(path, curve: PositionCurve) -> None:
    write_csv(path, ("position", "value"), zip(curve.positions, curve.values))


def write_histogram_csv(path, hist: DensityHistogram) -> None:
    write_csv(path, ("value", "density"), zip(hist.centers, hist.density))

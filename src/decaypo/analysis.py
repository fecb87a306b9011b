"""Diagnostic analyses over models and preference data, emitted as CSV:
per-position KL between two models, reference-margin density, realized
probability per position, and loss binned by chosen/rejected length gap."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import row_logsumexp
from .losses import LossConfig, pair_losses, sequence_margins
from .model import PolicyModel, packed_logprobs, response_logits
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


# Sequence rows (prompt and response tokens) per packed pass, so that a
# pass's R x V arrays hold at most ROWS rows, about 1 MB, however many
# sequences an analysis reads and however long they are.
ROWS = 512


def _packs(score, items, rows=len):
    """``score(pack)`` over consecutive packs of ``items`` whose ``rows`` add
    up to at most ROWS; an item of more rows than that is a pack of its own."""
    starts, used = [], ROWS
    for i, n in enumerate(map(rows, items)):
        if used + n > ROWS:
            starts.append(i)
            used = 0
        used += n
    for lo, hi in zip(starts, [*starts[1:], len(items)]):
        with np.errstate(all="ignore"):  # each analysis rejects a value that is not finite
            scored = score(items[lo:hi])
        yield scored


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
    """Survivor-mean KL(policy || reference) per response position of samples that fit both."""
    if not samples:
        raise ValueError("kl_per_position requires samples")
    return _survivor_mean(_packs(partial(_position_kl, policy, reference), samples), max_pos)


def prob_per_position(model: PolicyModel, samples, max_pos: int) -> PositionCurve:
    """Survivor-mean realized next-token probability per response position."""
    if not samples:
        raise ValueError("prob_per_position requires samples")
    return _survivor_mean(((np.exp(logps), offsets) for logps, offsets in
                           _packs(partial(packed_logprobs, model), samples)), max_pos)


def _survivor_mean(packs, max_pos: int) -> PositionCurve:
    """Mean at each position p <= max_pos over the sequences that reach p,
    from (flat values, offsets) packs of sequences end to end; each sum adds
    its values in sequence order, from 0."""
    flats, offsets = zip(*packs)
    pos = np.concatenate([np.arange(o[-1]) - np.repeat(o[:-1], np.diff(o)) for o in offsets])
    keep = pos <= max_pos
    # bincount adds each position's values in index order, so in sequence order
    sums = np.bincount(pos[keep], weights=np.concatenate(flats)[keep])
    counts = np.bincount(pos[keep])
    return PositionCurve(list(range(len(counts))), (sums / counts).tolist())


def ref_margin_density(scores, bins: int) -> DensityHistogram:
    """Histogram density of the chosen-minus-rejected sequence log-prob
    margins of the pairs of ``scores``, PairScores under the reference model."""
    if not scores:
        raise ValueError("ref_margin_density requires scored pairs")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    margins = np.concatenate([sequence_margins(score) for score in scores])
    if not np.all(np.isfinite(margins)):  # as loss_by_length_gap rejects a loss
        raise ValueError(f"a pair is not finite: margin {margins[~np.isfinite(margins)][0]}")
    lo, hi = float(np.min(margins)), float(np.max(margins))
    if hi == lo:
        # degenerate single spike; give it one unit-width bin
        lo, hi = lo - 0.5, hi + 0.5
    with np.errstate(all="ignore"):  # edges of a range that overflows come out nan
        edges = np.linspace(lo, hi, bins + 1)  # as np.histogram cuts the range
    if not np.all(edges[:-1] < edges[1:]):
        raise ValueError(f"margins from lo {lo} to hi {hi} do not make {bins} finite bins")
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
    """Mean configured loss per length-gap (T_w - T_l) bin over the pairs of
    the PairScores ``scored_pairs``, each pair's loss as ``pair_losses``
    gives it; a loss that is not finite raises ValueError.

    gap_bins is a sorted list of integer boundaries; gaps outside all bins
    land in an overflow row."""
    boundaries = list(gap_bins)
    if boundaries != sorted(boundaries) or len(boundaries) < 2:
        raise ValueError("gap_bins must be >= 2 sorted boundaries")
    if not scored_pairs:
        raise ValueError("loss_by_length_gap requires scored pairs")
    n_bins = len(boundaries) - 1
    losses = np.concatenate([pair_losses(score, cfg) for score in scored_pairs])
    if not np.all(np.isfinite(losses)):  # as train rejects a step
        raise ValueError(f"a pair is not finite: loss {losses[~np.isfinite(losses)][0]}")
    gaps = np.concatenate([score.chosen_lens - score.rejected_lens for score in scored_pairs])
    b = np.searchsorted(boundaries, gaps, side="right") - 1
    idx = np.where((b >= 0) & (b < n_bins), b, n_bins)  # the last slot is the overflow
    # bincount adds each bin's losses in pair order, from 0
    sums = np.bincount(idx, weights=losses, minlength=n_bins + 1)
    counts = np.bincount(idx, minlength=n_bins + 1)
    edges = [*zip(boundaries, boundaries[1:]), (float("-inf"), float("inf"))]
    return [LengthGapRow(lo, hi, float(total / count), int(count))
            for (lo, hi), total, count in zip(edges, sums, counts) if count]


def write_csv(path, header, rows) -> None:
    """The one CSV format: the header, then one line per row, every cell
    written with ``str`` (for a float or float64, repr of the float)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_curve_csv(path, curve: PositionCurve) -> None:
    write_csv(path, ("position", "value"), zip(curve.positions, curve.values))


def write_histogram_csv(path, hist: DensityHistogram) -> None:
    write_csv(path, ("value", "density"), zip(hist.centers, hist.density))

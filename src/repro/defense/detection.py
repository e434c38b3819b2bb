"""Client-side malicious-model inspection.

The paper's threat model notes the dishonest server keeps modifications
"minimal to avoid detection" — implying clients could inspect incoming
models.  This module implements that inspection as a complementary (not
alternative) measure to OASIS: it flags the structural signatures of the
known imprint attacks in a received state dict.

Signatures checked per fully-connected weight/bias pair:

- **RTF (structural)**: many mutually colinear weight rows (compared
  against the dominant row direction, sign-insensitive) with strictly
  monotone biases — the quantile-bin construction.
- **LOKI (structural)**: a large fraction of exactly-zero weight rows
  whose biases are pinned far negative (permanently dark neurons)
  alongside a live block — the per-client-disjoint block construction.
  No conventional initialization or training produces bit-zero rows.
- **CAH (functional)**: when the client probes the layer with its *own*
  data, trap weights show an implausibly sparse activation profile —
  nearly every neuron fires for only a small fraction of inputs, unlike
  any conventionally initialized or trained layer.
- **QBI (functional)**: quantile-placed biases pin every neuron's firing
  rate to the *same* target (1/B), so the per-neuron activation rates
  cluster in a band far tighter than any conventional layer's — even
  when the target rate itself is too large for the CAH sparsity check.
  The band's ceiling stops below 0.5 (see ``_RATE_BAND_CEILING``).

Layer discovery is deliberately forgiving about naming: an attacker
controls the state-dict keys, so weight/bias pairs are matched under any
of the common separators (``imprint.weight``, ``imprint_weight``, a bare
``weight``) and a transposed weight matrix (bias length matching the
*column* count) is normalized before inspection rather than escaping it.

Detection is heuristic by design: a server aware of the detector can trade
attack efficiency for stealth (e.g. noising rows), which is exactly why
the paper pursues the input-side OASIS defense instead of detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DetectionReport:
    """Findings from inspecting one model state."""

    suspicious: bool
    findings: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.suspicious


# Layers narrower than this are skipped: too few rows for any signature
# to be told apart from chance.
_MIN_NEURONS = 16

# RTF: at least this fraction of rows colinear with the dominant row,
# next to strictly monotone biases.
_COLINEAR_THRESHOLD = 0.9

# LOKI: at least this fraction of rows exactly zero, each with a bias
# below the threshold (a neuron that can never fire).
_ZERO_ROW_FRACTION = 0.2
_DISABLED_BIAS_THRESHOLD = -1e3

# CAH: at least _SPARSE_NEURON_FRACTION of neurons fire for fewer than
# _SPARSE_ACTIVATION_THRESHOLD of the client's own probes.
_SPARSE_ACTIVATION_THRESHOLD = 0.1
_SPARSE_NEURON_FRACTION = 0.9

# QBI: at least _SPARSE_NEURON_FRACTION of probed activation rates at or
# below the ceiling, with a standard deviation below the spread — rates
# tuned to one shared quantile.  The ceiling catches every
# ``expected_batch_size >= 3`` and deliberately stops below 0.5: rates
# pinned *at* one half (QBI with ``expected_batch_size=2``) are
# statistically indistinguishable from an honest zero-bias layer on
# centered data, so flagging them would trade a detection nobody can make
# for a steady false-positive stream.
_RATE_BAND_CEILING = 0.45
_RATE_BAND_SPREAD = 0.08

# Separators under which `<root><sep>weight` / `<root><sep>bias` pairs are
# recognized.  "" covers a bare top-level "weight" key.
_KEY_SEPARATORS = (".", "_", "-", "/", "")


def _bias_key_candidates(name: str) -> list[str]:
    """Possible bias keys for a weight key, lowercased, across conventions."""
    lowered = name.lower()
    candidates = []
    for sep in _KEY_SEPARATORS:
        suffix = f"{sep}weight"
        if lowered.endswith(suffix):
            # The bias may use a different separator than the weight
            # (e.g. "imprint_weight" next to "imprint.bias").
            bare_root = lowered[: len(lowered) - len(suffix)]
            for bias_sep in _KEY_SEPARATORS:
                candidate = bare_root + bias_sep + "bias"
                if candidate not in candidates:
                    candidates.append(candidate)
            break
    return candidates


def _linear_pairs(state: dict[str, np.ndarray]):
    """Yield (name, weight, bias) for FC layers found in a state dict.

    Matches weight keys under any common separator, finds the partner
    bias under any separator — both case-insensitively, since the
    dishonest server chooses the key spelling — and normalizes a
    transposed weight (bias length equal to the column count) so a layer
    stored as ``(d, n)`` instead of ``(n, d)`` cannot escape inspection.
    """
    by_lowered: dict[str, np.ndarray] = {}
    for name, value in state.items():
        by_lowered.setdefault(name.lower(), value)
    for name, value in state.items():
        value = np.asarray(value)
        if value.ndim != 2:
            continue
        for bias_name in _bias_key_candidates(name):
            bias = by_lowered.get(bias_name)
            if bias is None:
                continue
            bias = np.asarray(bias)
            if bias.ndim != 1:
                continue
            if bias.shape[0] == value.shape[0]:
                yield name, value, bias
                break
            if bias.shape[0] == value.shape[1]:
                yield name, value.T, bias
                break


def _colinear_row_fraction(weight: np.ndarray, tolerance: float = 1e-6) -> float:
    """Fraction of rows colinear with the *dominant* row direction.

    The reference is the modal row — the row with the most (anti)parallel
    partners under ``|cosine| > 1 - tolerance`` — not ``rows[0]``: a server
    aware of a first-row comparison could noise just that one imprint row
    and drop the detected fraction to ~0 while keeping the attack intact.
    Counting ``|cosine|`` also catches negated copies of the imprint
    direction, which extract inputs just as well (Eq. 6 is sign-invariant).
    """
    norms = np.linalg.norm(weight, axis=1)
    valid = norms > 1e-12
    if valid.sum() < 2:
        return 0.0
    rows = weight[valid] / norms[valid][:, None]
    cosines = np.abs(rows @ rows.T)
    partner_counts = (cosines > 1.0 - tolerance).sum(axis=1)
    return float(partner_counts.max() / len(rows))


def inspect_state(
    state: dict[str, np.ndarray],
    probe_inputs: np.ndarray | None = None,
) -> DetectionReport:
    """Scan a broadcast model state for imprint-attack signatures.

    Parameters
    ----------
    state:
        The broadcast state dict (as the client receives it).
    probe_inputs:
        Optional (num_probes, ...) array of the client's *own* samples.
        When given, fully-connected layers whose input width matches the
        flattened probe width are additionally checked for the CAH/QBI
        trap-weight signatures (implausibly sparse or implausibly uniform
        activation rates).

    The thresholds are the module constants above.
    """
    findings: list[str] = []
    flat_probes = None
    if probe_inputs is not None and len(probe_inputs) >= 8:
        flat_probes = probe_inputs.reshape(len(probe_inputs), -1).astype(np.float64)
    for layer, weight, bias in _linear_pairs(state):
        if weight.shape[0] < _MIN_NEURONS:
            continue
        colinear = _colinear_row_fraction(weight)
        monotone = bool(
            np.all(np.diff(bias) < 0.0) or np.all(np.diff(bias) > 0.0)
        )
        if colinear >= _COLINEAR_THRESHOLD and monotone:
            findings.append(
                f"{layer}: {100 * colinear:.0f}% identical weight rows with "
                "monotone biases (RTF-style quantile imprint)"
            )
            continue
        row_norms = np.linalg.norm(weight, axis=1)
        zero_rows = row_norms == 0.0
        disabled = zero_rows & (bias < _DISABLED_BIAS_THRESHOLD)
        dead_fraction = float(np.mean(disabled))
        if _ZERO_ROW_FRACTION <= dead_fraction < 1.0:
            findings.append(
                f"{layer}: {100 * dead_fraction:.0f}% exactly-zero weight "
                "rows with disabling biases next to a live block "
                "(LOKI-style per-client imprint blocks)"
            )
            continue
        if flat_probes is not None and weight.shape[1] == flat_probes.shape[1]:
            rates = ((flat_probes @ weight.T + bias) > 0.0).mean(axis=0)
            sparse = float(np.mean(rates < _SPARSE_ACTIVATION_THRESHOLD))
            if sparse >= _SPARSE_NEURON_FRACTION:
                findings.append(
                    f"{layer}: {100 * sparse:.0f}% of neurons fire for <"
                    f"{100 * _SPARSE_ACTIVATION_THRESHOLD:.0f}% of local data "
                    "(CAH-style trap weights)"
                )
                continue
            banded = float(np.mean(rates <= _RATE_BAND_CEILING))
            spread = float(rates.std())
            if (
                banded >= _SPARSE_NEURON_FRACTION
                and spread <= _RATE_BAND_SPREAD
                and float(rates.mean()) > 0.0
            ):
                findings.append(
                    f"{layer}: activation rates pinned to a "
                    f"{100 * _RATE_BAND_CEILING:.0f}%-band with spread "
                    f"{spread:.3f} (QBI-style quantile-tuned trap biases)"
                )
    return DetectionReport(suspicious=bool(findings), findings=findings)

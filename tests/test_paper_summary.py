"""The one-call reproduction scorecard: every headline shape must hold.

``build_paper_summary`` runs a compact version of every headline
comparison and returns :class:`PaperComparison` rows; the full-scale
regenerations live in ``benchmarks/`` (one per figure), and this
scorecard trades their resolution for a fast end-to-end health check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import pytest

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.oasis import OasisDefense
from repro.experiments import (
    format_table,
    run_ats_comparison,
    run_attack_trial,
)


@dataclass
class PaperComparison:
    """One paper-reported quantity next to our measured value."""

    experiment: str
    quantity: str
    paper_value: str
    measured: float
    agrees: bool
    note: str = ""


def comparison_table(comparisons: Sequence[PaperComparison]) -> str:
    """Render the paper-vs-measured scorecard as an aligned table."""
    rows = [
        (
            c.experiment,
            c.quantity,
            c.paper_value,
            f"{c.measured:.2f}",
            "yes" if c.agrees else "NO",
            c.note,
        )
        for c in comparisons
    ]
    return format_table(
        ["experiment", "quantity", "paper", "measured", "shape holds", "note"], rows
    )


def build_paper_summary(
    dataset: SyntheticImageDataset,
    batch_size: int = 8,
    num_neurons: int = 300,
    seed: int = 0,
) -> list[PaperComparison]:
    """Regenerate the headline claims on one dataset; return scorecard rows."""
    rows: list[PaperComparison] = []

    rtf_wo = run_attack_trial(dataset, "rtf", batch_size, num_neurons, seed=seed)
    rows.append(
        PaperComparison(
            experiment="Fig 5",
            quantity="RTF without OASIS (dB)",
            paper_value="130-145",
            measured=rtf_wo.average_psnr,
            agrees=rtf_wo.average_psnr > 100.0,
        )
    )
    rtf_mr = run_attack_trial(
        dataset, "rtf", batch_size, num_neurons, defense=OasisDefense("MR"), seed=seed
    )
    rows.append(
        PaperComparison(
            experiment="Fig 5",
            quantity="RTF vs OASIS-MR (dB)",
            paper_value="15-20",
            measured=rtf_mr.average_psnr,
            agrees=rtf_mr.average_psnr < 30.0,
        )
    )

    cah_wo = run_attack_trial(dataset, "cah", batch_size, num_neurons, seed=seed)
    cah_mrsh = run_attack_trial(
        dataset, "cah", batch_size, num_neurons,
        defense=OasisDefense("MR+SH"), seed=seed,
    )
    rows.append(
        PaperComparison(
            experiment="Fig 6",
            quantity="CAH drop under MR+SH (dB)",
            paper_value=">100 (125->25)",
            measured=cah_wo.average_psnr - cah_mrsh.average_psnr,
            agrees=cah_wo.average_psnr - cah_mrsh.average_psnr > 20.0,
        )
    )

    linear_wo = run_attack_trial(dataset, "linear", batch_size, 0, seed=seed)
    linear_mr = run_attack_trial(
        dataset, "linear", batch_size, 0, defense=OasisDefense("MR"), seed=seed
    )
    rows.append(
        PaperComparison(
            experiment="Fig 13",
            quantity="linear-model drop under MR (dB)",
            paper_value="positive, to <30",
            measured=linear_wo.average_psnr - linear_mr.average_psnr,
            agrees=(
                linear_wo.average_psnr > linear_mr.average_psnr
                and linear_mr.average_psnr < 30.0
            ),
        )
    )

    ats = run_ats_comparison(
        dataset, batch_size=batch_size, num_neurons=num_neurons, seed=seed
    )
    rows.append(
        PaperComparison(
            experiment="Fig 14",
            quantity="RTF vs transform-replace inputs (dB)",
            paper_value="content revealed (~perfect)",
            measured=ats.ats_vs_training_inputs,
            agrees=ats.ats_vs_training_inputs > 100.0,
        )
    )
    rows.append(
        PaperComparison(
            experiment="Fig 14",
            quantity="RTF vs OASIS originals (dB)",
            paper_value="unrecognizable",
            measured=ats.oasis_vs_originals,
            agrees=ats.oasis_vs_originals < 40.0,
        )
    )
    return rows


def summary_holds(rows: list[PaperComparison]) -> bool:
    """True when every scorecard row agrees with the paper's shape."""
    return all(row.agrees for row in rows)


@pytest.fixture(scope="module")
def summary(cifar_like):
    return build_paper_summary(cifar_like, batch_size=4, num_neurons=150, seed=3)


class TestPaperSummary:
    def test_every_headline_shape_holds(self, summary):
        assert summary_holds(summary), comparison_table(summary)

    def test_covers_headline_experiments(self, summary):
        experiments = {row.experiment for row in summary}
        assert {"Fig 5", "Fig 6", "Fig 13", "Fig 14"} <= experiments

    def test_rows_have_measurements(self, summary):
        assert all(isinstance(row.measured, float) for row in summary)

    def test_table_renders_all_rows(self, summary):
        table = comparison_table(summary)
        assert table.count("\n") >= len(summary) + 1

    def test_summary_holds_detects_failure(self, summary):
        broken = list(summary)
        broken[0] = type(broken[0])(
            experiment="x", quantity="y", paper_value="z",
            measured=0.0, agrees=False,
        )
        assert not summary_holds(broken)

    def test_comparison_table(self):
        rows = [PaperComparison("fig5", "MR psnr", "15-20", 16.5, True)]
        table = comparison_table(rows)
        assert "fig5" in table and "yes" in table

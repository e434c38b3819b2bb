"""Plain-text reporting: aligned tables and ASCII image panels."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned ASCII table (no external deps); floats get 2 decimals."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(f"{cell:.2f}")
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_ascii_image(image, width: int = 32) -> str:
    """Render a (C, H, W) image as grayscale ASCII art for terminal output.

    Used by the visual-reconstruction experiments (paper Figs. 7-12) so the
    overlap effect is inspectable without an image viewer.
    """
    import numpy as np

    ramp = " .:-=+*#%@"
    gray = np.asarray(image, dtype=np.float64).mean(axis=0)
    height = max(1, int(gray.shape[0] * width / gray.shape[1] / 2))
    row_idx = np.linspace(0, gray.shape[0] - 1, height).astype(int)
    col_idx = np.linspace(0, gray.shape[1] - 1, width).astype(int)
    small = gray[np.ix_(row_idx, col_idx)]
    small = np.clip(small, 0.0, 1.0)
    chars = (small * (len(ramp) - 1)).astype(int)
    return "\n".join("".join(ramp[c] for c in row) for row in chars)


def side_by_side(left: str, right: str) -> str:
    """Join two ASCII blocks horizontally (original vs reconstruction)."""
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    height = max(len(left_lines), len(right_lines))
    width = max((len(l) for l in left_lines), default=0)
    out = []
    for i in range(height):
        l = left_lines[i] if i < len(left_lines) else ""
        r = right_lines[i] if i < len(right_lines) else ""
        out.append(l.ljust(width) + "   |   " + r)
    return "\n".join(out)

"""Plain-text serialization of chi matrices.

Format: ``#``-prefixed header comments carrying the units and the mode
frequencies, then one whitespace-aligned row per mode (descending
frequency).  Published matrices ship in this format under ``data/`` and are
consumed as golden inputs by the coherence and gate commands.
"""

from __future__ import annotations

import io

import numpy as np

from .anharmonic import ChiMatrix


def format_value(x: float, precision: int = 12) -> str:
    return f"{x:.{precision}g}"


def _matrix_lines(mat, precision: int = 12) -> list[str]:
    """Rows of a matrix (a vector is one row), right-aligned to one width."""
    cells = [[format_value(v, precision) for v in row]
             for row in np.atleast_2d(mat)]
    width = max(len(c) for row in cells for c in row)
    return [" ".join(c.rjust(width) for c in row) for row in cells]


def write_chi(chi: ChiMatrix, stream, precision: int = 12):
    """Write a chi matrix in the plain-text format."""
    stream.write("# ionmodes chi matrix\n")
    stream.write("# units: Hz per quantum; mode order: descending frequency\n")
    freqs = " ".join(format_value(f, precision) for f in chi.mode_frequencies)
    stream.write(f"# frequencies_hz: {freqs}\n")
    if chi.provenance:
        keys = " ".join(f"{k}={chi.provenance[k]}" for k in sorted(chi.provenance))
        stream.write(f"# provenance: {keys}\n")
    stream.writelines(line + "\n" for line in _matrix_lines(chi.chi, precision))


def chi_to_text(chi: ChiMatrix, precision: int = 12) -> str:
    buf = io.StringIO()
    write_chi(chi, buf, precision)
    return buf.getvalue()


def read_chi(path_or_stream) -> ChiMatrix:
    """Read a chi matrix written by write_chi (or hand-authored)."""
    if hasattr(path_or_stream, "read"):
        text = path_or_stream.read()
        source = "<stream>"
    else:
        with open(path_or_stream) as fh:
            text = fh.read()
        source = str(path_or_stream)
    freqs = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("frequencies_hz:"):
                freqs = np.array([float(v) for v in body.split(":", 1)[1].split()])
            continue
        rows.append([float(v) for v in line.split()])
    if freqs is None:
        raise ValueError(f"{source}: missing '# frequencies_hz:' header")
    mat = np.array(rows, dtype=float)
    n = len(freqs)
    if mat.shape != (n, n):
        raise ValueError(f"{source}: expected a {n}x{n} matrix, got {mat.shape}")
    if np.any(np.diff(freqs) > 0):
        raise ValueError(f"{source}: frequencies must be in descending order")
    return ChiMatrix(chi=mat, mode_frequencies=freqs,
                     provenance={"source": source})

"""Plain-text serialization of chi matrices.

Format: ``#``-prefixed header comments carrying the units and the mode
frequencies, then one whitespace-aligned row per mode (descending
frequency).  An entry smaller than 10^-precision of the largest magnitude
lies below the last printed digit of the largest entry; it is rounding noise
of the kernel and prints as 0.  Published matrices ship in this format under
``data/`` and are consumed as golden inputs by the coherence and gate
commands.
"""

from __future__ import annotations

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


def chi_to_text(chi: ChiMatrix, precision: int = 12) -> str:
    """A chi matrix in the plain-text format; ``chi.chi`` is not changed."""
    freqs = " ".join(format_value(f, precision) for f in chi.mode_frequencies)
    lines = ["# ionmodes chi matrix",
             "# units: Hz per quantum; mode order: descending frequency",
             f"# frequencies_hz: {freqs}"]
    if chi.provenance:
        keys = " ".join(f"{k}={chi.provenance[k]}" for k in sorted(chi.provenance))
        lines.append(f"# provenance: {keys}")
    floor = 10.0 ** -precision * np.abs(chi.chi).max(initial=0.0)
    lines += _matrix_lines(np.where(np.abs(chi.chi) < floor, 0.0, chi.chi),
                           precision)
    return "\n".join(lines) + "\n"


def read_chi(path_or_stream) -> ChiMatrix:
    """Read a chi matrix written by chi_to_text (or hand-authored)."""
    if hasattr(path_or_stream, "read"):
        text = path_or_stream.read()
        source = "<stream>"
    else:
        with open(path_or_stream) as fh:
            text = fh.read()
        source = str(path_or_stream)
    freqs = None
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("frequencies_hz:"):
                    freqs = np.array([float(v) for v in
                                      body.split(":", 1)[1].split()])
                continue
            rows.append([float(v) for v in line.split()])
        except ValueError as exc:
            raise ValueError(f"{source}, line {lineno}: {exc}") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{source}, line {lineno}: {len(rows[-1])} entries "
                             f"where the first row has {len(rows[0])}")
    if freqs is None:
        raise ValueError(f"{source}: missing '# frequencies_hz:' header")
    mat = np.array(rows, dtype=float)
    n = len(freqs)
    if mat.shape != (n, n):
        raise ValueError(f"{source}: expected a {n}x{n} matrix, got {mat.shape}")
    if not (np.isfinite(mat).all() and np.isfinite(freqs).all()
            and (freqs > 0).all()):
        raise ValueError(f"{source}: entries must be finite and frequencies "
                         "finite and positive")
    if np.any(np.diff(freqs) > 0):
        raise ValueError(f"{source}: frequencies must be in descending order")
    return ChiMatrix(chi=mat, mode_frequencies=freqs,
                     provenance={"source": source})

"""File formats: state files, sweep CSVs, reports, run manifests.

State files are plain text.  The first non-comment token pair is a header,
``pure d`` or ``dm d``; the remaining tokens are ``re im`` float pairs in
row-major order (d*d pairs for a pure amplitude matrix, (d*d)^2 pairs for
a density matrix).  ``#`` starts a comment for the rest of the line.
Floats are written with %.17g so a write/read round trip is exact to
double precision.

Everything written to CSVs and reports is a pure function of the inputs
and the seed; wall-clock timing lives only in the sidecar manifest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import StateParseError
from .states import DensityMatrix, PureBipartiteState

CSV_HEADER = "axis,C,f,F,trace_err,min_eig"
# rows per formatting call of write_csv: a block's floats, tuple and text
# take a few hundred kB, however long the table
CSV_BLOCK_ROWS = 1024


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    for line in text.splitlines():
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        out.extend(line.split())
    return out


def parse_state_text(text: str) -> PureBipartiteState | DensityMatrix:
    toks = _tokens(text)
    if len(toks) < 2:
        raise StateParseError("missing header; expected 'pure d' or 'dm d'")
    kind = toks[0].lower()
    if kind not in ("pure", "dm"):
        raise StateParseError(f"unknown state kind {toks[0]!r}; expected 'pure' or 'dm'")
    try:
        d = int(toks[1])
    except ValueError:
        raise StateParseError(f"dimension {toks[1]!r} is not an integer") from None
    if d < 2:
        raise StateParseError(f"dimension must be at least 2, got {d}")
    n = d * d if kind == "pure" else d ** 4
    rest = toks[2:]
    if len(rest) != 2 * n:
        raise StateParseError(
            f"expected {2 * n} numbers for {kind} d={d}, found {len(rest)}")
    try:
        vals = np.array([float(t) for t in rest])
    except ValueError as exc:
        raise StateParseError(f"bad numeric token: {exc}") from None
    cplx = vals[0::2] + 1j * vals[1::2]
    try:
        if kind == "pure":
            return PureBipartiteState(d=d, amp=cplx.reshape(d, d))
        return DensityMatrix(d=d, mat=cplx.reshape(d * d, d * d))
    except Exception as exc:
        raise StateParseError(f"state fails validation: {exc}") from None


def read_state_file(path: str) -> PureBipartiteState | DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateParseError(f"cannot read {path}: {exc}") from None
    return parse_state_text(text)


def format_state(obj: PureBipartiteState | DensityMatrix, comment: str = "") -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    if isinstance(obj, PureBipartiteState):
        lines.append(f"pure {obj.d}")
        mat = np.asarray(obj.amp)
    else:
        lines.append(f"dm {obj.d}")
        mat = np.asarray(obj.mat)
    for row in mat:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def open_out(path: str):
    """path opened for writing text; a path that cannot be opened is an input error."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise StateParseError(f"cannot write {path}: {exc}") from None


def write_state_file(path: str, obj: PureBipartiteState | DensityMatrix,
                     comment: str = "") -> None:
    with open_out(path) as fh:
        fh.write(format_state(obj, comment))


def format_csv(rows) -> str:
    """Rows of six columns (an (n, 6) array or a sequence of rows) to CSV
    lines, without the header, in one formatting call; %.12g keeps tiny
    trace errors distinguishable."""
    table = np.asarray(rows, dtype=float).reshape(-1, 6)
    return ("%.12g," * 5 + "%.12g\n") * len(table) % tuple(table.ravel().tolist())


def write_csv(fh, columns) -> None:
    """The header, then the rows of six equal-length columns, to the text stream fh.

    The rows are stacked and formatted CSV_BLOCK_ROWS at a time, so no array
    or text but the columns themselves grows with the table."""
    fh.write(CSV_HEADER + "\n")
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        fh.write(format_csv(np.column_stack([c[lo:lo + CSV_BLOCK_ROWS] for c in columns])))


def format_value(x) -> str:
    if x is None:
        return "unavailable"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12f}"
    return str(x)


def format_report(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)} = {format_value(v)}" for k, v in pairs) + "\n"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility sidecar; the only place wall-clock time is recorded."""

    command: str
    seed: int | None = None
    version: str = ""
    inputs: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    def to_json(self) -> str:
        body = {k: v for k, v in self.__dict__.items() if v not in (None, {}, "")}
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def emit(self, out_path: str | None) -> None:
        """Write next to out_path, or to stderr when there is no output file."""
        if out_path:
            with open_out(out_path + ".manifest.json") as fh:
                fh.write(self.to_json())
        else:
            sys.stderr.write(self.to_json())

"""CSV and JSONL persistence for tables.

Log files in this toolkit are stored as plain CSV (one file per log) so
a real Mira trace exported to CSV drops in with no code change.  Type
inference mirrors :func:`repro.table.column.as_column`: a column is
int64 if every cell round-trips as int, float64 if every cell
round-trips as float, else string.  Parsing is columnar: rows are
screened for field count, packed into a 2-D object matrix, and each
column is bulk-converted with numpy casts instead of per-cell Python
loops.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.errors import ParseError
from repro.ingest import ParseReport, with_retry
from repro.obs.trace import add as trace_add
from repro.obs.trace import span as trace_span
from repro.util.atomic import atomic_open

from .frame import Table

__all__ = ["write_csv", "read_csv", "write_jsonl", "read_jsonl"]


def write_csv(table: Table, path: str | Path) -> None:
    """Write a table to ``path`` as CSV with a header row.

    The write is atomic (temp file + rename), so a crash mid-write
    never leaves a truncated log behind.
    """
    with atomic_open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        columns = [table[name].tolist() for name in table.column_names]
        for row in zip(*columns):
            writer.writerow(row)


# ``str(int(v))`` for any int is exactly "0" or an optional minus, a
# nonzero leading digit, then digits — so a comma-joined column of
# int-round-tripping cells matches this in one C-level regex pass.
_INT_COLUMN_RE = re.compile(r"(?:0|-?[1-9][0-9]*+)(?:,(?:0|-?[1-9][0-9]*+))*+\Z")

# The spellings ``str(float)`` can emit (plus int-form cells, which
# render as themselves + ".0", so mixed int/float columns still widen):
# - positional: int form or decimal with no redundant leading/trailing
#   zeros, magnitude in [1e-4, 1e16) (outside it CPython renders
#   scientific, so "0.00001" or 17-digit ints stay strings)
# - scientific: one-digit mantissa, fraction without trailing zeros,
#   two/three-digit signed exponent ("1e3" is spelled "1000.0" by
#   ``str`` and stays text)
# - inf / -inf / nan
#
# The common no-exponent shape is matched with possessive quantifiers
# (no backtracking: the fraction is "all digits, ending nonzero, or
# exactly 0") and its magnitude gate is applied to the parsed values;
# exponent-bearing columns take the stricter, slower token regex.
_PLAIN_FLOAT_TOKEN = (
    r"(?:-?(?:(?:0|[1-9][0-9]*+)(?:\.(?:[0-9]*+(?<=[1-9])|0))?+|inf)|nan)"
)
_PLAIN_FLOAT_COLUMN_RE = re.compile(
    rf"{_PLAIN_FLOAT_TOKEN}(?:,{_PLAIN_FLOAT_TOKEN})*+\Z"
)
_SCI_FLOAT_TOKEN = (
    r"(?:-?(?:"
    r"(?:0|[1-9][0-9]{0,14})"
    r"|(?:[1-9][0-9]{0,15}|0)\.(?:0|[0-9]*[1-9])"
    r"|[1-9](?:\.[0-9]*[1-9])?e[+-][0-9]{2,3}"
    r"|inf"
    r")|nan)"
)
_SCI_FLOAT_COLUMN_RE = re.compile(rf"{_SCI_FLOAT_TOKEN}(?:,{_SCI_FLOAT_TOKEN})*\Z")
# Fractions of a zero integer part need their own magnitude gate in the
# exponent branch: at most three leading zeros keeps the value >= 1e-4.
_TINY_POSITIONAL_RE = re.compile(r"(?:\A|,)-?0\.0000")
_ZERO_OR_INF_SPELLINGS = frozenset(["0", "-0", "0.0", "-0.0", "inf", "-inf"])


# Every numeric spelling starts with a digit, a minus, or the first
# letter of inf/nan — a column whose first cell starts otherwise (the
# common case for text fields) skips the join + column regex entirely.
_NUMERIC_START_RE = re.compile(r"[-0-9in]")


def _infer_array(column: np.ndarray) -> np.ndarray:
    """Bulk type inference for one column of raw CSV strings.

    A column converts only when every cell is spelled the way the
    matching writer would spell it: ``str(int(v)) == v`` for int64, and
    for float64 a cell must be in the canonical format ``str(float)``
    emits (or int form, which widens).  Identifier-like fields — leading
    zeros (``00010001``), explicit signs (``+3``), scientific notation
    (``1e3``), stray whitespace (``" 3"``), trailing zeros (``2.50``) —
    therefore stay strings.

    Both checks are single C-level regex passes over the comma-joined
    column, so non-numeric columns fail at their first cell instead of
    paying per-cell parse attempts; accepted columns are bulk-cast with
    one ``astype``.  Cells whose parse silently left the spelled
    magnitude (overflow to ``inf``, underflow to zero) reject the
    column, so e.g. ``1e-999`` stays text.  Returns an ``int64`` /
    ``float64`` array, or the cells as an object array for columns that
    stay strings.
    """
    if not column.size or not _NUMERIC_START_RE.match(column[0]):
        return column
    tokens = column.tolist()
    joined = ",".join(tokens)
    if _INT_COLUMN_RE.match(joined):
        try:
            return column.astype(np.int64)
        except (ValueError, OverflowError):
            pass  # beyond int64: fall through to the float format
    if "e" in joined:
        if not _SCI_FLOAT_COLUMN_RE.match(joined) or _TINY_POSITIONAL_RE.search(
            joined
        ):
            return column
        floats = column.astype(np.float64)
        suspect = np.flatnonzero(np.isinf(floats) | (floats == 0.0))
        for index in suspect.tolist():
            if tokens[index] not in _ZERO_OR_INF_SPELLINGS:
                return column
        return floats
    if not _PLAIN_FLOAT_COLUMN_RE.match(joined):
        return column
    floats = column.astype(np.float64)
    magnitudes = np.abs(floats)
    # Finite nonzero values must sit in the positional-rendering range;
    # zeros and infinities are legal only as their literal spellings
    # (positional overflow/underflow takes hundreds of digits, but a
    # column that spells them must still stay text).
    suspect = magnitudes < 1e-4
    suspect |= magnitudes >= 1e16
    if suspect.any():
        for index in np.flatnonzero(suspect).tolist():
            if tokens[index] not in _ZERO_OR_INF_SPELLINGS:
                return column
    return floats


def _infer(values: list[str]) -> list:
    """List-in/list-out wrapper around :func:`_infer_array` (kept for
    callers and tests that work with plain Python lists)."""
    column = np.empty(len(values), dtype=object)
    column[:] = list(values)
    return _infer_array(column).tolist()


def read_csv(
    path: str | Path,
    *,
    report: ParseReport | None = None,
    source: str | None = None,
) -> Table:
    """Read a CSV with a header row back into a table.

    Strict mode (no ``report``) raises :class:`~repro.errors.ParseError`
    on the first row whose field count disagrees with the header.  With
    a :class:`~repro.ingest.ParseReport`, malformed rows are quarantined
    into it (under ``source``, default the file name) and parsing
    continues.  The underlying file read retries transient ``OSError``s
    with backoff either way.
    """
    path = Path(path)
    source = source or path.name
    with trace_span("csv.read", file=source) as sp:
        data = with_retry(path.read_bytes)
        sp.note(bytes=len(data))
        trace_add("csv.bytes", len(data))
        if not data:
            return Table({})
        table = _read_lines(path, data, report, source)
        if table is None:
            # A quoted field spanning lines: only the stdlib reader can
            # reassemble those records, so take the slow path.
            table = _read_stdlib(path, data.decode(), report, source)
        sp.note(rows=table.n_rows)
        trace_add("csv.rows", table.n_rows)
        return table


def _screen(
    path: Path,
    source: str,
    report: ParseReport | None,
    lengths: np.ndarray,
    n_fields: int,
    raw_of: Callable[[int], str],
) -> np.ndarray | None:
    """Field-count screening: the only per-row check.

    Returns the kept row indices, or ``None`` when every row passed.
    Strict mode raises on the first mismatch; lenient mode quarantines
    each bad row (``raw_of`` recovers its original text) and continues.
    """
    bad = np.flatnonzero(lengths != n_fields)
    if not bad.size:
        return None
    if report is None:
        line_no = int(bad[0]) + 2
        raise ParseError(
            f"{path}:{line_no}: expected {n_fields} fields, "
            f"got {int(lengths[bad[0]])}"
        )
    for index in bad.tolist():
        report.quarantine(
            source,
            index + 2,
            f"expected {n_fields} fields, got {int(lengths[index])}",
            raw=raw_of(index),
        )
    return np.flatnonzero(lengths == n_fields)


# One fancy-index pass with this table finds every comma, quote, CR,
# and LF at once, instead of one boolean scan per byte value.
_SEPARATOR_LUT = np.zeros(256, dtype=bool)
_SEPARATOR_LUT[[10, 13, 34, 44]] = True
_NL_TO_COMMA = bytes.maketrans(b"\n", b",")


def _read_lines(
    path: Path, data: bytes, report: ParseReport | None, source: str
) -> Table | None:
    """Fast byte-offset parse for newline-free-in-field CSV text.

    One numpy scan over the raw bytes locates every separator, giving
    per-line comma and quote counts without touching individual lines;
    this is safe under UTF-8 because ``,``/``"``/newlines can never be
    continuation bytes.  Lines that actually contain a quote (a
    sub-percent minority in real logs) are sliced out for the stdlib
    reader and splice back in as placeholder cells; everything else is
    tokenized with a single terminator-to-comma replace + split.
    Returns ``None`` when a line has an odd number of quotes — a quoted
    field spanning lines — so the caller can rerun via the stdlib
    reader; nothing is quarantined before that bail-out.
    """
    with trace_span("csv.scan", bytes=len(data)):
        terminator = b"\n"
        while True:
            buf = np.frombuffer(data, dtype=np.uint8)
            separators = np.flatnonzero(_SEPARATOR_LUT[buf])
            kinds = buf[separators]
            cr_at = separators[kinds == 13]
            if not cr_at.size:
                break
            # The stdlib writer terminates records with CRLF; keep that as
            # the line terminator when every CR pairs with the LF after it,
            # otherwise normalize the stragglers and rescan.  A CR *inside*
            # a field is always quoted, which the parity check below routes
            # to the stdlib reader (via the fake break normalization adds).
            lf_at = separators[kinds == 10]
            if cr_at.size == lf_at.size and bool((cr_at + 1 == lf_at).all()):
                terminator = b"\r\n"
                break
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        has_quotes = bool((kinds == 34).any())
        is_newline = kinds == 10
        # Line index of each separator; a newline closes its own line.
        line_of = np.cumsum(is_newline) - is_newline
        newline_at = separators[is_newline]
        n_lines = int(newline_at.size) + (0 if data.endswith(b"\n") else 1)
        comma_counts = np.bincount(line_of[kinds == 44], minlength=n_lines)

        if has_quotes:
            quote_counts = np.bincount(line_of[kinds == 34], minlength=n_lines)
            if (quote_counts & 1).any():
                return None
        else:
            quote_counts = None

        # Line spans: [starts, line_ends) excludes the newline; content_ends
        # additionally strips the CR of a CRLF terminator.
        starts = np.empty(n_lines, dtype=np.int64)
        line_ends = np.empty(n_lines, dtype=np.int64)
        line_ends[: newline_at.size] = newline_at
        if newline_at.size < n_lines:
            line_ends[-1] = len(data)
        starts[0] = 0
        starts[1:] = line_ends[:-1] + 1
        if terminator == b"\r\n":
            content_ends = line_ends - (
                (line_ends > starts) & (buf[np.maximum(line_ends - 1, 0)] == 13)
            )
        else:
            content_ends = line_ends

    def line_at(index: int) -> str:
        return data[starts[index] : content_ends[index]].decode()

    with trace_span("csv.tokenize") as sp:
        if quote_counts is not None and quote_counts[0]:
            header = next(csv.reader([line_at(0)]))
        else:
            # A blank first line means zero header fields (what csv.reader
            # yields for it), not one empty-named column.
            header = line_at(0).split(",") if content_ends[0] > starts[0] else []
        n_fields = len(header)
        n_body = n_lines - 1
        if n_body <= 0:
            return Table({name: [] for name in header})

        lengths = comma_counts[1:] + 1
        blank = content_ends[1:] == starts[1:]
        if blank.any():
            lengths[blank] = 0
        quoted_rows: dict[int, list[str]] = {}
        if quote_counts is not None:
            quoted_indices = np.flatnonzero(quote_counts[1:]).tolist()
            if quoted_indices:
                parsed = csv.reader(line_at(i + 1) for i in quoted_indices)
                for index, row in zip(quoted_indices, parsed):
                    quoted_rows[index] = row
                    lengths[index] = len(row)

        keep = _screen(
            path, source, report, lengths, n_fields, lambda i: line_at(i + 1)
        )
        if n_fields == 0:
            return Table({})
        n_rows = n_body if keep is None else int(keep.size)
        sp.note(rows=n_rows, fields=n_fields)
        if n_rows == 0:
            return Table({name: [] for name in header})

        # Splice quarantined lines out of (and placeholder cells for quoted
        # lines into) the body region by byte offset, then explode every
        # remaining cell with a single terminator-to-comma replace + split.
        dropped = (
            set()
            if keep is None
            else set(np.flatnonzero(lengths != n_fields).tolist())
        )
        placeholder = b"," * (n_fields - 1) + terminator
        special = sorted(set(quoted_rows) | dropped)
        region_start = int(starts[1])
        if special:
            pieces = []
            previous = region_start
            for index in special:
                pieces.append(data[previous : starts[index + 1]])
                if index not in dropped:
                    pieces.append(placeholder)
                previous = (
                    int(starts[index + 2]) if index + 2 < n_lines else len(data)
                )
            pieces.append(data[previous:])
            region = b"".join(pieces)
        else:
            region = data[region_start:]
        if region.endswith(terminator):
            region = region[: -len(terminator)]
        # translate() turns every LF into a comma and drops terminator CRs
        # (which are the only CRs left here) in one pass over the region.
        flat = region.translate(_NL_TO_COMMA, b"\r").decode().split(",")
        if len(flat) != n_rows * n_fields:  # pragma: no cover - safety net
            return None
        grid = np.empty(n_rows * n_fields, dtype=object)
        grid[:] = flat
        grid = grid.reshape(n_rows, n_fields)

        quoted_kept = [i for i in special if i not in dropped]
        if quoted_kept:
            cells = np.empty((len(quoted_kept), n_fields), dtype=object)
            cells[:] = [quoted_rows[i] for i in quoted_kept]
            if keep is None:
                grid[quoted_kept] = cells
            else:
                grid[np.searchsorted(keep, quoted_kept)] = cells
    with trace_span("csv.infer", rows=n_rows, fields=n_fields):
        return Table(
            {name: _infer_array(grid[:, j]) for j, name in enumerate(header)}
        )


def _read_stdlib(
    path: Path, text: str, report: ParseReport | None, source: str
) -> Table:
    """Full stdlib-reader parse for CSV dialect the fast path cannot
    split line-by-line (carriage returns, multi-line quoted fields)."""
    with trace_span("csv.stdlib", bytes=len(text)) as sp:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows:
            return Table({})
        header, body = rows[0], rows[1:]
        n_fields = len(header)
        if not body:
            return Table({name: [] for name in header})
        lengths = np.fromiter(
            (len(r) for r in body), dtype=np.int64, count=len(body)
        )
        keep = _screen(
            path, source, report, lengths, n_fields, lambda i: ",".join(body[i])
        )
        if keep is not None:
            body = [body[i] for i in keep.tolist()]
            if not body:
                return Table({name: [] for name in header})
        if n_fields == 0:
            return Table({})
        sp.note(rows=len(body), fields=n_fields)
        matrix = np.empty((len(body), n_fields), dtype=object)
        matrix[:] = body
        with trace_span("csv.infer", rows=len(body), fields=n_fields):
            return Table(
                {name: _infer_array(matrix[:, j]) for j, name in enumerate(header)}
            )


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """Write an iterable of dicts as one JSON object per line.

    Atomic like :func:`write_csv`: readers see the old file or the new
    one, never a partial line.
    """
    with atomic_open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str | Path) -> list[dict]:
    """Read a JSONL file back into a list of dicts.

    Transient ``OSError``s are retried with backoff, matching
    :func:`read_csv`.
    """

    def _read() -> list[dict]:
        with Path(path).open() as handle:
            return [json.loads(line) for line in handle if line.strip()]

    return with_retry(_read)

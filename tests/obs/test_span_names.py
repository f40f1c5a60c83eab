"""Every span name the code emits is listed in docs/observability.md.

The span table there is how an operator reads a trace without reading
code, so a new literal name passed to ``trace_span(``, ``span(`` or
``record_span(`` must land in the table in the same change.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPAN_CALLS = {"trace_span", "span", "record_span"}


def _emitted_span_names() -> dict[str, str]:
    """Literal span names in ``src/repro``, each with one emitting file."""
    names = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            first = node.args[0]
            if called in SPAN_CALLS and isinstance(first, ast.Constant):
                names.setdefault(first.value, str(path.relative_to(ROOT)))
    return names


def _documented_span_names() -> set[str]:
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("## Span and metric names", 1)[1]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def test_scan_finds_the_known_emitters():
    emitted = _emitted_span_names()
    assert {"csv.read", "experiment", "stream.poll", "serve.request"} <= set(
        emitted
    )


def test_every_emitted_span_name_is_documented():
    documented = _documented_span_names()
    missing = {
        name: where
        for name, where in _emitted_span_names().items()
        if name not in documented
    }
    assert not missing, f"span names missing from docs/observability.md: {missing}"

"""Deterministic CSV/JSON emitters.

Numbers are written with 17 significant digits and a '.' decimal
separator, enough to round-trip doubles exactly: re-reading an emitted
file and emitting it again reproduces it byte for byte.

Every JSON file is the text of ``json.dumps(obj, indent=2,
sort_keys=True)`` plus a final newline, UTF-8 with '\n' line ends.
``write_json`` produces it with ``json.dumps`` itself;
``write_moments_json`` writes the same bytes for the moments table
straight from the integer matching counts, without building ``obj`` or
running the (pure-Python) indenting encoder.
"""

from __future__ import annotations

import json
import math
from functools import cache
from pathlib import Path

__all__ = [
    "format_value",
    "parse_token",
    "write_csv",
    "read_csv",
    "write_json",
    "write_moments_json",
    "read_json",
]


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if v == 0.0:
            return "0"  # fold away the sign of a negative zero
        return format(v, ".17g")
    return str(v)


def parse_token(tok: str):
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = [format_value(v) for v in row]
        if any("," in c or "\n" in c for c in cells):
            raise ValueError("table cells must not contain separators")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path):
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln != ""]
    header = lines[0].split(",")
    rows = [[parse_token(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def write_moments_json(path, moments) -> None:
    """Write ``moments.json``: the bytes ``write_json`` would give for

        [{"k": k,
          "moment": [{"exponents": {"b<m>": e_m, ...}, "num": str, "den": str}, ...],
          "tadpole_free": [the entries whose loops have no b1]}, ...]

    with one entry per moment (anything with ``k`` and ``terms``, the
    loop vector -> matching count map of a moment over 2**k), monomials
    in loop-vector order and each coefficient count / 2**k reduced.
    """
    entries = []
    for m in moments:
        k, den = m.k, 1 << m.k
        full, free = [], []
        for loops, count in sorted(m.terms.items()):
            g = math.gcd(count, den)
            keys = _exponent_keys(len(loops))
            exps = ",".join([f"{key}{loops[i]}" for i, key in keys if loops[i]])
            exps = f"{{{exps}\n        }}" if exps else "{}"
            text = (f'\n      {{\n        "den": "{den // g}",\n        "exponents": {exps},\n'
                    f'        "num": "{count // g}"\n      }}')
            full.append(text)
            if not loops or loops[0] == 0:
                free.append(text)
        entries.append(f'\n  {{\n    "k": {k},\n    "moment": {_list(full, "    ")},\n'
                       f'    "tadpole_free": {_list(free, "    ")}\n  }}')
    text = _list(entries, "") + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


@cache
def _exponent_keys(n: int) -> tuple[tuple[int, str], ...]:
    """Each position i < n of a loop vector with the indented key line
    of its exponent "b<i+1>", in the string order ``sort_keys`` gives
    the keys (b1, b10, b11, ..., b2)."""
    order = sorted(range(n), key=lambda i: f"b{i + 1}")
    return tuple((i, f'\n          "b{i + 1}": ') for i in order)


def _list(items: list[str], indent: str) -> str:
    """A JSON list of already indented items, closed at ``indent``."""
    return f"[{','.join(items)}\n{indent}]" if items else "[]"


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))

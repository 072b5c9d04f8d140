"""Point set text files.

Format: one point per line as `x y`, each coordinate an integer or `num/den`;
`#` starts a comment line; blank lines are ignored.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import Point, parse_rational


class PointFileError(Exception):
    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.source = source
        self.lineno = lineno


def parse_points(lines: Iterable[str], source: str = "<input>") -> list[Point]:
    """The points of the lines, in order; a point met twice, by exact value,
    raises PointFileError at the repeat, naming the line it first came on."""
    first_line: dict[Point, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise PointFileError(source, lineno, f"expected 'x y', got {raw.rstrip()!r}")
        try:
            x = parse_rational(tokens[0])
            y = parse_rational(tokens[1])
        except ValueError as exc:
            raise PointFileError(source, lineno, str(exc)) from exc
        first = first_line.setdefault(Point(x, y), lineno)
        if first != lineno:
            raise PointFileError(source, lineno, f"point {tokens[0]} {tokens[1]} repeats line {first}")
    return list(first_line)


def read_text(path: str | Path) -> str:
    """The file decoded as UTF-8, every universal newline read as a line feed;
    a byte that is not UTF-8 raises PointFileError at its file:line."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte's line, with line ends counted as universal newlines.
        lineno = len((data[: exc.start] + b".").splitlines())
        raise PointFileError(str(path), lineno, f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}") from exc
    return io.StringIO(text, newline=None).read()


def read_points(path: str | Path) -> list[Point]:
    return parse_points(io.StringIO(read_text(path)), source=str(path))


def write_points(path: str | Path, points: Sequence[Point]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for p in points:
            fh.write(f"{p.x} {p.y}\n")

"""Compare two directories written by tests/golden_outputs.py, file by file.

    python3 tests/golden_diff.py OLD NEW

For each file under either directory it prints one line:

    identical  NAME
    numeric    NAME  max deviation R of the column's largest |value| (line L: OLD -> NEW)
    differs    NAME  line L: 'OLD LINE' -> 'NEW LINE'
    only-old   NAME      (or only-new)

A line splits into numbers and the text around them.  Two files differ
numerically when every line keeps its text and its count of numbers; a
number's column is its place on lines of the same text (the cells of one
table column, or one header key), and R is the largest |old - new| in a
column over the largest |value| in it.  Otherwise the first line whose text
changed is printed.  A summary line counts each kind.  The exit status is 0.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import collections
import pathlib
import re
import sys

# a decimal number that is not part of a word or a version string
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _split(line: str) -> tuple[str, list[float]]:
    """The line's text with each number replaced by '#', and its numbers."""
    return _NUMBER.sub("#", line), [float(tok) for tok in _NUMBER.findall(line)]


def compare(old: str, new: str) -> str:
    """The verdict for one file's two texts, without its name."""
    if old == new:
        return "identical"
    old_lines, new_lines = old.splitlines(), new.splitlines()
    worst, where = 0.0, ""
    largest: dict[tuple[str, int], float] = collections.defaultdict(float)
    deviation: dict[tuple[str, int], tuple[float, int, str, str]] = {}
    for ln in range(max(len(old_lines), len(new_lines))):
        a = old_lines[ln] if ln < len(old_lines) else "<missing>"
        b = new_lines[ln] if ln < len(new_lines) else "<missing>"
        (text_a, nums_a), (text_b, nums_b) = _split(a), _split(b)
        if text_a != text_b or len(nums_a) != len(nums_b):
            return f"differs    line {ln + 1}: {a!r} -> {b!r}"
        for i, (x, y) in enumerate(zip(nums_a, nums_b)):
            key = (text_a, i)
            largest[key] = max(largest[key], abs(x), abs(y))
            if abs(x - y) > deviation.get(key, (0.0,))[0]:
                deviation[key] = (abs(x - y), ln + 1, repr(x), repr(y))
    for key, (dev, ln, x, y) in deviation.items():
        if dev / largest[key] > worst:
            worst, where = dev / largest[key], f"line {ln}: {x} -> {y}"
    if not where:  # the same numbers, written differently (1.0 and 1.00)
        return "differs    text of equal numbers"
    return f"numeric    max deviation {worst:.3g} of the column's largest |value| ({where})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_dir, new_dir = map(pathlib.Path, argv)
    names = sorted({str(p.relative_to(d)) for d in (old_dir, new_dir)
                    for p in d.rglob("*") if p.is_file()})
    counts: collections.Counter[str] = collections.Counter()
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not new.exists() or not old.exists():
            verdict = "only-old" if old.exists() else "only-new"
        else:
            verdict = compare(old.read_text(errors="replace"), new.read_text(errors="replace"))
        counts[verdict.split()[0]] += 1
        kind, _, detail = verdict.partition(" ")
        print(f"{kind:10s} {name}  {detail.strip()}".rstrip())
    print("summary: " + ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

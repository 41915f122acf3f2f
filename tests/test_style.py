"""Source layout rules for src/fpfun, checked with the standard library only."""

from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fpfun"


def test_no_line_over_100_columns():
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long_lines, "\n".join(long_lines)

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first python block of the README's library quick start."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_as_written():
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    # the values its comments state
    assert namespace["hk_multiplicity"](namespace["problem"], 10) == Fraction(2, 1)
    assert namespace["est"].error_bound >= 0

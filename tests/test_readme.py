"""The README's Library example runs, and its comments state what it gives."""
import re
from fractions import Fraction
from pathlib import Path

import contractmatch as cm

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_its_comments_say(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    inst, outcome, core = namespace["inst"], namespace["outcome"], namespace["core"]
    assert printed[0].startswith("{'matches': [[1, 3], [2, 4]], ")
    assert printed[0] == str(cm.outcome_to_dict(outcome))
    assert len(core) == 4
    assert cm.is_stable(inst, outcome) is True
    assert all(cm.blocking_coalitions(inst, o) == [] for o in core)
    assert cm.is_pairwise_efficient(inst).holds
    assert (1, 3, 4, Fraction(3)) in cm.has_disjoint_yields(inst).witnesses

"""The mutant catalogue of ``tools/mutants.py`` stays in step with the code:
each entry's old text occurs exactly once in its file, so the runner would
apply exactly one replacement, and each test it names exists.  Running the
mutants is the tool's job (a CI step of its own), not tier-1's."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import mutants  # noqa: E402

sys.path.remove(str(ROOT / "tools"))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_replaces_one_occurrence_and_names_existing_tests(mutant):
    assert mutant.file.startswith("src/") and mutant.old != mutant.new
    assert mutants.occurrences(mutant) == 1
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert not name or f"def {name}(" in source, node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))

"""The mutation list of tools/mutants.py still matches the code.

The runner itself stays out of the suite (it runs the suite once per
mutant); this checks only that every mutant's old text occurs exactly once
in its file, so a refactor cannot turn a mutant into a silent no-op.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_mutant_old_text_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new in mutants.MUTANTS:
        assert old != new, name
        assert (ROOT / file).read_text().count(old) == 1, name

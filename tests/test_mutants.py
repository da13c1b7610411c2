"""The mutant tables of `mutants.py` stay applicable: every old snippet
occurs exactly once in its file under `src/`, and every row of `MUTANTS`
names test files that exist (a test id names its file before `::`).
Running the table itself is `python tests/mutants.py`."""

from mutants import MUTANTS, PROOF_ONLY, ROOT


def test_every_mutant_snippet_occurs_once_in_src():
    for mutant in MUTANTS + PROOF_ONLY:
        text = (ROOT / "src" / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
    for mutant in MUTANTS:
        for path in mutant.tests:
            assert (ROOT / path.split("::")[0]).is_file(), (mutant.name, path)

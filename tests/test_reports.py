"""The report corpus: the README's CLI examples on fixed small inputs.

`tests/data/reports.json` stores, for each example in README order, its
argv, exit code, the report it prints and the frame files it writes.
The examples run in process, in one directory, so a later example reads
the files an earlier one wrote (`dual` writes the g.json that `check`
and `lemma` read).  Keys, verdicts, exit codes, integers, booleans and
strings must match exactly; floats within 1e-12 * max(1, |a|, |b|),
since residuals near 1e-16 move in their last bits with the number of
BLAS threads.  An intended report change shows as a diff of the file.

Regenerate it with ``PYTHONPATH=src python tests/test_reports.py``.  A
regenerated float that reproduces the stored one within that tolerance
keeps the stored value, so the file's diff shows only real changes.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import numpy as np

import framekit as fk
from framekit.io import dumps_frame
from framekit.linalg import gaussian_matrix

CORPUS = pathlib.Path(__file__).parent / "data" / "reports.json"
README = pathlib.Path(__file__).parent.parent / "README.md"
RTOL = 1e-12

EXAMPLES = [
    "gen --kind parseval-projection --dim 2 --n 5 --out p.json",
    "analyze p.json",
    "dual f.json --mode random --out g.json",
    "check f.json g.json",
    "parseval-dual f.json --out pd.json",
    "nu p.json --j 1,4",
    "nu p.json --global-min",
    "identity p.json --j 1,3 --trials 200",
    "tail p.json --eps 0.125",
    "lemma f.json g.json --probes 50",
    "gen --kind parseval-projection --dim 2 --n 5 --field complex --out pc.json",
    "nu pc.json --global-min",
    "identity pc.json --j 1,3 --trials 200",
    "gen --kind projected-basis --n 5 --seed 3 --out b.json",
    "analyze b.json",
    "dual f.json --mode from-projection --proj uv.json",
]


def run_example(argv):
    """Exit code, parsed report (None when nothing is printed) and the
    frame files named by --out, parsed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fk.run_command(argv)
    text = out.getvalue()
    written = {}
    if "--out" in argv:
        name = argv[argv.index("--out") + 1]
        written[name] = json.loads(pathlib.Path(name).read_text())
    return code, json.loads(text) if text else None, written


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _floats(expected, actual):
    # a float that happens to be integral is written as an integer
    return _is_number(expected) and _is_number(actual) and (
        isinstance(expected, float) or isinstance(actual, float))


def _close(expected, actual):
    return abs(expected - actual) <= RTOL * max(1.0, abs(expected), abs(actual))


def assert_matches(expected, actual, where):
    if _floats(expected, actual):
        assert _close(expected, actual), (where, expected, actual)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key, value in expected.items():
            assert_matches(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            where, expected, actual)


def test_readme_examples_match_the_corpus(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS.read_text())
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    for name, obj in corpus["inputs"].items():
        pathlib.Path(name).write_text(json.dumps(obj))
    readme = README.read_text()
    assert all(f"framekit {line}" in readme for line in EXAMPLES)
    assert [case["argv"] for case in corpus["cases"]] == [
        line.split() for line in EXAMPLES]
    for case in corpus["cases"]:
        code, report, written = run_example(case["argv"])
        where = " ".join(case["argv"])
        assert code == case["exit"], where
        assert_matches(case["report"], report, where)
        assert_matches(case["written"], written, where)


def _fixed_inputs():
    """A real (3, 6) frame scaled to A = 1: it has a Parseval dual, and
    the construction routes two eigenvectors into its synthesis kernel.
    With it, the oblique projection UV* of f and the dual g that
    `dual f.json --mode random` writes (seed 0), as a matrix file."""
    tol = fk.ToleranceConfig()
    f, _ = fk.rescale_to_admissible(fk.random_frame(3, 6, seed=7), tol)
    w = gaussian_matrix(np.random.default_rng(0), f.n, f.dim, False)
    uv = fk.projection_from_dual_pair(f, fk.dual_from_free_operator(f, w, tol), tol)
    return {"f.json": json.loads(dumps_frame(f)),
            "uv.json": json.loads(dumps_frame(fk.Frame(dim=f.n, field=f.field, vectors=uv)))}


def keep_reproduced(stored, new):
    """new, with every float that reproduces a stored one within the
    test's tolerance replaced by the stored value, so that a regenerated
    corpus differs only where a report really changed."""
    if _floats(stored, new):
        return stored if _close(stored, new) else new
    if isinstance(stored, dict) and isinstance(new, dict) and list(stored) == list(new):
        return {key: keep_reproduced(stored[key], value) for key, value in new.items()}
    if isinstance(stored, list) and isinstance(new, list) and len(stored) == len(new):
        return [keep_reproduced(s, n) for s, n in zip(stored, new)]
    return new


def regenerate():
    stored = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    inputs = keep_reproduced(stored.get("inputs"), _fixed_inputs())
    cases = []
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        os.environ.pop("FRAMEKIT_SEED", None)
        try:
            for name, obj in inputs.items():
                pathlib.Path(name).write_text(json.dumps(obj))
            for line in EXAMPLES:
                argv = line.split()
                code, report, written = run_example(argv)
                cases.append({"argv": argv, "exit": code, "report": report,
                              "written": written})
        finally:
            os.chdir(home)
    stored_cases = {tuple(case["argv"]): case for case in stored.get("cases", [])}
    cases = [keep_reproduced(stored_cases.get(tuple(case["argv"])), case) for case in cases]
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"inputs": inputs, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()

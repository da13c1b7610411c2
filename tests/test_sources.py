"""Rules over the source files themselves: every line of `src/` and
`tests/` fits in 100 characters, and outside `helpers.py` no test module
sets an attribute of numpy.linalg, starts tracemalloc or keeps a library
function as a default argument, the hand-written wrapper's way to reach
the original; spies and memory probes go through `helpers.record_calls`
and `helpers.traced_peak`.  No function of `cli.py` imports: handlers
reach the library through the package's name table.  Only the listed
functions of `src/` read `rank_rtol` or `eig_one_atol`: every other
rank or band verdict goes through the memos of `frames.py`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
MAX_LINE = 100
LINALG = {"np.linalg", "numpy.linalg"}
LIBRARIES = {"fk", "framekit", "np", "numpy"}


def test_no_line_is_longer_than_the_limit():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(sources) > 20
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
            for path in sources
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []


def hand_written_probes(tree):
    """The lines of tree that set an attribute of numpy.linalg, by setattr
    (monkeypatch's, which also takes a dotted string, included) or by
    assignment, that start tracemalloc, or that define a function with an
    attribute of framekit or numpy as a default argument."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and (
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "setattr"):
            owner = node.args[0]
            hit = (owner.value.rpartition(".")[0] if isinstance(owner, ast.Constant)
                   else ast.unparse(owner)) in LINALG
        elif isinstance(node, ast.Assign):
            hit = any(isinstance(target, ast.Attribute) and ast.unparse(target.value) in LINALG
                      for target in node.targets)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            hit = any(isinstance(d, ast.Attribute)
                      and ast.unparse(d).partition(".")[0] in LIBRARIES for d in defaults)
        else:
            hit = isinstance(node, ast.Attribute) and ast.unparse(node) == "tracemalloc.start"
        if hit:
            found.append(node.lineno)
    return found


def test_spies_and_memory_probes_go_through_the_helpers():
    modules = [path for path in sorted(TESTS.glob("*.py")) if path.name != "helpers.py"]
    assert len(modules) > 10
    found = [f"{path.name}:{line}" for path in modules
             for line in hand_written_probes(ast.parse(path.read_text()))]
    assert found == []
    for probe in ("monkeypatch.setattr(np.linalg, 'svd', spy)",
                  "patch.setattr('numpy.linalg.qr', spy)",
                  "np.linalg.eigvalsh = spy", "tracemalloc.start()",
                  "def spy(x, _limit=framekit.identity._det_limit): pass",
                  "def spy(a, *, _svd=np.linalg.svd): pass"):
        assert hand_written_probes(ast.parse(probe)) == [1], probe
    assert hand_written_probes(ast.parse("record_calls(monkeypatch, np.linalg, 'svd')")) == []


def function_imports(tree):
    """The lines of the import statements inside a function of tree."""
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_cli_imports_nothing_inside_a_function():
    # `framekit._PUBLIC` alone says which submodule holds a name that a
    # subcommand runs, and so which modules its start loads
    assert function_imports(ast.parse((ROOT / "src" / "framekit" / "cli.py").read_text())) == []
    assert function_imports(ast.parse("import os\ndef f():\n    from .duals import x\n"
                                      "    def g():\n        import numpy\n")) == [3, 5]


# Each read of a rank or band tolerance in src/, by (file, function, field),
# with its count.  A new single-frame verdict reads the memos instead.
TOLERANCE_READS = {
    ("frames.py", "_rank", "rank_rtol"): 2,  # the rank memo: its key and its rule
    ("frames.py", "_band", "eig_one_atol"): 2,  # the band memo: its key and its rule
    ("frames.py", "excess", "rank_rtol"): 1,  # the report's tolerance_used field
    ("duals.py", "check_duality", "rank_rtol"): 2,  # the grade of V*U and its certificate
    ("duals.py", "dual_from_free_operator", "rank_rtol"): 1,  # refuses cond(S) >= 1/rank_rtol
    ("parseval.py", "nonexistence_reasons", "eig_one_atol"): 1,  # reads a report
    ("cli.py", "build_parser", "rank_rtol"): 1,  # the option defaults
    ("cli.py", "build_parser", "eig_one_atol"): 1,
}


def tolerance_reads(tree, name):
    """Counter of (name, enclosing function, field) over the reads of
    rank_rtol and eig_one_atol in tree."""
    found = Counter()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("rank_rtol", "eig_one_atol"):
            found[name, function, node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_rank_and_band_tolerances_are_read_only_where_listed():
    found = Counter()
    for path in sorted((ROOT / "src" / "framekit").glob("*.py")):
        found += tolerance_reads(ast.parse(path.read_text()), path.name)
    assert found == Counter(TOLERANCE_READS)
    probe = "def is_parseval(f, tol):\n    return f.gap <= tol.eig_one_atol\n"
    assert tolerance_reads(ast.parse(probe), "frames.py") == {
        ("frames.py", "is_parseval", "eig_one_atol"): 1}

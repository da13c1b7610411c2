import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import framekit as fk
import framekit.cli
from framekit.io import canonical_json, dumps_frame, loads_frame
from helpers import random_dual_pair, scaled


def run(capsys, *argv):
    code = fk.run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, frame):
    fk.write_frame(frame, str(path))
    return str(path)


def test_canonical_json_scalars():
    assert canonical_json(None) == "null"
    assert canonical_json(True) == "true"
    assert canonical_json(False) == "false"
    assert canonical_json(3) == "3"
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(0.25) == "0.25"
    assert canonical_json(1.0) == "1"
    assert canonical_json("a\"b") == '"a\\"b"'
    assert canonical_json([1, [2.5, None]]) == "[1,[2.5,null]]"
    assert canonical_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'  # insertion order
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json(np.arange(3)) == "[0,1,2]"
    assert canonical_json(np.array([1 + 2j, 0.5])) == "[[1,2],[0.5,0]]"
    with pytest.raises(fk.FramekitError):
        canonical_json(float("nan"))
    with pytest.raises(fk.FramekitError):
        canonical_json(float("inf"))


def test_float_rendering_round_trips_bits():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200):
        assert float(json.loads(canonical_json(float(x)))) == float(x)


def test_frame_round_trip_is_bit_exact(mb3):
    for f in (mb3, fk.random_frame(3, 5, seed=1, field="complex"),
              fk.parseval_projection_frame(2, 6, seed=2, field="complex")):
        text = dumps_frame(f)
        back = loads_frame(text)
        assert back.dim == f.dim and back.field == f.field
        assert np.array_equal(back.vectors, f.vectors)
        assert dumps_frame(back) == text


def test_frame_file_round_trip_on_disk(tmp_path, mb3):
    path = write(tmp_path / "f.json", mb3)
    back = fk.read_frame(path)
    assert np.array_equal(back.vectors, mb3.vectors)
    with open(path, "rb") as handle:
        raw = handle.read()
    assert raw.endswith(b"\n") and b" " not in raw


def test_complex_frames_serialize_as_pairs():
    f = fk.Frame(dim=1, field="complex", vectors=np.array([[1.0 + 2.0j]]))
    obj = json.loads(dumps_frame(f))
    assert obj["vectors"] == [[[1.0, 2.0]]]


def test_frame_file_schema_errors():
    good = {"dim": 2, "field": "real", "vectors": [[1.0, 0.0]]}
    assert loads_frame(json.dumps(good)).n == 1
    bad_cases = [
        '["not", "an", "object"]',
        '{"field": "real", "vectors": [[1, 0]]}',
        '{"dim": 0, "field": "real", "vectors": [[1, 0]]}',
        '{"dim": true, "field": "real", "vectors": [[1, 0]]}',
        '{"dim": 2, "field": "rational", "vectors": [[1, 0]]}',
        '{"dim": 2, "field": "real", "vectors": []}',
        '{"dim": 2, "field": "real", "vectors": [[1]]}',
        '{"dim": 2, "field": "real", "vectors": [[1, true]]}',
        '{"dim": 2, "field": "real", "vectors": [[1, "0"]]}',
        '{"dim": 2, "field": "real", "vectors": [[1, NaN]]}',
        '{"dim": 2, "field": "real", "vectors": [[1, Infinity]]}',
        '{"dim": 1, "field": "complex", "vectors": [[1.0]]}',
        '{"dim": 1, "field": "complex", "vectors": [[[1.0, 0.0, 0.0]]]}',
        'not json at all',
        # an integer beyond the float range
        '{"dim": 2, "field": "real", "vectors": [[1%s, 0]]}' % ("0" * 400),
        '{"dim": 1, "field": "complex", "vectors": [[[0, 1%s]]]}' % ("0" * 400),
        # a huge dim with a one-entry row
        '{"dim": 1000000000000, "field": "real", "vectors": [[1]]}',
        # nesting deeper than the decoder's recursion limit
        "[" * 100000,
        # a deeply nested entry, a dim and a field that are long lists
        '{"dim": 1, "field": "real", "vectors": [[%s1%s]]}' % ("[" * 980, "]" * 980),
        '{"dim": [%s], "field": "real", "vectors": [[1]]}' % ",".join(["1"] * 1000),
        '{"dim": 1, "field": "%s", "vectors": [[1]]}' % ("x" * 2000),
    ]
    # each is refused before the frame's array is allocated: the dim of
    # 10^12 would ask for 7.28 TiB if the array came first; and in one
    # short line, however long the offending value is
    tracemalloc.start()
    try:
        for text in bad_cases:
            with pytest.raises(fk.FrameFileError) as err:
                loads_frame(text)
            assert len(str(err.value)) <= 120 and "\n" not in str(err.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_read_frame_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(fk.FrameFileError) as err:
        fk.read_frame(missing)
    assert "nope.json" in str(err.value)


# ---------------------------------------------------------------- CLI


@pytest.fixture
def files(tmp_path, mb3, e1e2e1):
    paths = {
        "mb3": write(tmp_path / "mb3.json", mb3),
        "e1e2e1": write(tmp_path / "e1e2e1.json", e1e2e1),
        "scaled": write(tmp_path / "scaled.json", scaled(mb3, 1.5)),
        "half": write(tmp_path / "half.json", scaled(e1e2e1, 0.5)),
        "nonframe": write(tmp_path / "nonframe.json",
                          fk.Frame(dim=2, field="real", vectors=[[1, 0], [2, 0]])),
        "tight": write(tmp_path / "tight.json",
                       fk.Frame(dim=2, field="real", vectors=[[2, 0], [0, 1]])),
        "dir": tmp_path,
    }
    return paths


@pytest.fixture(scope="module")
def big_parseval(tmp_path_factory):
    """A real (3, 2000) Parseval frame file: the rows of a matrix with
    orthonormal columns."""
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((2000, 3)))
    return write(tmp_path_factory.mktemp("big") / "p.json",
                 fk.Frame(dim=3, field="real", vectors=q))


def test_cli_analyze(files, big_parseval, capsys):
    code, out, _ = run(capsys, "analyze", big_parseval)
    assert code == 0 and json.loads(out)["payload"]["is_parseval"] is True
    code, out, _ = run(capsys, "analyze", files["mb3"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "n/a"
    payload = report["payload"]
    assert payload["is_frame"] and payload["is_parseval"]
    assert payload["excess"] == 1 and payload["rank"] == 2
    assert len(payload["singular_values"]) == 3
    assert payload["a_opt"] == pytest.approx(1.0, abs=1e-10)
    npt.assert_allclose(payload["norms_sq"], [2 / 3] * 3, atol=1e-12)


def test_cli_analyze_non_frame(files, capsys):
    code, out, _ = run(capsys, "analyze", files["nonframe"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["is_frame"] is False
    assert payload["excess"] is None and payload["rank"] is None
    assert payload["singular_values"] is None


def test_cli_analyze_thin_but_spanning(capsys, tmp_path):
    base = np.array([[1.0, 0.0], [0.0, 1e-6], [1.0, 0.0]])
    for scale in (1.0, 1e-3, 1e3):
        path = write(tmp_path / f"thin{scale}.json",
                     fk.Frame(dim=2, field="real", vectors=scale * base))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["is_frame"] is True
        assert (payload["excess"], payload["rank"]) == (1, 2)
        code, out, _ = run(capsys, "parseval-dual", path)
        assert code == 0 and json.loads(out)["payload"]["exists"] is False


def test_cli_dual_canonical(files, capsys, tmp_path):
    out_path = str(tmp_path / "dual.json")
    code, out, _ = run(capsys, "dual", files["e1e2e1"], "--out", out_path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["payload"]["excess_equal"] is True
    dual = fk.read_frame(out_path)
    npt.assert_allclose(dual.vectors, [[0.5, 0], [0, 1], [0.5, 0]], atol=1e-14)


def test_cli_dual_from_w_and_projection(files, capsys, tmp_path):
    w = fk.Frame(dim=2, field="real", vectors=np.zeros((3, 2)) + [[0.1, 0.0]] * 3)
    w_path = write(tmp_path / "w.json", w)
    code, out, _ = run(capsys, "dual", files["e1e2e1"], "--mode", "from-w",
                       "--w", w_path)
    assert code == 0 and json.loads(out)["verdict"] == "pass"

    e1e2e1 = fk.read_frame(files["e1e2e1"])
    g = fk.canonical_dual(e1e2e1, fk.ToleranceConfig())
    proj = fk.projection_from_dual_pair(e1e2e1, g, fk.ToleranceConfig())
    proj_path = write(tmp_path / "proj.json",
                      fk.Frame(dim=3, field="real", vectors=proj))
    code, out, _ = run(capsys, "dual", files["e1e2e1"], "--mode",
                       "from-projection", "--proj", proj_path)
    assert code == 0
    npt.assert_allclose(json.loads(out)["payload"]["dual_vectors"],
                        [[0.5, 0], [0, 1], [0.5, 0]], atol=1e-12)

    # mode flags without their file arguments are usage errors
    code, _, err = run(capsys, "dual", files["e1e2e1"], "--mode", "from-w")
    assert code == 2 and "error" in err


def test_cli_dual_random_is_seeded(files, capsys):
    code, out1, _ = run(capsys, "dual", files["mb3"], "--mode", "random",
                        "--seed", "5")
    code2, out2, _ = run(capsys, "dual", files["mb3"], "--mode", "random",
                         "--seed", "5")
    code3, out3, _ = run(capsys, "dual", files["mb3"], "--mode", "random",
                         "--seed", "6")
    assert code == code2 == code3 == 0
    assert out1 == out2 != out3
    assert json.loads(out1)["verdict"] == "pass"


def test_cli_check(files, big_parseval, capsys, tmp_path):
    g_path = str(tmp_path / "g.json")
    for argv in (("dual", big_parseval, "--mode", "random", "--out", g_path),
                 ("check", big_parseval, g_path)):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "pass", argv
        assert report["payload"]["excess_equal"] is True, argv

    code, out, _ = run(capsys, "check", files["mb3"], files["scaled"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    payload = report["payload"]
    assert payload["is_exact_dual"] is False
    assert payload["is_pseudo_dual"] is True
    assert payload["deviation_norm"] == pytest.approx(0.5, abs=1e-12)
    assert payload["excess_equal"] is True


def test_cli_check_factors_only_f(capsys, tmp_path, monkeypatch):
    # excess_g is n - d once check_duality has accepted g as a frame, so a
    # fresh near-dual pair costs f's thin SVD and one eigvalsh of the Gram
    # stack of V*U - I and V*U
    f, g = random_dual_pair(3, 6, seed=5)
    fp, gp = write(tmp_path / "f.json", f), write(tmp_path / "g.json", g)
    frames, calls = [], []

    def read(path, _read=framekit.cli.read_frame):
        frames.append(_read(path))
        return frames[-1]

    def counted(a, *rest, _svd=np.linalg.svd, **kw):
        calls.append(("svd", np.shape(a), kw.get("compute_uv", True)))
        return _svd(a, *rest, **kw)

    def counted_eigvalsh(a, *rest, _eigvalsh=np.linalg.eigvalsh, **kw):
        calls.append(("eigvalsh", np.shape(a)))
        return _eigvalsh(a, *rest, **kw)
    monkeypatch.setattr(framekit.cli, "read_frame", read)
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    code, out, _ = run(capsys, "check", fp, gp)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["excess_f"] == payload["excess_g"] == 3
    assert payload["excess_equal"] is True
    assert sorted(calls) == [("eigvalsh", (2, 3, 3)), ("svd", (6, 3), True)]
    assert "svd" in vars(frames[0]) and "svd" not in vars(frames[1])


def test_cli_check_non_pseudo(files, capsys, tmp_path):
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 1]])
    g = fk.Frame(dim=2, field="real", vectors=[[0, 1], [1, 0], [-1, 0]])
    fp, gp = write(tmp_path / "np_f.json", f), write(tmp_path / "np_g.json", g)
    code, out, _ = run(capsys, "check", fp, gp)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "n/a"
    assert report["payload"]["excess_equal"] is None


def test_cli_parseval_dual(files, capsys, tmp_path):
    out_path = str(tmp_path / "pd.json")
    code, out, _ = run(capsys, "parseval-dual", files["e1e2e1"],
                       "--out", out_path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["payload"]["exists"] is True
    assert report["payload"]["residual_parseval"] <= 1e-10
    assert report["payload"]["residual_dual"] <= 1e-10
    npt.assert_allclose(fk.read_frame(out_path).vectors,
                        [[1, 0], [0, 1], [0, 0]], atol=1e-12)


def test_cli_parseval_dual_nonexistent(files, capsys):
    code, out, _ = run(capsys, "parseval-dual", files["tight"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["payload"]["exists"] is False
    assert report["payload"]["reasons"] == ["deviation_dim 1 > excess 0"]
    assert "dual_vectors" not in report["payload"]


def test_cli_parseval_dual_fails_with_abused_tolerance(files, capsys):
    # widening the eigenvalue band until the conditions "pass" makes the
    # construction go through but produces a dual that is far from
    # Parseval; the verdict must expose that honestly
    code, out, _ = run(capsys, "parseval-dual", files["half"],
                       "--eig-one-atol", "0.9")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["payload"]["exists"] is True
    assert report["payload"]["residual_parseval"] == pytest.approx(3.0, abs=1e-9)
    assert report["payload"]["residual_dual"] <= 1e-10


def test_cli_nu(files, big_parseval, capsys):
    code, out, _ = run(capsys, "nu", big_parseval, "--j", "1,3")
    assert code == 0 and json.loads(out)["verdict"] == "pass"

    code, out, _ = run(capsys, "nu", files["mb3"], "--j", "1")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["nu_minus"] == pytest.approx(7 / 9, abs=1e-12)
    assert payload["nu_plus"] == pytest.approx(1.0, abs=1e-12)
    assert payload["in_range"] is True

    code, out, _ = run(capsys, "nu", files["mb3"], "--j", "")
    assert code == 0
    assert json.loads(out)["payload"]["j"] == []

    code, out, _ = run(capsys, "nu", files["mb3"], "--global-min")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["nu_minus"] == pytest.approx(7 / 9, abs=1e-9)

    code, out, err = run(capsys, "nu", files["mb3"])
    assert code == 2 and out == ""
    assert err == ("framekit nu: error: one of the arguments --j "
                   "--global-min is required\n")
    code, out, err = run(capsys, "nu", files["mb3"], "--j", "1", "--global-min")
    assert code == 2 and out == ""
    assert err.startswith("framekit nu: error:") and err.count("\n") == 1


def test_cli_identity(files, capsys):
    code, out, _ = run(capsys, "identity", files["mb3"], "--j", "1,3",
                       "--trials", "50", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["payload"]["max_residual"] <= 1e-12
    code, _, err = run(capsys, "identity", files["mb3"], "--j", "1",
                       "--trials", "0")
    assert code == 2 and "error" in err


def test_cli_identity_runs_its_trials_in_blocks(files, big_parseval, capsys,
                                               monkeypatch):
    import framekit.identity as identity

    batches = []
    kernel = identity.identity_sides

    def spy(f, j, x, tol):
        batches.append(len(x))
        return kernel(f, j, x, tol)

    monkeypatch.setattr(identity, "identity_sides", spy)
    block = identity._TRIAL_BLOCK // 2000
    for path, trials, expected in ((files["mb3"], 50, [50]),
                                   (big_parseval, 1, [1]),
                                   (big_parseval, block, [block]),
                                   (big_parseval, block + 1, [block, 1]),
                                   (big_parseval, 5 * block + 3, [block] * 5 + [3])):
        batches.clear()
        code, out, _ = run(capsys, "identity", path, "--j", "1,3",
                           "--trials", str(trials))
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        assert batches == expected


def test_cli_identity_memory_does_not_grow_with_trials(big_parseval, capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "identity", big_parseval, "--j", "1,3",
                           "--trials", "20000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    # one batch of all trials would hold 20000 x 2000 coefficients, 320 MB
    assert peak < 4 << 20


def test_cli_closed_stdout_exits_quietly(files):
    # no process holds the read end of the child's stdout when it writes
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
    read_end, write_end = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "framekit", "analyze",
                             files["mb3"]], stdout=write_end,
                            stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3 and err == b""


def test_cli_tail(files, capsys, monkeypatch):
    import framekit.identity as identity

    calls = []

    def counted(name, function):
        def spy(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(identity, "tail_threshold",
                        counted("tail_threshold", identity.tail_threshold))
    code, out, _ = run(capsys, "tail", files["mb3"], "--eps", "0.5")
    assert code == 0
    # one threshold, and one eigh each for J and its complement
    assert sorted(calls) == ["eigh", "eigh", "tail_threshold"]
    payload = json.loads(out)["payload"]
    assert payload["n0"] == 2
    assert payload["j"] == [1, 2]
    assert payload["holds"] is True
    assert payload["bound"] == pytest.approx(0.5)

    code, out, _ = run(capsys, "tail", files["mb3"], "--eps", "0.5",
                       "--j", "1,2,3")
    assert code == 0

    for eps in ("-1", "nan", "inf"):
        code, out, err = run(capsys, "tail", files["mb3"], "--eps", eps)
        assert code == 2 and out == ""
        assert err.startswith("error: eps") and err.count("\n") == 1
    code, _, err = run(capsys, "tail", files["mb3"], "--eps", "0.5", "--j", "2")
    assert code == 2 and "error" in err


def test_cli_band_edges(capsys, tmp_path):
    # the identity frame's nu_minus = 1 exceeds 1 - 1e-20, so the tail
    # bound holds although fl(1 - 1e-20) = 1
    eye = write(tmp_path / "eye.json", fk.Frame(dim=3, field="real", vectors=np.eye(3)))
    code, out, _ = run(capsys, "tail", eye, "--eps", "1e-20")
    assert code == 0
    assert json.loads(out)["payload"]["holds"] is True
    # eigenvalues 1 and fl(1 - 1e-8), just below the default band
    edge = write(tmp_path / "edge.json", fk.Frame(
        dim=2, field="real", vectors=[[1, 0], [0, 0.79999999375], [0, 0.6]]))
    code, out, _ = run(capsys, "parseval-dual", edge)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["exists"] is False
    assert payload["reasons"] == ["a_opt 0.99999998999999995 < 1"]
    assert "dual_vectors" not in payload


def test_cli_lemma(files, capsys, tmp_path):
    f = fk.read_frame(files["e1e2e1"])
    g = fk.canonical_dual(f, fk.ToleranceConfig())
    g_path = write(tmp_path / "lemma_g.json", g)
    code, out, _ = run(capsys, "lemma", files["e1e2e1"], g_path, "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert max(report["payload"].values()) <= 1e-10
    code, _, err = run(capsys, "lemma", files["e1e2e1"], files["scaled"])
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "lemma", files["e1e2e1"], g_path, "--probes", "0")
    assert code == 2 and out == ""
    assert err == "error: at least one probe vector is required\n"


def test_cli_gen_all_kinds(capsys, tmp_path):
    cases = [
        (["--kind", "random", "--dim", "3", "--n", "6"], 6, 3),
        (["--kind", "parseval-projection", "--dim", "2", "--n", "5",
          "--field", "complex"], 5, 2),
        (["--kind", "near-riesz", "--dim", "3", "--k", "2"], 5, 3),
        (["--kind", "projected-basis", "--n", "4"], 4, 3),
        (["--kind", "projected-basis", "--alpha",
          "0.6,0.8"], 2, 1),
    ]
    for i, (argv, n, dim) in enumerate(cases):
        out_path = str(tmp_path / f"gen{i}.json")
        code, out, _ = run(capsys, "gen", *argv, "--out", out_path, "--seed", "9")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["n"], payload["dim"]) == (n, dim)
        f = fk.read_frame(out_path)
        assert (f.n, f.dim) == (n, dim)
    # --field holds with an explicit alpha too: the same vectors, complex
    paths = {}
    for field in ("real", "complex"):
        paths[field] = str(tmp_path / f"pb_{field}.json")
        code, out, _ = run(capsys, "gen", "--kind", "projected-basis", "--alpha",
                           "0.6,0.8", "--field", field, "--out", paths[field])
        assert code == 0 and json.loads(out)["payload"]["field"] == field
        assert fk.read_frame(paths[field]).field == field
    npt.assert_array_equal(fk.read_frame(paths["complex"]).vectors,
                           fk.read_frame(paths["real"]).vectors)
    code, _, err = run(capsys, "gen", "--kind", "near-riesz", "--dim", "3",
                       "--n", "7", "--k", "2", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "gen", "--kind", "projected-basis", "--alpha",
                       "0.6,0.8", "--n", "3", "--out", str(tmp_path / "y.json"))
    assert code == 2


def test_cli_error_paths(files, capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(broken))
    assert code == 2

    code, _, err = run(capsys, "analyze", files["mb3"], "--atol", "0")
    assert code == 2

    # a file that is not UTF-8, and a free operator whose dim is 10^12
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe")
    huge = tmp_path / "huge_dim.json"
    huge.write_text('{"dim": 1000000000000, "field": "real", "vectors": [[1]]}')
    for argv in (("analyze", str(not_utf8)),
                 ("dual", files["mb3"], "--mode", "from-w", "--w", str(huge))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    code, _, err = run(capsys, "no-such-command")
    assert code == 2 and err.startswith("framekit: error:")
    assert err.count("\n") == 1
    code, _, err = run(capsys, "analyze")
    assert code == 2 and err == ("framekit analyze: error: the following "
                                 "arguments are required: frame\n")

    # b_opt overflows to inf: the report cannot be serialized
    big = tmp_path / "big.json"
    big.write_text('{"dim":2,"field":"real","vectors":[[1e200,0],[0,1],[1,1]]}')
    code, out, err = run(capsys, "analyze", str(big))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")

    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: framekit") and err == ""


def test_cli_impossible_allocation_exits_2(files, capsys, monkeypatch, tmp_path):
    # the draw of `identity --trials 100000000000` or of `gen --kind random
    # --dim 200000 --n 300000` fails before anything is allocated
    for message, line in (("Unable to allocate 2.18 TiB",
                           "error: Unable to allocate 2.18 TiB\n"),
                          ("", "error: out of memory\n")):
        def refuse(rng, rows, cols, complex_valued):
            raise MemoryError(message)

        monkeypatch.setattr(framekit.cli, "gaussian_matrix", refuse)
        monkeypatch.setattr(importlib.import_module("framekit.generators"),
                            "gaussian_matrix", refuse)
        for argv in (("identity", files["mb3"], "--j", "1", "--trials", "100000000000"),
                     ("gen", "--kind", "random", "--dim", "200000", "--n", "300000",
                      "--out", str(tmp_path / "f.json"))):
            assert run(capsys, *argv) == (2, "", line)


def test_cli_seed_resolution(files, capsys, monkeypatch):
    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    _, base, _ = run(capsys, "identity", files["mb3"], "--j", "1", "--seed", "77")

    monkeypatch.setenv("FRAMEKIT_SEED", "77")
    _, via_env, _ = run(capsys, "identity", files["mb3"], "--j", "1")
    assert via_env == base

    # explicit flag wins over the environment
    monkeypatch.setenv("FRAMEKIT_SEED", "5")
    _, via_flag, _ = run(capsys, "identity", files["mb3"], "--j", "1",
                         "--seed", "77")
    assert via_flag == base

    monkeypatch.setenv("FRAMEKIT_SEED", "not-a-number")
    code, _, err = run(capsys, "identity", files["mb3"], "--j", "1")
    assert code == 2 and "FRAMEKIT_SEED" in err

    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    _, zero_default, _ = run(capsys, "identity", files["mb3"], "--j", "1")
    _, zero_explicit, _ = run(capsys, "identity", files["mb3"], "--j", "1",
                              "--seed", "0")
    assert zero_default == zero_explicit

    # a negative seed, from either source, is a usage error
    monkeypatch.setenv("FRAMEKIT_SEED", "-1")
    code, out, err = run(capsys, "identity", files["mb3"], "--j", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "FRAMEKIT_SEED" in err
    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    for argv in (("identity", files["mb3"], "--j", "1", "--seed", "-1"),
                 ("dual", files["mb3"], "--mode", "random", "--seed", "-1"),
                 ("gen", "--kind", "random", "--dim", "2", "--n", "3",
                  "--out", str(files["dir"] / "neg.json"), "--seed", "-5")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "--seed" in err


def test_cli_echoes_every_argument(files, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("FRAMEKIT_SEED", "12")
    g_path = write(tmp_path / "echo_g.json",
                   fk.canonical_dual(fk.read_frame(files["e1e2e1"]),
                                     fk.ToleranceConfig()))
    cases = [
        (("analyze", files["mb3"]), ["frame"]),
        (("dual", files["e1e2e1"]), ["frame", "mode", "proj", "w", "out"]),
        (("check", files["e1e2e1"], g_path), ["frame", "other"]),
        (("parseval-dual", files["e1e2e1"]), ["frame", "out"]),
        (("nu", files["mb3"], "--global-min"), ["frame", "j", "global_min"]),
        (("identity", files["mb3"], "--j", "1", "--trials", "3"),
         ["frame", "j", "trials"]),
        (("tail", files["mb3"], "--eps", "0.5"), ["frame", "eps", "j"]),
        (("lemma", files["e1e2e1"], g_path), ["frame", "other", "probes"]),
        (("gen", "--kind", "random", "--dim", "2", "--n", "3",
          "--out", str(tmp_path / "echo_gen.json")),
         ["kind", "dim", "n", "k", "alpha", "field", "out"]),
    ]
    for argv, keys in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        inputs = json.loads(out)["inputs"]
        assert list(inputs) == keys + ["seed"], argv
        assert inputs["seed"] == 12
    code, out, _ = run(capsys, "nu", files["mb3"], "--global-min", "--seed", "4")
    assert json.loads(out)["inputs"] == {"frame": files["mb3"], "j": None,
                                         "global_min": True, "seed": 4}


def test_cli_reports_are_deterministic(files, capsys, monkeypatch):
    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    invocations = [
        ("analyze", files["mb3"]),
        ("analyze", files["nonframe"]),
        ("dual", files["e1e2e1"]),
        ("dual", files["mb3"], "--mode", "random", "--seed", "3"),
        ("check", files["mb3"], files["scaled"]),
        ("parseval-dual", files["e1e2e1"]),
        ("parseval-dual", files["tight"]),
        ("nu", files["mb3"], "--j", "1"),
        ("nu", files["mb3"], "--global-min"),
        ("identity", files["mb3"], "--j", "1,2", "--trials", "20"),
        ("tail", files["mb3"], "--eps", "0.5"),
    ]
    first = [run(capsys, *argv) for argv in invocations]
    second = [run(capsys, *argv) for argv in invocations]
    assert first == second
    for code, out, _ in first:
        assert code == 0
        json.loads(out)  # every report is one valid JSON document
        assert out.count("\n") == 1


# ------------------------------------------------ package namespace


def test_every_public_name_resolves_to_its_submodule():
    for module, names in fk._PUBLIC.items():
        sub = importlib.import_module(f"framekit.{module}")
        for name in names:
            obj = getattr(fk, name)
            assert obj is getattr(sub, name)
            if hasattr(obj, "__module__"):
                assert obj.__module__ == sub.__name__, name
    # no name is listed under two submodules
    assert len(fk.__all__) == sum(len(names) for names in fk._PUBLIC.values())
    assert set(fk.__all__) <= set(dir(fk))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from framekit import *", namespace)
    assert all(namespace[name] is getattr(fk, name) for name in fk.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fk.no_such_name
    assert not hasattr(fk, "no_such_name")


def loaded_modules(tmp_path, *args):
    """Modules a fresh `python -X importtime ARGS` imports, by name."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
    env.pop("FRAMEKIT_SEED", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, check=True)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = loaded_modules(tmp_path, "-c", "import framekit")
    assert "framekit" in loaded
    assert not {m for m in loaded if m.startswith("framekit.")}


def test_cli_analyze_loads_only_its_modules(tmp_path, mb3):
    loaded = loaded_modules(tmp_path, "-m", "framekit", "analyze",
                            write(tmp_path / "f.json", mb3))
    assert "framekit.frames" in loaded
    for name in ("framekit.duals", "framekit.parseval", "framekit.identity",
                 "framekit.generators", "numpy.ma", "dataclasses"):
        assert name not in loaded


def test_cli_global_min_loads_no_masked_arrays(tmp_path):
    p = fk.parseval_projection_frame(3, 10, seed=2, field="complex")
    loaded = loaded_modules(tmp_path, "-m", "framekit", "nu",
                            write(tmp_path / "p.json", p), "--global-min")
    assert "framekit.identity" in loaded
    for name in ("numpy.ma", "framekit.duals", "framekit.parseval", "dataclasses"):
        assert name not in loaded


@pytest.mark.parametrize("command", ["check", "parseval-dual", "identity", "gen"])
def test_cli_start_loads_no_dataclasses(tmp_path, mb3, command):
    # framekit's records are NamedTuples and plain classes; numpy, argparse
    # and json load no dataclasses either
    frame = write(tmp_path / "f.json", mb3)
    argv = {"check": [frame, frame],
            "parseval-dual": [frame],
            "identity": [frame, "--j", "1"],
            "gen": ["--kind", "random", "--dim", "2", "--n", "3",
                    "--out", str(tmp_path / "g.json")]}[command]
    loaded = loaded_modules(tmp_path, "-m", "framekit", command, *argv)
    assert "framekit.cli" in loaded and "dataclasses" not in loaded


def test_no_framekit_module_loads_dataclasses(tmp_path):
    loaded = loaded_modules(tmp_path, "-c", "; ".join(
        f"import framekit.{m.name}" for m in pkgutil.iter_modules(fk.__path__)))
    assert "framekit.cli" in loaded and "framekit.identity" in loaded
    assert "dataclasses" not in loaded


# ------------------------------------------------ garbage collector


def test_cli_main_freezes_the_import_heap(tmp_path, mb3):
    # the process entry moves what the imports built out of the collector's
    # reach before the command runs, and leaves collection enabled
    code = ("import gc, sys\n"
            "from framekit import cli\n"
            "before = gc.get_freeze_count()\n"
            "try:\n"
            "    cli.main()\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
            "print(status, before, gc.get_freeze_count() > 0, gc.isenabled(),\n"
            "      file=sys.stderr)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, "analyze",
                           write(tmp_path / "f.json", mb3)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stderr.split() == ["0", "0", "True", "True"]
    assert json.loads(proc.stdout)["command"] == "analyze"


def test_run_command_and_the_library_leave_the_collector_alone(files, capsys, tol):
    state = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "analyze", files["mb3"])[0] == 0
    assert run(capsys, "check", files["mb3"], files["mb3"])[0] == 0
    f = fk.random_frame(3, 6, 1)
    g = fk.canonical_dual(f, tol)
    assert fk.check_duality(f, g, tol).is_exact_dual
    assert fk.verify_excess_equality(f, g, tol)
    assert fk.construct_parseval_dual(fk.rescale_to_admissible(f, tol)[0], tol).exists
    assert (gc.get_freeze_count(), gc.isenabled()) == state

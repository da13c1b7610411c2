import json

import numpy as np
import numpy.testing as npt
import pytest

import framekit as fk
from framekit.io import canonical_json, dumps_frame, loads_frame
from helpers import scaled


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
    ]
    for text in bad_cases:
        with pytest.raises(fk.FrameFileError):
            loads_frame(text)


def test_read_frame_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(fk.FrameFileError) as err:
        fk.read_frame(missing)
    assert "nope.json" in str(err.value)


def test_report_validates_verdict(tol):
    with pytest.raises(fk.FramekitError):
        fk.Report(command="x", inputs={}, verdict="maybe", payload={},
                  tolerances=tol)
    report = fk.Report(command="x", inputs={"a": 1}, verdict="pass",
                       payload={"v": 0.5}, tolerances=tol)
    text = report.to_json()
    assert text.startswith('{"command":"x","inputs":{"a":1},"verdict":"pass"')
    assert text == report.to_json()
    keys = list(json.loads(text))
    assert keys == ["command", "inputs", "verdict", "payload", "tolerances"]


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


def test_cli_analyze(files, capsys):
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


def test_cli_check(files, capsys):
    code, out, _ = run(capsys, "check", files["mb3"], files["scaled"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    payload = report["payload"]
    assert payload["is_exact_dual"] is False
    assert payload["is_pseudo_dual"] is True
    assert payload["deviation_norm"] == pytest.approx(0.5, abs=1e-12)
    assert payload["excess_equal"] is True


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


def test_cli_nu(files, capsys):
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


def test_cli_tail(files, capsys):
    code, out, _ = run(capsys, "tail", files["mb3"], "--eps", "0.5")
    assert code == 0
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

"""Acceptance gate: one test per advertised guarantee.

Each test exercises the guarantee at the stated tolerance over seeded
ensembles and prints a single machine-greppable line

    [acceptance N] PASS|FAIL  <metrics>

to the real stdout (bypassing capture), then asserts.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import framekit as fk
from framekit.linalg import adjoint, operator_norm
from helpers import (
    TOL,
    admissible_frame,
    all_subsets,
    deletion_excess,
    exact_lemma_ensemble,
    exact_lemma_verdict,
    fresh_env,
    from_real_embedding,
    gaussian,
    kernel_identity_angle,
    orthonormal_range,
    scaled,
    searched_parseval_dual_residual,
    sharpness_frame,
    well_conditioned_invertible,
)


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        with capsys.disabled():
            print(f"[acceptance {number:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
        assert ok, f"criterion {number}: {detail}"
    return _announce


@pytest.fixture(scope="module")
def dual_ensemble():
    """>= 200 seeded (frame, dual) pairs across d in 2..6, n in d..d+5,
    alternating real and complex, duals drawn from random free operators."""
    pairs = []
    seed = 0
    for d in range(2, 7):
        for n in range(d, d + 6):
            for _ in range(7):
                field = "real" if seed % 2 == 0 else "complex"
                f = fk.random_frame(d, n, seed=seed, field=field)
                rng = np.random.default_rng(10_000 + seed)
                w = gaussian(rng, n, d, field == "complex")
                pairs.append((f, fk.dual_from_free_operator(f, w, TOL)))
                seed += 1
    return pairs


@pytest.fixture(scope="module")
def parseval_ensemble():
    """>= 50 seeded exactly-Parseval frames, d in {2, 3}, n in {d+1, d+2}."""
    frames = []
    seed = 0
    for d in (2, 3):
        for n in (d + 1, d + 2):
            for _ in range(13):
                field = "real" if seed % 2 == 0 else "complex"
                frames.append(
                    fk.parseval_projection_frame(d, n, seed=seed, field=field))
                seed += 1
    return frames


def kernel_angle(f, g):
    """The kernel identity Ker V* = (I - U M^{-1} V*)(Ker U*) of a pair,
    measured by numpy alone: the sine of the largest principal angle."""
    return kernel_identity_angle(f.vectors.conj(), g.vectors.conj())


def test_acceptance_01_dual_excess_equality(dual_ensemble, announce):
    hits = sum(
        fk.excess(f, TOL).excess == fk.excess(g, TOL).excess
        and fk.check_duality(f, g, TOL).is_exact_dual
        and fk.verify_excess_equality(f, g, TOL)
        for f, g in dual_ensemble)
    worst = max(kernel_angle(f, g) for f, g in dual_ensemble)
    announce(1, hits == len(dual_ensemble) and worst <= 1e-8,
             f"{hits}/{len(dual_ensemble)} dual pairs share their excess, "
             f"worst kernel-identity angle {worst:.2e} (bound 1e-08)")


def test_acceptance_02_pseudo_dual_excess_equality(dual_ensemble, announce):
    pairs = dual_ensemble[:100]
    hits = 0
    worst = 0.0
    for i, (f, g) in enumerate(pairs):
        t = well_conditioned_invertible(np.random.default_rng(20_000 + i),
                                        f.dim, f.field == "complex")
        g2 = fk.transform_frame(g, t, TOL)
        report = fk.check_duality(f, g2, TOL)
        hits += (report.is_pseudo_dual
                 and fk.excess(f, TOL).excess == fk.excess(g2, TOL).excess
                 and fk.verify_excess_equality(f, g2, TOL))
        worst = max(worst, kernel_angle(f, g2))
    announce(2, hits == len(pairs) and worst <= 1e-8,
             f"{hits}/{len(pairs)} pseudo-dual pairs share their excess, "
             f"worst kernel-identity angle {worst:.2e} (bound 1e-08)")


def test_acceptance_03_decomposition_lemma(dual_ensemble, announce):
    worst = 0.0
    for i, (f, g) in enumerate(dual_ensemble):
        report = fk.verify_lemma_decomposition(
            fk.analysis_matrix(f), fk.synthesis_matrix(g),
            probes=10, seed=i, tol=TOL)
        worst = max(worst, report.st_is_identity_residual,
                    report.kernel_match_residual, report.direct_sum_residual,
                    report.idempotent_residual)
    # the exact oracle: integer T, rational left inverse S, real over seeds
    # 0-2 and complex (Gaussian integer T, decided on the real embeddings)
    # over seed 0; every claim it decides must match the report's verdict
    # and each residual's at atol, and for (T, 2S) the oracle's ST != I
    # must match NotLeftInverseError
    agree = oracle_pairs = 0
    for seed, copies in ((0, 1), (1, 1), (2, 1), (0, 2)):
        for t, s in exact_lemma_ensemble(seed, copies):
            exact = exact_lemma_verdict(t, s)
            t_float, s_float = (from_real_embedding(m, copies) for m in (t, s))
            report = fk.verify_lemma_decomposition(t_float, s_float,
                                                   probes=10, seed=seed, tol=TOL)
            doubled = exact_lemma_verdict(t, [[2 * x for x in row] for row in s])
            with pytest.raises(fk.NotLeftInverseError):
                fk.verify_lemma_decomposition(t_float, 2 * s_float,
                                              probes=1, seed=seed, tol=TOL)
            oracle_pairs += 1
            agree += (report.holds == all(exact)
                      and [r <= TOL.atol for r in report[:4]] == list(exact)
                      and not doubled.st_is_identity and not doubled.idempotent)
    announce(3, worst <= 1e-8 and agree == oracle_pairs,
             f"worst lemma residual {worst:.2e} over {len(dual_ensemble)} pairs "
             f"(bound 1e-08); {agree}/{oracle_pairs} integer and Gaussian-integer "
             f"pairs agree with the exact oracle")


def test_acceptance_04_projection_round_trip(announce):
    worst_proj = 0.0
    worst_canonical = 0.0
    count = 0
    seed = 0
    while count < 100:
        d = 2 + seed % 3
        exc = 1 + seed % 3
        field = "real" if seed % 2 == 0 else "complex"
        f = fk.random_frame(d, d + exc, seed=30_000 + seed, field=field)
        u = fk.analysis_matrix(f)
        u_range = orthonormal_range(u, TOL.rank_rtol)
        kernel = fk.kernel_of_synthesis(f, TOL)
        rng = np.random.default_rng(40_000 + seed)
        tilt = gaussian(rng, d, exc, field == "complex")
        complement = kernel + 0.5 * (u @ tilt)
        proj = fk.oblique_projection(
            [u_range[:, i] for i in range(u_range.shape[1])],
            [complement[:, i] for i in range(exc)], TOL)
        g = fk.dual_from_projection(f, proj, TOL)
        back = fk.projection_from_dual_pair(f, g, TOL)
        worst_proj = max(worst_proj, operator_norm(back - proj))

        orth = u_range @ adjoint(u_range)
        via_orth = fk.dual_from_projection(f, orth, TOL)
        canonical = fk.canonical_dual(f, TOL)
        worst_canonical = max(worst_canonical, float(
            np.max(np.abs(via_orth.vectors - canonical.vectors))))
        count += 1
        seed += 1
    announce(4, worst_proj <= 1e-8 and worst_canonical <= 1e-10,
             f"{count} round-trips: projection residual {worst_proj:.2e} "
             f"(bound 1e-08), canonical gap {worst_canonical:.2e} (bound 1e-10)")


def test_acceptance_05_parseval_dual_construction(e1e2e1, announce):
    worst_parseval = 0.0
    worst_dual = 0.0
    count = 0
    seed = 0
    while count < 100:
        d = 2 + seed % 4
        exc = 1 + seed % 3
        dev = seed % (min(d, exc) + 1)
        field = "real" if seed % 2 == 0 else "complex"
        f = admissible_frame(d, d + exc, dev, 50_000 + seed, field)
        g = fk.construct_parseval_dual(f, TOL).dual
        v = fk.analysis_matrix(g)
        u = fk.analysis_matrix(f)
        worst_parseval = max(worst_parseval,
                             operator_norm(adjoint(v) @ v - np.eye(d)))
        worst_dual = max(worst_dual, operator_norm(adjoint(v) @ u - np.eye(d)))
        count += 1
        seed += 1
    hand = fk.construct_parseval_dual(e1e2e1, TOL).dual
    hand_gap = float(np.max(np.abs(
        hand.vectors - np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))))
    ok = worst_parseval <= 1e-8 and worst_dual <= 1e-8 and hand_gap <= 1e-10
    announce(5, ok,
             f"{count} constructions: ||V*V-I|| <= {worst_parseval:.2e}, "
             f"||V*U-I|| <= {worst_dual:.2e} (bounds 1e-08), "
             f"hand instance gap {hand_gap:.2e} (bound 1e-10)")


def test_acceptance_06_parseval_dual_necessity(mb3, announce):
    blocked_excess = fk.Frame(dim=2, field="real", vectors=[[2, 0], [0, 1]])
    blocked_bound = scaled(mb3, 0.5)
    results = []
    oracle_gap = 0.0
    for f in (blocked_excess, blocked_bound):
        assert not fk.parseval_dual_exists(f, TOL).exists
        results.append(fk.best_parseval_dual_residual(f, TOL))
        oracle_gap = max(oracle_gap, abs(
            results[-1] - searched_parseval_dual_residual(f)))
    ok = all(r > 1e-6 for r in results) and oracle_gap <= 1e-5
    announce(6, ok,
             f"nearest Parseval duals miss by ||V*V-I|| = "
             f"{results[0]:.3f} and {results[1]:.3f} (must exceed 1e-06), "
             f"search over all duals agrees within {oracle_gap:.2e} "
             f"(bound 1e-05)")


def test_acceptance_07_fundamental_identity(parseval_ensemble, announce):
    worst = 0.0
    for idx, f in enumerate(parseval_ensemble):
        rng = np.random.default_rng(60_000 + idx)
        xs = gaussian(rng, 100, f.dim, f.field == "complex")
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        for members in all_subsets(f.n):
            j = fk.IndexSet(members=members, n=f.n)
            lhs, rhs = fk.identity_sides(f, j, xs, TOL)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    announce(7, worst <= 1e-10,
             f"{len(parseval_ensemble)} frames, all J, 100 unit x each: "
             f"max |LHS-RHS| = {worst:.2e} (bound 1e-10)")


def test_acceptance_08_nu_bounds(parseval_ensemble, mb3, announce):
    lo, hi = np.inf, -np.inf
    for f in parseval_ensemble:
        for members in all_subsets(f.n):
            bounds = fk.nu_bounds(f, fk.IndexSet(members=members, n=f.n), TOL)
            lo = min(lo, bounds.nu_minus)
            hi = max(hi, bounds.nu_plus)
    ensemble_ok = lo >= 0.75 - 1e-10 and hi <= 1.0 + 1e-10

    oracle = fk.nu_bounds(mb3, fk.IndexSet(members=(1,), n=3), TOL)
    oracle_ok = (abs(oracle.nu_minus - 7.0 / 9.0) <= 1e-10
                 and abs(oracle.nu_plus - 1.0) <= 1e-10)
    sharp = fk.nu_bounds(sharpness_frame(), fk.IndexSet(members=(1, 2), n=4), TOL)
    sharp_ok = abs(sharp.nu_minus - 0.75) <= 1e-10

    announce(8, ensemble_ok and oracle_ok and sharp_ok,
             f"all J: nu in [{lo:.6f}, {hi:.6f}] within [3/4, 1]; "
             f"three-vector oracle nu_minus = {oracle.nu_minus:.12f} (= 7/9); "
             f"sharpness instance attains {sharp.nu_minus:.12f} (= 3/4)")


def test_acceptance_09_projected_basis_example(announce):
    trials = 0
    hits = 0
    worst_norms = 0.0
    lowest_global = np.inf
    for m in (4, 6, 8):
        for rep in range(50):
            seed = 1_000 * m + rep
            field = "real" if rep % 2 == 0 else "complex"
            alpha = fk.random_unit_alpha(m, seed=seed, field=field)
            f = fk.projected_basis_frame(alpha, TOL)
            efn = fk.excess_from_norms(f, TOL)
            value, _ = fk.nu_minus_global(f, TOL)
            worst_norms = max(worst_norms, abs(efn - 1.0))
            lowest_global = min(lowest_global, value)
            ok = (fk.excess(f, TOL).excess == 1
                  and abs(efn - 1.0) <= 1e-9
                  and fk.tail_threshold(f, 1.0 / 8.0, TOL) == 1
                  and value >= 7.0 / 8.0 - 1e-10)
            trials += 1
            hits += ok
    announce(9, hits == trials,
             f"{hits}/{trials} projected-basis frames (m in 4,6,8): excess 1, "
             f"norm-deficit sum within {worst_norms:.2e} of 1, n0(1/8) = 1, "
             f"global nu_minus >= {lowest_global:.6f} (>= 7/8)")


def test_acceptance_10_excess_from_norms(announce):
    worst = 0.0
    count = 0
    seed = 0
    while count < 100:
        d = 2 + seed % 4
        k = seed % 5
        field = "real" if seed % 2 == 0 else "complex"
        f = fk.parseval_projection_frame(d, d + k, seed=70_000 + seed, field=field)
        gap = abs(fk.excess_from_norms(f, TOL) - k)
        assert gap <= f.n * 1e-9, (d, k, seed)
        worst = max(worst, gap / f.n)
        count += 1
        seed += 1
    announce(10, worst <= 1e-9,
             f"{count} Parseval frames with known excess 0..4: "
             f"max |sum deficit - k|/n = {worst:.2e} (bound 1e-09)")


def test_acceptance_11_deletion_oracle(dual_ensemble, parseval_ensemble,
                                       announce):
    frames = [h for pair in dual_ensemble for h in pair if h.n <= 6]
    frames += [f for f in parseval_ensemble if f.n <= 6]
    hits = sum(fk.excess(f, TOL).excess == deletion_excess(f) for f in frames)
    announce(11, hits == len(frames),
             f"{hits}/{len(frames)} frames: rank-based excess equals "
             f"exhaustive deletion-based excess")


def test_acceptance_12_cli_determinism(tmp_path, capsys, monkeypatch, mb3,
                                       e1e2e1, announce):
    monkeypatch.delenv("FRAMEKIT_SEED", raising=False)
    paths = {}
    for name, frame in (("mb3", mb3), ("e1e2e1", e1e2e1),
                        ("half", scaled(e1e2e1, 0.5)),
                        ("tight", fk.Frame(dim=2, field="real",
                                           vectors=[[2, 0], [0, 1]]))):
        paths[name] = str(tmp_path / f"{name}.json")
        fk.write_frame(frame, paths[name])

    fixed = [
        (0, ("analyze", paths["mb3"])),
        (0, ("dual", paths["e1e2e1"], "--mode", "random", "--seed", "3")),
        (0, ("check", paths["mb3"], paths["mb3"])),
        (0, ("parseval-dual", paths["e1e2e1"])),
        (0, ("parseval-dual", paths["tight"])),
        (1, ("parseval-dual", paths["half"], "--eig-one-atol", "0.9")),
        (0, ("nu", paths["mb3"], "--global-min")),
        (0, ("identity", paths["mb3"], "--j", "1,3", "--trials", "25")),
        (0, ("tail", paths["mb3"], "--eps", "0.5")),
        (2, ("analyze", str(tmp_path / "missing.json"))),
        (2, ("nu", paths["mb3"])),
        (2, ("analyze", paths["mb3"], "--atol", "0")),
    ]

    def run_all():
        outs = []
        codes = []
        for _, argv in fixed:
            codes.append(fk.run_command(list(argv)))
            outs.append(capsys.readouterr().out)
        return codes, outs

    codes1, outs1 = run_all()
    codes2, outs2 = run_all()
    codes_ok = codes1 == codes2 == [c for c, _ in fixed]
    bytes_ok = outs1 == outs2

    # the same invocations in two fresh processes, one on one BLAS thread
    # and one on two, each making all of its calls in-process
    script = ("import contextlib, io, json, sys\n"
              "import framekit as fk\n"
              "results = []\n"
              "for argv in json.load(sys.stdin):\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "        code = fk.run_command(argv)\n"
              "    results.append([code, out.getvalue()])\n"
              "print(json.dumps(results))\n")
    fresh = [json.loads(subprocess.run(
        [sys.executable, "-c", script], input=json.dumps([a for _, a in fixed]),
        env=fresh_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
        text=True, check=True).stdout) for threads in ("1", "2")]
    threads_ok = fresh[0] == fresh[1] == [list(r) for r in zip(codes1, outs1)]
    for code, out in zip(codes1, outs1):
        if code in (0, 1):
            json.loads(out)

    fk.run_command(["identity", paths["mb3"], "--j", "2", "--seed", "77"])
    flagged = capsys.readouterr().out
    monkeypatch.setenv("FRAMEKIT_SEED", "77")
    fk.run_command(["identity", paths["mb3"], "--j", "2"])
    via_env = capsys.readouterr().out
    seed_ok = flagged == via_env

    announce(12, codes_ok and bytes_ok and threads_ok and seed_ok,
             f"{len(fixed)} fixed invocations: exit codes as contracted, "
             f"reports byte-identical across runs and in fresh processes "
             f"on 1 and 2 BLAS threads, FRAMEKIT_SEED == --seed")

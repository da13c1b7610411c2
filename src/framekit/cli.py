"""Command-line interface.

Every subcommand reads frames from JSON files, delegates all numerics
to the library, and prints a single deterministic JSON report on
stdout.  Exit codes: 0 when the verdict is "pass" or "n/a", 1 when a
verified property fails (a tolerance problem or a bug -- the underlying
statements are theorems), 2 for usage or input errors and for results
that cannot be serialized (a non-finite number).  Diagnostics go to
stderr, one line each, usage errors included.  Every subcommand
argument is echoed in the report's inputs (the tolerances in a section
of their own); seed is the resolved one: --seed, else the FRAMEKIT_SEED
environment variable, else 0, and never negative.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .errors import BadParametersError, FramekitError
from .frames import (
    COMPLEX,
    Frame,
    ToleranceConfig,
    analysis_matrix,
    excess,
    frame_bounds,
    is_frame,
    is_parseval,
    synthesis_matrix,
)
from .duals import (
    canonical_dual,
    check_duality,
    dual_from_free_operator,
    dual_from_projection,
    verify_excess_equality,
    verify_lemma_decomposition,
)
from .parseval import (
    construct_parseval_dual,
    nonexistence_reasons,
    parseval_dual_exists,
)
from .identity import (
    IndexSet,
    identity_sides,
    nu_bounds,
    nu_minus_global,
    tail_threshold,
    verify_tail_bound,
)
from .generators import KINDS, generate
from .io import Report, read_frame, read_matrix, rows_obj, write_frame
from .linalg import adjoint, gaussian_matrix, operator_norm


Outcome = Tuple[str, Dict[str, Any]]  # (verdict, payload)
_TOLERANCES = tuple(field.name for field in dataclasses.fields(ToleranceConfig))
_NOT_ECHOED = {"command", "handler", "seed", *_TOLERANCES}


def _resolve_seed(args: argparse.Namespace) -> int:
    source, raw = "--seed", args.seed
    if raw is None:
        source, raw = "FRAMEKIT_SEED", os.environ.get("FRAMEKIT_SEED", "").strip() or "0"
    try:
        seed = int(raw)
    except ValueError as exc:
        raise BadParametersError(f"{source} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise BadParametersError(f"{source} must be non-negative, got {seed}")
    return seed


def _parse_index_list(text: str, n: int) -> IndexSet:
    text = text.strip()
    if not text:
        return IndexSet(members=(), n=n)
    try:
        members = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadParametersError(
            f"index list must be comma-separated integers, got {text!r}") from exc
    return IndexSet(members=members, n=n)


def _parse_alpha(text: Optional[str]) -> Optional[np.ndarray]:
    if text is None:
        return None
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise BadParametersError(
            f"alpha must be comma-separated numbers, got {text!r}") from exc


def _random_unit_vectors(rng: np.random.Generator, dim: int, count: int,
                         complex_valued: bool) -> np.ndarray:
    x = gaussian_matrix(rng, count, dim, complex_valued)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _cmd_analyze(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    bounds = frame_bounds(f)
    spanning = is_frame(f, tol)
    payload = {
        "n": f.n,
        "dim": f.dim,
        "field": f.field,
        "a_opt": bounds.a_opt,
        "b_opt": bounds.b_opt,
        "is_frame": spanning,
        "is_parseval": is_parseval(f, tol),
        "norms_sq": [float(v) for v in np.sum(np.abs(f.vectors) ** 2, axis=1)],
    }
    if spanning:
        report = excess(f, tol)
        payload["excess"] = report.excess
        payload["rank"] = report.rank
        payload["singular_values"] = report.singular_values
    else:
        payload["excess"] = None
        payload["rank"] = None
        payload["singular_values"] = None
    return "n/a", payload


def _cmd_dual(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    if args.mode == "canonical":
        g = canonical_dual(f, tol)
    elif args.mode == "from-projection":
        if not args.proj:
            raise BadParametersError("--proj is required for mode from-projection")
        g = dual_from_projection(f, read_matrix(args.proj), tol)
    elif args.mode == "from-w":
        if not args.w:
            raise BadParametersError("--w is required for mode from-w")
        g = dual_from_free_operator(f, read_matrix(args.w), tol)
    else:  # random
        w = gaussian_matrix(np.random.default_rng(seed), f.n, f.dim,
                            f.field == COMPLEX)
        g = dual_from_free_operator(f, w, tol)
    report = check_duality(f, g, tol)
    equal = verify_excess_equality(f, g, tol)
    if args.out:
        write_frame(g, args.out)
    payload = {
        "mode": args.mode,
        "dual_vectors": rows_obj(g.vectors, g.field),
        "deviation_norm": report.deviation_norm,
        "min_singular_vu": report.min_singular_vu,
        "excess_f": excess(f, tol).excess,
        "excess_g": excess(g, tol).excess,
        "excess_equal": equal,
    }
    return "pass" if report.is_exact_dual and equal else "fail", payload


def _cmd_check(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    g = read_frame(args.other)
    report = check_duality(f, g, tol)
    payload = {
        "is_exact_dual": report.is_exact_dual,
        "is_pseudo_dual": report.is_pseudo_dual,
        "is_approx_dual": report.is_approx_dual,
        "deviation_norm": report.deviation_norm,
        "min_singular_vu": report.min_singular_vu,
        "excess_f": excess(f, tol).excess,
        "excess_g": excess(g, tol).excess,
    }
    if report.is_pseudo_dual:
        equal = verify_excess_equality(f, g, tol)
        payload["excess_equal"] = equal
        verdict = "pass" if equal else "fail"
    else:
        payload["excess_equal"] = None
        verdict = "n/a"
    return verdict, payload


def _cmd_parseval_dual(args: argparse.Namespace, tol: ToleranceConfig,
                       seed: int) -> Outcome:
    f = read_frame(args.frame)
    existence = parseval_dual_exists(f, tol)
    payload = {
        "exists": existence.exists,
        "a_opt": existence.a_opt,
        "deviation_dim": existence.deviation_dim,
        "excess": existence.excess_val,
        "reasons": nonexistence_reasons(existence, tol),
    }
    verdict = "pass"
    if existence.exists:
        g = construct_parseval_dual(f, tol).dual
        v = analysis_matrix(g)
        residual_parseval = operator_norm(adjoint(v) @ v - np.eye(f.dim))
        residual_dual = operator_norm(
            synthesis_matrix(g) @ analysis_matrix(f) - np.eye(f.dim))
        payload["dual_vectors"] = rows_obj(g.vectors, g.field)
        payload["residual_parseval"] = residual_parseval
        payload["residual_dual"] = residual_dual
        if residual_parseval > tol.atol or residual_dual > tol.atol:
            verdict = "fail"
        if args.out:
            write_frame(g, args.out)
    return verdict, payload


def _cmd_nu(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    lower = 0.75 - tol.atol
    if args.global_min:
        value, witness = nu_minus_global(f, tol)
        payload = {"mode": "global", "nu_minus": value,
                   "witness_j": list(witness.members)}
        verdict = "pass" if value >= lower else "fail"
    else:
        j = _parse_index_list(args.j, f.n)
        bounds = nu_bounds(f, j, tol)
        in_range = bounds.nu_minus >= lower and bounds.nu_plus <= 1.0 + tol.atol
        payload = {
            "mode": "subset",
            "j": list(j.members),
            "nu_minus": bounds.nu_minus,
            "nu_plus": bounds.nu_plus,
            "argmin_vector": rows_obj(bounds.argmin_vector, f.field),
            "argmax_vector": rows_obj(bounds.argmax_vector, f.field),
            "in_range": in_range,
        }
        verdict = "pass" if in_range else "fail"
    return verdict, payload


def _cmd_identity(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    if args.trials < 1:
        raise BadParametersError("--trials must be at least 1")
    j = _parse_index_list(args.j, f.n)
    rng = np.random.default_rng(seed)
    xs = _random_unit_vectors(rng, f.dim, args.trials, f.field == COMPLEX)
    worst = 0.0
    for x in xs:
        lhs, rhs = identity_sides(f, j, x, tol)
        worst = max(worst, abs(lhs - rhs))
    payload = {"j": list(j.members), "trials": args.trials, "max_residual": worst}
    return "pass" if worst <= tol.atol else "fail", payload


def _cmd_tail(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    n0 = tail_threshold(f, args.eps, tol)
    if args.j is not None:
        j = _parse_index_list(args.j, f.n)
    else:
        j = IndexSet.from_iterable(range(1, n0 + 1), f.n)
    holds = verify_tail_bound(f, args.eps, j, tol)
    payload = {
        "n0": n0,
        "j": list(j.members),
        "nu_minus": nu_bounds(f, j, tol).nu_minus,
        "nu_minus_mirrored": nu_bounds(f, j.complement(), tol).nu_minus,
        "bound": 1.0 - args.eps,
        "holds": holds,
    }
    return "pass" if holds else "fail", payload


def _cmd_lemma(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    f = read_frame(args.frame)
    g = read_frame(args.other)
    if args.probes < 1:
        raise BadParametersError("--probes must be at least 1")
    report = verify_lemma_decomposition(analysis_matrix(f), synthesis_matrix(g),
                                        args.probes, seed, tol)
    residuals = {
        "st_is_identity_residual": report.st_is_identity_residual,
        "kernel_match_residual": report.kernel_match_residual,
        "direct_sum_residual": report.direct_sum_residual,
        "idempotent_residual": report.idempotent_residual,
    }
    return "pass" if max(residuals.values()) <= tol.atol else "fail", residuals


def _cmd_gen(args: argparse.Namespace, tol: ToleranceConfig, seed: int) -> Outcome:
    frame = generate(args.kind, dim=args.dim, n=args.n, seed=seed,
                     field=args.field, k=args.k, alpha=_parse_alpha(args.alpha),
                     tol=tol)
    write_frame(frame, args.out)
    payload = {
        "kind": args.kind,
        "n": frame.n,
        "dim": frame.dim,
        "field": frame.field,
        "excess": excess(frame, tol).excess,
        "is_parseval": is_parseval(frame, tol),
        "out": args.out,
    }
    return "n/a", payload


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage block;
    subcommand parsers inherit this class from `add_subparsers`."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framekit",
        description="Finite frame toolkit: bounds, excess, duals, Parseval "
                    "duals, and subset quantity bounds.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-rtol", type=float, default=ToleranceConfig.rank_rtol,
                        help="relative singular-value cutoff for rank decisions")
    common.add_argument("--atol", type=float, default=ToleranceConfig.atol,
                        help="absolute comparison tolerance")
    common.add_argument("--eig-one-atol", type=float,
                        default=ToleranceConfig.eig_one_atol,
                        help="band half-width for eigenvalue-equals-1 tests")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: FRAMEKIT_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("analyze", parents=[common],
                       help="bounds, Parseval flag, excess, and norms")
    p.add_argument("frame", help="frame JSON file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("dual", parents=[common], help="compute a dual frame")
    p.add_argument("frame")
    p.add_argument("--mode", choices=["canonical", "from-projection",
                                      "from-w", "random"], default="canonical")
    p.add_argument("--proj", help="projection matrix file (from-projection)")
    p.add_argument("--w", help="free-operator matrix file (from-w)")
    p.add_argument("--out", help="write the dual frame here")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("check", parents=[common],
                       help="duality classification and excess equality")
    p.add_argument("frame")
    p.add_argument("other")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("parseval-dual", parents=[common],
                       help="Parseval dual existence, construction, verification")
    p.add_argument("frame")
    p.add_argument("--out", help="write the constructed dual here")
    p.set_defaults(handler=_cmd_parseval_dual)

    p = sub.add_parser("nu", parents=[common],
                       help="subset quantity bounds (per J or global minimum)")
    p.add_argument("frame")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", help="comma-separated 1-based indices (may be empty)")
    group.add_argument("--global-min", action="store_true",
                       help="minimize nu_minus over all index subsets")
    p.set_defaults(handler=_cmd_nu)

    p = sub.add_parser("identity", parents=[common],
                       help="two-sided identity residual over random vectors")
    p.add_argument("frame")
    p.add_argument("--j", required=True,
                   help="comma-separated 1-based indices (may be empty)")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("tail", parents=[common],
                       help="norm-deficit tail threshold and lower bound check")
    p.add_argument("frame")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--j", help="index set containing 1..n0 (default exactly 1..n0)")
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser("lemma", parents=[common],
                       help="decomposition-lemma residuals on a dual pair")
    p.add_argument("frame")
    p.add_argument("other")
    p.add_argument("--probes", type=int, default=25)
    p.set_defaults(handler=_cmd_lemma)

    p = sub.add_parser("gen", parents=[common], help="generate a frame file")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, help="adjoined-vector count (near-riesz)")
    p.add_argument("--alpha", help="comma-separated coefficients (projected-basis)")
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)
    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        tol = ToleranceConfig(**{name: getattr(args, name) for name in _TOLERANCES})
        seed = _resolve_seed(args)
        # overflow reaches the report as inf, which serialization rejects
        with np.errstate(all="ignore"):
            verdict, payload = args.handler(args, tol, seed)
        inputs = {key: value for key, value in vars(args).items()
                  if key not in _NOT_ECHOED}
        inputs["seed"] = seed
        text = Report(command=args.command, inputs=inputs, verdict=verdict,
                      payload=payload, tolerances=tol).to_json()
    except (FramekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if verdict in ("pass", "n/a") else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

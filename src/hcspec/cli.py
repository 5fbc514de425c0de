"""Command-line front end: scenario files in, deterministic reports out.

``_COMMANDS`` gives each command its scenario kind, handler and flags; the
parsers are built from it, and ``run`` checks the kind once.  A command line
that starts with a command is read by a parser of that command alone, which
gives the namespace the full parser would; the full parser is built only for
help, usage errors and unknown commands.
The dense handlers import their layers where they run, so ``dbar``,
``dbar-n`` and ``symbolic`` without ``--oracle-cutoff`` never load numpy.
``--csv`` flattens the JSON text of the results, so it is refused exactly
when the JSON report is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .dbar import neumann_compactness, riemann_surface_product_report
from .errors import ToolkitError
from .limits import DEFAULT_TOL, KRONECKER_DIM_CAP, Tolerance
from .scenario import (
    ParseError,
    Scenario,
    dump_report,
    is_json_int,
    load_scenario,
    parse_factor_model,
    parse_finite_complex,
    parse_matrix,
    parse_rational,
    parse_seed,
    parse_spectral_set,
)
from .spectra import (
    essential_part,
    minkowski_oracle_check,
    minkowski_sum,
    union,
)


def _require(payload: dict, field: str, command: str):
    if field not in payload:
        raise ParseError(f"$.payload.{field}: required by the {command} command")
    return payload[field]


def _require_int(payload: dict, field: str, command: str) -> int:
    value = _require(payload, field, command)
    if not is_json_int(value):
        raise ParseError(f"$.payload.{field}: expected an integer, got {value!r}")
    return value


def _oracle_cutoff(args) -> Fraction | None:
    if args.oracle_cutoff is None:
        return None
    cutoff = parse_rational(args.oracle_cutoff, "--oracle-cutoff")
    if cutoff <= 0:
        raise ParseError(f"--oracle-cutoff: expected a positive rational, got {args.oracle_cutoff}")
    return cutoff


def _cmd_validate(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from . import complexes

    complex_ = parse_finite_complex(scenario.payload, "$.payload")
    report = complexes.validate(complex_, tol)
    results = {
        "dims": list(complex_.dims),
        "lo": complex_.lo,
        "residuals": {str(d): r for d, r in sorted(report.residuals.items())},
        "passed": report.passed,
    }
    return results, report.passed


def _cmd_spectrum(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from . import complexes

    complex_ = parse_finite_complex(scenario.payload, "$.payload")
    ok = complexes.validate(complex_, tol).passed
    degrees = {
        str(d): complexes.spectrum_multiset(complex_, d, tol) for d in complex_.degrees
    }
    return {"degrees": degrees, "validated": ok}, ok


def _cmd_hodge(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from . import complexes

    complex_ = parse_finite_complex(scenario.payload, "$.payload")
    ok = complexes.validate(complex_, tol).passed
    per_degree = {}
    passed = ok
    for degree in complex_.degrees:
        split = complexes.hodge(complex_, degree, tol)
        per_degree[str(degree)] = {"harmonic_dim": split.harmonic_dim, "residuals": split.report.residuals}
        passed = passed and split.report.passed
    return {"degrees": per_degree, "validated": ok}, passed


def _cmd_identities(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from . import complexes

    complex_ = parse_finite_complex(scenario.payload, "$.payload")
    ok = complexes.validate(complex_, tol).passed
    per_degree = {}
    passed = ok
    for degree in complex_.degrees:
        report = complexes.check_identities(complex_, degree, tol)
        per_degree[str(degree)] = {"residuals": report.residuals, "passed": report.passed}
        passed = passed and report.passed
    return {"degrees": per_degree, "validated": ok}, passed


def _cmd_tensor(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from . import complexes, tensorprod
    from .numerics import nan_max

    left = parse_finite_complex(_require(scenario.payload, "left", "tensor"), "$.payload.left")
    right = parse_finite_complex(_require(scenario.payload, "right", "tensor"), "$.payload.right")
    product = tensorprod.tensor_complex(left, right, args.max_dim)
    validation = complexes.validate(product, tol)
    kuenneth = tensorprod.kuenneth_check(left, right, product, tol)
    matches = {}
    matches_ok = True
    for degree in product.degrees:
        match = tensorprod.verify_product_spectrum(left, right, product, degree, tol)
        matches[str(degree)] = {"max_gap": match.max_gap, "passed": match.passed}
        matches_ok = matches_ok and match.passed
    off_block = complexes.ResidualReport.judge(
        {str(d): complexes.off_block_residual(product, d) for d in product.degrees}, tol
    )
    passed = validation.passed and kuenneth.passed and matches_ok and off_block.passed
    results = {
        "product_dims": list(product.dims),
        "product_lo": product.lo,
        "blocks": {
            str(d): [[slot.j, slot.k, slot.offset, slot.size] for slot in idx.blocks]
            for d, idx in sorted(product.layout.items())
        },
        "validation": {"passed": validation.passed},
        "kuenneth": {
            str(d): {"computed": c, "expected": e}
            for d, (c, e) in sorted(kuenneth.pairs.items())
        },
        "kuenneth_passed": kuenneth.passed,
        "spectrum_match": matches,
        "max_pairing_gap": nan_max([m["max_gap"] for m in matches.values()]),
        "off_block_residual": off_block.residuals,
    }
    return results, passed


def _cmd_symbolic(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    payload = scenario.payload
    operation = _require(payload, "operation", "symbolic")
    first = parse_spectral_set(_require(payload, "a", "symbolic"), "$.payload.a")
    results: dict = {"operation": operation}
    passed = True
    if operation == "essential":
        results["result"] = essential_part(first)
    elif operation in ("union", "minkowski"):
        second = parse_spectral_set(_require(payload, "b", "symbolic"), "$.payload.b")
        if operation == "union":
            results["result"] = union(first, second)
        else:
            results["result"] = minkowski_sum(first, second)
            cutoff = _oracle_cutoff(args)
            if cutoff is not None:
                checked = minkowski_oracle_check(first, second, results["result"], cutoff)
                results["oracle"] = {"cutoff": cutoff, "passed": checked}
                passed = checked
    else:
        raise ParseError(
            f"$.payload.operation: expected union, minkowski, or essential, got {operation!r}"
        )
    return results, passed


def _parse_factors(scenario: Scenario, command: str, expected: int | None = None):
    raw = _require(scenario.payload, "factors", command)
    if not isinstance(raw, list) or (expected is not None and len(raw) != expected):
        need = f"exactly {expected}" if expected is not None else "a list of"
        raise ParseError(f"$.payload.factors: {command} needs {need} factor models")
    return [
        parse_factor_model(entry, f"$.payload.factors[{idx}]")
        for idx, entry in enumerate(raw)
    ]


def _cmd_dbar(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    factors = _parse_factors(scenario, "dbar", expected=2)
    x, y = factors
    p = _require_int(scenario.payload, "p", "dbar")
    q = _require_int(scenario.payload, "q", "dbar")
    report = neumann_compactness(x, y, p, q)
    known = report.spectrum is not None
    results = {
        "p": p,
        "q": q,
        "verdict": report.verdict.value,
        "fired_rule": report.fired_rule,
        "witnesses": [list(w) for w in report.witnesses],
        "essential_spectrum": report.essential_spectrum,
        "spectrum": report.spectrum,
        "essential": report.essential_spectrum if known else None,
    }
    return results, True


def _cmd_dbar_n(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    factors = _parse_factors(scenario, "dbar-n")
    q = _require_int(scenario.payload, "q", "dbar-n")
    report = riemann_surface_product_report(factors, q)
    results = {
        "q": q,
        "factors": [factor.name for factor in factors],
        "verdict": report.verdict.value,
        "fired_rule": report.fired_rule,
        "witnesses": [list(w) for w in report.witnesses],
        "essential_spectrum": report.essential_spectrum,
        "trace": list(report.trace),
    }
    return results, True


def _cmd_joint(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from .jointspec import (
        NotPSDError,
        cartesian_gap,
        check_pair,
        joint_spectrum,
        sum_operator_check,
        tensor_pair_spectrum,
    )
    from .numerics import MATCH_GAP, NotHermitianError

    t = parse_matrix(_require(scenario.payload, "t", "joint"), "$.payload.t")
    s = parse_matrix(_require(scenario.payload, "s", "joint"), "$.payload.s")
    pair = check_pair(t, s, tol)
    points = joint_spectrum(pair, tol)
    results: dict = {
        "commutator_norm": pair.commutator_norm,
        "joint_points": [[lam, mu] for lam, mu in points.pairs],
    }
    gap = cartesian_gap(tensor_pair_spectrum(t, s, tol, args.max_dim), t, s)
    passed = gap <= MATCH_GAP
    results["tensor_pair"] = {"cartesian_gap": gap, "passed": passed}
    try:
        sum_report = sum_operator_check(t, s, tol, args.max_dim)
        results["sum_operator"] = {
            "max_gap": sum_report.max_gap,
            "symbolic_max_gap": sum_report.symbolic_max_gap,
            "passed": sum_report.passed,
        }
        passed = passed and sum_report.passed
    except (NotHermitianError, NotPSDError) as exc:
        results["sum_operator"] = {"skipped": type(exc).__name__}
    return results, passed


#: Most cases ``fuzz --cases`` runs per suite: 100 times the default.
FUZZ_CASES_CAP = 10_000


def _cmd_fuzz(scenario: Scenario, tol: Tolerance, args) -> tuple[dict, bool]:
    from . import fuzzing

    if not 1 <= args.cases <= FUZZ_CASES_CAP:
        raise ParseError(f"--cases: expected an integer in [1, {FUZZ_CASES_CAP}], got {args.cases}")
    seed = parse_seed(args.seed, "--seed") if args.seed is not None else (scenario.rng_seed or 0)
    suite_results = fuzzing.run_kind_suites(scenario.kind, seed, args.cases, _oracle_cutoff(args))
    results = {
        "seed": seed,
        "cases": args.cases,
        "suites": [
            {"suite": r.suite, "failures": list(r.failures), "passed": r.passed}
            for r in suite_results
        ],
    }
    return results, all(r.passed for r in suite_results)


# command -> (scenario kind, or None for any kind; handler; the flags it reads)
_COMMANDS = {
    "validate": ("finite-complex", _cmd_validate, ("tol",)),
    "spectrum": ("finite-complex", _cmd_spectrum, ("tol",)),
    "hodge": ("finite-complex", _cmd_hodge, ("tol",)),
    "identities": ("finite-complex", _cmd_identities, ("tol",)),
    "tensor": ("finite-pair", _cmd_tensor, ("tol", "max_dim")),
    "symbolic": ("spectral-model", _cmd_symbolic, ("oracle_cutoff",)),
    "dbar": ("dbar-factors", _cmd_dbar, ()),
    "dbar-n": ("dbar-factors", _cmd_dbar_n, ()),
    "joint": ("finite-pair", _cmd_joint, ("tol", "max_dim")),
    "fuzz": (None, _cmd_fuzz, ("seed", "oracle_cutoff", "cases")),
}

_FLAGS = {
    "tol": {"type": float, "default": None, "help": "override the identity-check tolerance"},
    "seed": {"type": int, "default": None, "help": "override the scenario seed"},
    "oracle_cutoff": {"default": None, "help": "rational cutoff enabling the enumeration oracle"},
    "max_dim": {"type": int, "default": KRONECKER_DIM_CAP, "help": "cap on product dimensions"},
    "cases": {"type": int, "default": 100, "help": "number of fuzz cases"},
}


def _digest(source: bytes, args, flags: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(b"\x00")
    values = {flag: getattr(args, flag) for flag in flags}
    digest.update(json.dumps(values, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def _flatten_csv(value, prefix: str, rows: list[tuple[str, str]]) -> None:
    """The ``(key path, value)`` rows of ``value``, a loaded JSON document."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten_csv(value[key], f"{prefix}.{key}" if prefix else key, rows)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _flatten_csv(item, f"{prefix}[{idx}]", rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def run(command: str, scenario_path: str | Path, out_path: str | Path | None, args) -> tuple[int, dict]:
    """Execute one command against a scenario file; returns (exit code, report)."""
    kind, handler, flags = _COMMANDS[command]
    scenario = load_scenario(Path(scenario_path))
    if kind not in (None, scenario.kind):
        raise ParseError(f"$.kind: expected {kind}, got {scenario.kind}")
    tol = DEFAULT_TOL
    if "tol" in flags and args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ParseError(f"--tol: expected a finite positive number, got {args.tol}")
        tol = Tolerance(identity_check=args.tol)
    results, passed = handler(scenario, tol, args)
    report = {
        "command": command,
        "inputs_digest": _digest(scenario.source, args, flags),
        "results": results,
        "pass": passed,
    }
    if args.csv:
        import csv
        import io

        rows: list[tuple[str, str]] = [("key", "value")]
        _flatten_csv(json.loads(dump_report(results)), "", rows)
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        text = buffer.getvalue()
    else:
        text = dump_report(report)
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return (0 if passed else 1), report


def _add_arguments(cmd: argparse.ArgumentParser, flags: tuple[str, ...]) -> argparse.ArgumentParser:
    """``cmd`` with the scenario path, ``--out``, ``--csv`` and ``flags``."""
    cmd.add_argument("scenario", help="path to a scenario JSON file")
    cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
    cmd.add_argument("--csv", action="store_true", help="flatten results to CSV")
    for flag in flags:
        cmd.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
    return cmd


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog="hcspec",
        description=(
            "Spectral toolkit for finite Hilbert complexes, their tensor "
            "products, symbolic spectra, and compactness verdicts"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name), flags)
    return parser


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """A parser of command ``name`` alone, built once, on first use: the full
    parser's subparser of that command, ``prog`` included."""
    return _add_arguments(argparse.ArgumentParser(prog=f"hcspec {name}"), _COMMANDS[name][2])


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, read by the parser of the named
    command alone when ``argv[0]`` names one.  Everything else goes to the
    full parser: no command, an unknown one, ``-h``, and arguments the
    command does not know, so that their usage text is the full parser's."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, _ = run(args.command, args.scenario, args.out, args)
        return code
    except ToolkitError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Exact report fields, the golden store, and the independent checks.

The exact fields of a report are the ones that must not change when the
program gets faster: product dimensions, block layouts, Kuenneth pairs,
cohomology (harmonic) dimensions, verdicts with ``fired_rule``, witnesses and
trace, spectral sets, oracle verdicts and every ``passed`` flag.  Floating
residuals and eigenvalues are left out; the report's own ``pass`` flag judges
them.  ``inputs_digest`` is left out because it hashes the CLI flag set,
which may grow without any change in behaviour.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Field values whose canonical JSON is longer than this are stored as a hash.
_INLINE_LIMIT = 96


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _stored(value):
    text = _canonical(value)
    if len(text) <= _INLINE_LIMIT:
        return value
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def _per_degree(results: dict, pick) -> dict:
    return {degree: pick(entry) for degree, entry in sorted(results["degrees"].items())}


def exact_fields(command: str, exit_code: int, report: dict) -> dict:
    """The fields of ``report`` that the golden store pins exactly."""
    results = report["results"]
    fields: dict = {"exit_code": exit_code, "pass": report["pass"]}
    if command == "tensor":
        fields.update(
            product_dims=results["product_dims"],
            product_lo=results["product_lo"],
            blocks=results["blocks"],
            kuenneth=results["kuenneth"],
            kuenneth_passed=results["kuenneth_passed"],
            validation_passed=results["validation"]["passed"],
            spectrum_match_passed={d: m["passed"] for d, m in sorted(results["spectrum_match"].items())},
        )
    elif command == "identities":
        fields.update(validated=results["validated"], passed=_per_degree(results, lambda e: e["passed"]))
    elif command == "hodge":
        fields.update(
            validated=results["validated"],
            harmonic_dim=_per_degree(results, lambda e: e["harmonic_dim"]),
        )
    elif command == "spectrum":
        fields.update(validated=results["validated"], counts=_per_degree(results, len))
    elif command == "symbolic":
        fields.update(operation=results["operation"], result=results["result"])
        if "oracle" in results:
            fields.update(oracle=results["oracle"])
    elif command in ("dbar", "dbar-n"):
        fields.update(results)
    elif command == "joint":
        fields.update(
            joint_point_count=len(results["joint_points"]),
            tensor_pair_passed=results["tensor_pair"]["passed"],
            sum_operator={k: v for k, v in results["sum_operator"].items() if k in ("passed", "skipped")},
        )
    else:
        raise ValueError(f"no exact fields defined for {command!r}")
    return {name: _stored(value) for name, value in fields.items()}


def field_mismatches(expected: dict, actual: dict) -> list[str]:
    """Names of the fields that differ, in a stable order."""
    names = sorted(set(expected) | set(actual))
    return [n for n in names if _canonical(expected.get(n)) != _canonical(actual.get(n))]


def _sorted_pairs(points) -> list[tuple[float, ...]]:
    flat = [(lam[0], lam[1], mu[0], mu[1]) for lam, mu in points]
    return sorted(tuple(round(x, 6) + 0.0 for x in p) for p in flat)


def independent_problems(command: str, expect: dict, report: dict) -> list[str]:
    """Checks computed from the generated inputs, without the program."""
    results = report["results"]
    problems: list[str] = []
    if command == "tensor":
        if results["product_dims"] != expect["product_dims"]:
            problems.append("product dims differ from the convolution of factor dims")
        for degree, pair in results["kuenneth"].items():
            if pair["computed"] != pair["expected"]:
                problems.append(f"Kuenneth count differs at degree {degree}")
    elif command == "spectrum":
        counts = [len(results["degrees"][d]) for d in sorted(results["degrees"], key=int)]
        if counts != expect["dims"]:
            problems.append("eigenvalue counts differ from the degree dimensions")
    elif command == "joint":
        got = _sorted_pairs(results["joint_points"])
        want = _sorted_pairs(expect["joint_points"])
        if len(got) != len(want) or any(
            max(abs(a - b) for a, b in zip(g, w)) > 1e-5 for g, w in zip(got, want)
        ):
            problems.append("joint points differ from the generated eigenvalue pairs")
        if expect["psd"] == ("skipped" in results["sum_operator"]):
            problems.append("sum-operator check ran on a non-PSD pair or skipped a PSD one")
    return problems


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    """``{case key: {"sha": scenario hash, "fields": exact fields}}``."""
    with golden_path(workload).open(encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def write_golden(workload: str, cases: dict, setting: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "recorded_with": setting, "cases": dict(sorted(cases.items()))}
    with golden_path(workload).open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")

"""In-memory span tracing of the hcspec layers, from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every loaded ``hcspec`` module that holds a reference to it, so calls across
modules (``complexes.pseudo_inverse``, ``dbar.minkowski_sum``, the CLI's own
imports) are seen as well as calls inside the defining module.  A wrapper
records one span: name, start, end, parent span, case id, and up to two
integer attributes (matrix size, atom counts, value counts, bytes).  Spans
live in flat ``array`` buffers until ``write`` saves them.

Only functions that do a unit of layer work are traced.  Tiny helpers called
per atom or per entry (``is_infinite``, ``as_rational``, ``max_abs``,
``json_ready``) are not: their wrappers would cost more than they do and
move time into the layers being measured.  A name missing from the program
is skipped and its metrics read 0, so the tracer survives refactors.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Traced functions by module: those the metrics name, plus the other public
# entry points of each layer, so that self time lands in the layer doing it.
TRACED = {
    "numerics": ("hermitian_eig", "pseudo_inverse", "range_projection", "numeric_rank", "kronecker"),
    "complexes": (
        "hodge",
        "cohomology_dim",
        "check_identities",
        "validate",
        "spectrum_multiset",
        "random_complex",
        "laplacian",
        "laplacian_inverse",
        "solution_operator",
    ),
    "tensorprod": ("tensor_complex", "kuenneth_check", "verify_product_spectrum", "product_laplacian_blocks"),
    "spectra": (
        "normalize",
        "union",
        "minkowski_sum",
        "essential_part",
        "enumerate_below",
        "minkowski_oracle_check",
        "find_uncovered",
        "product_spectrum",
    ),
    "dbar": ("riemann_surface_product_report", "neumann_compactness", "product_box_spectrum", "builtin_models"),
    "jointspec": ("check_pair", "joint_spectrum", "tensor_pair_spectrum", "sum_operator_check", "pairing_gap"),
    "scenario": (
        "load_scenario",
        "dump_report",
        "parse_finite_complex",
        "parse_spectral_set",
        "parse_factor_model",
        "parse_matrix",
    ),
    "cli": ("main",),
}

DILATION_FUNCTIONS = ("numerics.pseudo_inverse", "numerics.range_projection", "numerics.numeric_rank")


def _shape(value) -> tuple[int, int]:
    shape = np.shape(value)
    if len(shape) == 2:
        return int(shape[0]), int(shape[1])
    if len(shape) == 1:  # as_complex_matrix turns vectors into columns
        return int(shape[0]), 1 if shape[0] else 0
    return 0, 0


def _dilation_size(args, kwargs, result) -> tuple[int, int]:
    """rows + cols of the Hermitian dilation; 0 when none is decomposed."""
    rows, cols = _shape(args[0] if args else kwargs["a"])
    return (rows + cols if rows and cols else 0), 0


def _eig_size(args, kwargs, result) -> tuple[int, int]:
    return _shape(args[0] if args else kwargs["a"])[0], 0


def _result_len(args, kwargs, result) -> tuple[int, int]:
    return len(result), 0


def _normalize_atoms(args, kwargs, result) -> tuple[int, int]:
    return len(args[0] if args else kwargs["atoms"]), len(result.atoms)


PROBES = {
    "numerics.hermitian_eig": _eig_size,
    "numerics.pseudo_inverse": _dilation_size,
    "numerics.range_projection": _dilation_size,
    "numerics.numeric_rank": _dilation_size,
    "spectra.enumerate_below": _result_len,
    "spectra.normalize": _normalize_atoms,
    "scenario.dump_report": _result_len,
}


class Tracer:
    """Span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.case_keys: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.case = array("i")
        self.outer = array("b")
        self.aux1 = array("q")
        self.aux2 = array("q")
        self._stack: list[int] = []
        self._active: list[int] = []
        self._case_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def begin_case(self, key: str) -> None:
        self._case_id = len(self.case_keys)
        self.case_keys.append(key)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hcspec" or n.startswith("hcspec.")]
        for module_name, functions in TRACED.items():
            home = sys.modules.get(f"hcspec.{module_name}")
            for function in functions:
                original = getattr(home, function, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, original):
        name_id = len(self.names)
        self.names.append(name)
        self._active.append(0)
        probe = PROBES.get(name)
        materialize = name == "spectra.normalize"
        stack, active = self._stack, self._active
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        cases, outers, aux1, aux2 = self.case, self.outer, self.aux1, self.aux2
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if materialize:  # normalize takes any iterable; count it once
                if args:
                    args = (tuple(args[0]), *args[1:])
                else:
                    kwargs["atoms"] = tuple(kwargs["atoms"])
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            cases.append(self._case_id)
            outers.append(active[name_id] == 0)
            starts.append(0)
            ends.append(0)
            aux1.append(0)
            aux2.append(0)
            stack.append(span)
            active[name_id] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = start
                active[name_id] -= 1
                stack.pop()
            if probe is not None:
                aux1[span], aux2[span] = probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "case": np.frombuffer(self.case, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "aux1": np.frombuffer(self.aux1, dtype=np.int64),
            "aux2": np.frombuffer(self.aux2, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Save every span, the name table and the case keys to ``path`` (npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez_compressed(
                handle,
                names=np.array(self.names),
                case_keys=np.array(self.case_keys),
                **self.arrays(),
            )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, inclusive ms, self ms and counted attributes."""
    a = tracer.arrays()
    duration = (a["end"] - a["start"]).astype(np.float64)
    has_parent = a["parent"] >= 0
    child_time = np.bincount(
        a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
    )
    self_ns = duration - child_time
    name_ids = {name: idx for idx, name in enumerate(tracer.names)}
    out: dict[str, float] = {}

    def select(name: str) -> np.ndarray:
        idx = name_ids.get(name)
        return a["name"] == idx if idx is not None else np.zeros(duration.size, dtype=bool)

    for name in tracer.names:
        mask = select(name)
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.ms"] = float(duration[mask & a["outer"]].sum() / 1e6)
        out[f"{name}.self_ms"] = float(self_ns[mask].sum() / 1e6)

    dilation = np.zeros(duration.size, dtype=bool)
    for name in DILATION_FUNCTIONS:
        dilation |= select(name)
    dilation &= a["aux1"] > 0
    size = a["aux1"][dilation]
    out["numerics.dilation.calls"] = int(dilation.sum())
    out["numerics.dilation.self_ms"] = float(self_ns[dilation].sum() / 1e6)
    out["numerics.dilation.calls_le64"] = int((size <= 64).sum())
    out["numerics.dilation.calls_65_256"] = int(((size > 64) & (size <= 256)).sum())
    out["numerics.dilation.calls_gt256"] = int((size > 256).sum())
    eig = a["aux1"][select("numerics.hermitian_eig")]
    out["numerics.eig_work_n3"] = int(sum(int(n) ** 3 for n in size) + sum(int(n) ** 3 for n in eig))

    out["spectra.enumerate_below.values"] = int(a["aux1"][select("spectra.enumerate_below")].sum())
    normalize = select("spectra.normalize")
    out["spectra.normalize.atoms_in"] = int(a["aux1"][normalize].sum())
    out["spectra.normalize.atoms_out"] = int(a["aux2"][normalize].sum())
    out["scenario.report_bytes"] = int(a["aux1"][select("scenario.dump_report")].sum())
    return out

"""Per-layer tracing of ksphere from outside the package.

`Tracer.install()` replaces each layer's public functions with timing
wrappers on every binding in the loaded `ksphere` modules: module
attributes, module-level tuples such as `verification.LAMBDA_CHECKS`, and
the `Cyclotomic.make` staticmethod. Spans (name, start, end, parent, item)
are kept in memory. `Tracer.restore()` puts every original object back, so
code run afterwards is the unwrapped program.

Nothing in this module imports ksphere; the caller imports it first.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions per layer, by defining module (dotted names are class attributes).
TARGETS = {
    "groups": ("build_group", "conjugacy_classes", "enumerate_sign_homs", "kernel_embedding"),
    "dixon": ("character_table_data", "common_eigenvectors", "eigenvalues_mod"),
    "characters": (
        "character_table",
        "table_invariant_failures",
        "decompose_values",
        "lambda_context",
        "twist_permutation",
        "restrict_values",
        "induced_values",
    ),
    "kernels": (
        "rref_mod",
        "charpoly_mod",
        "class_matrix",
        "mul_into",
        "weighted_analysis",
        "pair_products",
        "pair_gram",
    ),
    "cyclotomic": ("get_ring", "Cyclotomic.make"),
    "lattice": ("hermite_normal_form", "integrally_independent"),
    "ktheory": ("k_group_s1_lambda", "k_group_s_lambda"),
    "verification": (
        "check_table",
        "check_frobenius_reciprocity",
        "check_projection_formula",
        "check_mackey_restriction",
        "check_orbit_multiplicities",
        "check_b_independence",
        "check_ideal_lattice",
    ),
    "cli": ("main",),
}

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

CONTRACTIONS = ("mul_into", "weighted_analysis", "pair_products", "pair_gram")

# Counters derived from operand shapes and nbytes, not from clocks: they must
# repeat exactly for the same inputs in the same order.
COMPUTED_COUNTERS = tuple(f"kernels.{fn}.mults" for fn in CONTRACTIONS) + (
    "kernels.contract_bytes",
    "kernels.peak_out_bytes",
)


def contraction_mults(fn: str, a, b) -> int:
    """Scalar multiplications of one dense contraction, from its operand shapes.

    mul_into: [..., q] x [p, q, r]; the others: [n, ...] x [m, x, p, r].
    """
    lead = a.size // a.shape[-1] if fn == "mul_into" else a.shape[0]
    return int(lead) * int(b.size)


def _count_contraction(fn: str):
    def count(counters: Counter, args, out) -> None:
        a, b = args[0], args[1]
        counters[f"kernels.{fn}.mults"] += contraction_mults(fn, a, b)
        counters["kernels.contract_bytes"] += int(a.nbytes + b.nbytes + out.nbytes)
        counters["kernels.peak_out_bytes"] = max(
            counters["kernels.peak_out_bytes"], int(out.nbytes)
        )

    return count


def _resolve(module, dotted: str):
    """Return (owner, attribute, raw object, callable) for a target name."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    func = raw.__func__ if isinstance(raw, staticmethod) else raw
    return owner, attr, raw, func


class Tracer:
    """Wraps the TARGETS in loaded ksphere modules and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.counters: Counter = Counter()
        self.item: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # layer name -> unwrapped callable

    def _wrap(self, name: str, func, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "ksphere" or key.startswith("ksphere."))
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}  # id(original callable) -> wrapper
        for mod_name, fns in TARGETS.items():
            for fn in fns:
                owner, attr, raw, func = _resolve(by_name[mod_name], fn)
                count = _count_contraction(fn) if fn in CONTRACTIONS else None
                name = f"{mod_name}.{fn}"
                self.originals[name] = func
                wrapper = self._wrap(name, func, count)
                wrappers[id(func)] = wrapper
                if isinstance(raw, staticmethod):
                    self._patch(owner, attr, staticmethod(wrapper))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    self._patch(module, attr, tuple(wrappers.get(id(v), v) for v in value))

    def restore(self) -> bool:
        """Put every original object back; True when each binding holds it again."""
        applied = list(self._patches)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in applied)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    `spans` is a sequence of (name, start, end, parent index, item) with
    parent index -1 for a root; a parent always precedes its children.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts a span only when no ancestor has the same name, so
    a recursive call is not counted twice.
    """
    totals = {}
    selfs = self_times(spans)
    outer_names: list[frozenset] = []  # names active at and above each span
    for index, (name, start, end, parent, _) in enumerate(spans):
        above = outer_names[parent] if parent >= 0 else frozenset()
        outer_names.append(above | {name})
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        if name not in above:
            entry["s"] += end - start
    return totals

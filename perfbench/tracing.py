"""Spans around the names each etaquad layer is called through.

`install` replaces module attributes with thin wrappers, so the program
itself is unchanged: every wrapper calls the original and returns its
result untouched.  Spans stay in memory (name, start, end, parent,
attributes) and `layer_metrics` folds them into the per-layer numbers at
the end of a run.  A layer's self time is its span minus its child spans;
spans nest strictly because a workload runs one call at a time.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name); lambda_table spans are named by method
_PATCHES = (
    ("etaquad.theorems", "representations", "quadform.representations"),
    ("etaquad.theorems", "normalized_reps", "quadform.normalized_reps"),
    ("etaquad.theorems", "find_rep", "quadform.find_rep"),
    ("etaquad.theorems", "sieve_primes", "arith.sieve"),
    ("etaquad.theorems", "lambda_table", "etaseries"),
    ("etaquad.cli", "range_report", "theorems.range_report"),
    ("etaquad.cli", "lambda_table", "etaseries"),
    ("etaquad.cli", "main", "cli.main"),
    # the direct public calls the workloads make
    ("etaquad", "lambda_table", "etaseries"),
    ("etaquad", "representations", "quadform.representations"),
    ("etaquad", "find_rep", "quadform.find_rep"),
    ("etaquad", "class_group", "quadform.class_group"),
    ("etaquad", "verify_construction", "theorems.single"),
    ("etaquad", "verify_product", "theorems.single"),
    ("etaquad", "verify_thm53", "theorems.single"),
)


def _attrs(name: str, origin: str, args, kwargs, result) -> dict:
    if name == "etaseries":
        method = kwargs.get("method", args[2] if len(args) > 2 else "sparse")
        limit = kwargs.get("limit", args[1] if len(args) > 1 else 0)
        return {"method": method, "limit": limit, "origin": origin}
    if name == "quadform.representations":
        return {"hit": bool(result.pairs)}
    if name == "quadform.normalized_reps":
        return {"hit": bool(result)}
    if name == "theorems.range_report":
        return {"checked": result.checked, "skipped": result.skipped}
    if name == "theorems.single":
        skipped = int(result.status == "not_applicable")
        return {"checked": 1 - skipped, "skipped": skipped}
    return {}


class Tracer:
    """In-memory span recorder; records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, attrs)
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name in _PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            origin = module_name.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(original, name, origin))

    def _wrap(self, fn, name: str, origin: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, {})
            label = name
            attrs = _attrs(name, origin, args, kwargs, result)
            if name == "etaseries":
                label = f"etaseries.{attrs['method']}"
            spans[index] = (label, start, end, parent, attrs)
            return result

        return traced


def layer_metrics(spans) -> dict[str, float]:
    """Fold spans into the per-layer metrics (counts, seconds, ratios)."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    hits: dict[str, int] = {}
    checked = verdicts = builds = coeffs = audit_ns = 0
    for i, (name, start, end, _, attrs) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        hits[name] = hits.get(name, 0) + attrs.get("hit", 0)
        if "checked" in attrs:
            checked += attrs["checked"]
            verdicts += attrs["checked"] + attrs["skipped"]
        if name == "etaseries.sparse":
            coeffs += attrs["limit"]
            builds += attrs["origin"] == "theorems"
        if name == "etaseries.newton" and attrs["origin"] == "theorems":
            audit_ns += dur

    def s(ns: int) -> float:
        return ns / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "arith.sieve.calls": calls.get("arith.sieve", 0),
        "arith.sieve.s": s(total.get("arith.sieve", 0)),
        "etaseries.sparse.calls": calls.get("etaseries.sparse", 0),
        "etaseries.sparse.s": s(total.get("etaseries.sparse", 0)),
        "etaseries.sparse.coeffs": coeffs,
        "etaseries.newton.s": s(total.get("etaseries.newton", 0)),
        "etaseries.naive.s": s(total.get("etaseries.naive", 0)),
    }
    for layer in ("representations", "normalized_reps"):
        name = f"quadform.{layer}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = s(total.get(name, 0))
        out[f"{name}.hit_ratio"] = ratio(hits.get(name, 0), calls.get(name, 0))
    out.update(
        {
            "quadform.find_rep.s": s(total.get("quadform.find_rep", 0)),
            "quadform.class_group.s": s(total.get("quadform.class_group", 0)),
            "theorems.range_report.s": s(total.get("theorems.range_report", 0)),
            "theorems.range_report.self_s": s(self_ns.get("theorems.range_report", 0)),
            "theorems.verdicts": verdicts,
            "theorems.checked_ratio": ratio(checked, verdicts),
            "theorems.table_cache.builds": builds,
            "theorems.table_cache.audit_s": s(audit_ns),
            "theorems.single.s": s(total.get("theorems.single", 0)),
            "theorems.single.self_s": s(self_ns.get("theorems.single", 0)),
            "cli.main.s": s(total.get("cli.main", 0)),
            "cli.main.self_s": s(self_ns.get("cli.main", 0)),
        }
    )
    return out

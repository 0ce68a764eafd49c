"""Per-layer metrics from the spans that perfbench/traced.py writes.

A span is [name, start, end, parent, aggregated_child_s]; a layer is the part
of a span name before its first dot.  A span's self time is its duration
minus the part of its interval that its child spans cover, minus the time
of aggregated (span-less) calls made directly inside it.
"""

from __future__ import annotations


def self_times(spans: list[list]) -> list[float]:
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, aggregated), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for kid_start, kid_end in sorted(kids):
            kid_start, kid_end = max(kid_start, reach), min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                reach = kid_end
        out.append(end - start - covered - aggregated)
    return out


def outermost(spans: list[list], names: set[str]) -> tuple[int, float]:
    """Calls and time of spans named in ``names`` that have no ancestor named there.

    Nested calls (an oracle state built on another oracle state, say) are
    then counted once.
    """
    inside = [False] * len(spans)
    calls, seconds = 0, 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = parent >= 0 and inside[parent]
        inside[index] = covered or name in names
        if name in names and not covered:
            calls += 1
            seconds += end - start
    return calls, seconds


def layer_self(spans: list[list], selfs: list[float], layer: str) -> float:
    prefix = layer + "."
    return sum((s for span, s in zip(spans, selfs) if span[0].startswith(prefix)), 0.0)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see perfbench/design.json)."""
    spans = trace["spans"]
    selfs = self_times(spans)
    totals = trace["totals"]
    counters = trace["counters"]

    def calls(name):
        return outermost(spans, {name})[0]

    def seconds(*names):
        return outermost(spans, set(names))[1]

    multiplying = {span[3] for span in spans if span[0] == "prodstate.left_multiply"}
    expansions = [i for i, span in enumerate(spans) if span[0] == "prodstate.expansion"]
    hits = sum(1 for i in expansions if i not in multiplying)
    moment_calls, moment_s = totals.get("jacobi.moment", (0, 0.0))
    return {
        "cli.main_s": seconds("cli.main"),
        "cli.self_s": layer_self(spans, selfs, "cli"),
        "omega.build_s": seconds("omega.builder"),
        "jacobi.load_s": seconds("jacobi.jacobi_from_json"),
        "prodstate.map_build_s": seconds("prodstate.product_type_map"),
        "prodstate.left_multiply_calls": calls("prodstate.left_multiply"),
        "prodstate.left_multiply_s": seconds("prodstate.left_multiply"),
        "prodstate.left_multiply_terms_in": counters.get("prodstate.left_multiply_terms_in", 0),
        "prodstate.left_multiply_terms_out": counters.get("prodstate.left_multiply_terms_out", 0),
        "prodstate.expansion_calls": len(expansions),
        "prodstate.expansion_hits": hits,
        "prodstate.word_moment_calls": calls("prodstate.word_moment"),
        "prodstate.eval_poly_s": seconds("prodstate.word_moment", "prodstate.eval_poly"),
        "ncpoly.series_mul_calls": calls("ncpoly.series_mul"),
        "ncpoly.series_mul_s": seconds("ncpoly.series_mul"),
        "ncpoly.series_inverse_calls": calls("ncpoly.series_inverse"),
        "ncpoly.series_inverse_s": seconds("ncpoly.series_inverse"),
        "ncpoly.series_terms_out": counters.get("ncpoly.series_terms_out", 0),
        "ncpoly.poly_mul_calls": calls("ncpoly.poly_mul"),
        "ncpoly.poly_mul_s": seconds("ncpoly.poly_mul"),
        "cfrac.scalar_s": seconds("cfrac.scalar_branched_cf"),
        "cfrac.matricial_s": seconds("cfrac.matricial_cf"),
        "cfrac.self_s": layer_self(spans, selfs, "cfrac"),
        "oracle.phi_calls": calls("oracle.phi"),
        "oracle.phi_s": seconds("oracle.phi"),
        "oracle.self_s": layer_self(spans, selfs, "oracle"),
        "oracle.mops_s": seconds("oracle.mops"),
        "oracle.functional_inner_calls": calls("oracle.functional_inner"),
        "jacobi.moment_calls": moment_calls,
        "jacobi.moment_s": moment_s,
    }


def sum_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    """Add up the metrics of a workload's invocations; the hit ratio is recomputed."""
    total = {key: sum(m[key] for m in per_invocation) for key in per_invocation[0]}
    hits = total.pop("prodstate.expansion_hits")
    calls = total["prodstate.expansion_calls"]
    total["prodstate.expansion_hit_ratio"] = hits / calls if calls else 0.0
    return total

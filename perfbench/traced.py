"""Run one ncprod CLI invocation in-process with its layer entry points timed.

Usage: python3 perfbench/traced.py SPANS_FILE ARG...

ARG... is the CLI's own argument list.  The CLI's stdout is captured and
written back unchanged, so the caller can compare it byte for byte with an
untraced run; the exit code is the CLI's.  Spans stay in memory and are
written to SPANS_FILE as JSON when the invocation ends:

    {"spans": [[name, start, end, parent, aggregated_child_s], ...],
     "totals": {name: [calls, seconds]}, "counters": {name: value},
     "missing": [wrap points not found]}

``parent`` is the index of the enclosing span, or -1.  Functions called too
often for one span per call (``jacobi.moment``) get only a call count and a
total time; their time is also added to the enclosing span's
``aggregated_child_s`` so that self times stay right.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from time import perf_counter as clock


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span; after(args, result) may count work."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def aggregate(self, name, fn):
        """Wrap fn with a call count and total time instead of per-call spans."""
        spans, stack = self.spans, self.stack
        totals = self.totals.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr by its span wrapper; a missing attribute is reported."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.span(name, fn, after))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "totals": self.totals,
                    "counters": self.counters,
                    "missing": self.missing,
                },
                handle,
            )


def install(tracer: Tracer):
    """Wrap the public entry points of every ncprod module except cli.

    Must run before ncprod.cli is imported: cli._ORACLES binds the oracle
    factories at import time.
    """
    from ncprod import cfrac, jacobi, ncpoly, omega, oracle, prodstate

    tracer.patch(jacobi, "jacobi_from_json", "jacobi.jacobi_from_json")
    if hasattr(jacobi, "moment"):
        # oracle imports moment by name, so both bindings need the wrapper
        moment = tracer.aggregate("jacobi.moment", jacobi.moment)
        jacobi.moment = moment
        if hasattr(oracle, "moment"):
            oracle.moment = moment
    else:
        tracer.missing.append("jacobi.moment")
    tracer.patch(omega, "builder", "omega.builder")

    tracer.patch(prodstate, "product_type_map", "prodstate.product_type_map")
    tracer.patch(prodstate, "moment_table", "prodstate.moment_table")

    def multiplied(args, result):
        tracer.count("prodstate.left_multiply_terms_in", len(args[2]))
        tracer.count("prodstate.left_multiply_terms_out", len(result))

    tracer.patch(prodstate, "left_multiply", "prodstate.left_multiply", multiplied)
    evaluator = getattr(prodstate, "StateEvaluator", None)
    for attr in ("expansion", "word_moment", "eval_poly"):
        tracer.patch(evaluator, attr, f"prodstate.{attr}")

    def series_out(args, result):
        if isinstance(result, ncpoly.NCSeries):
            tracer.count("ncpoly.series_terms_out", len(result.terms))

    series = getattr(ncpoly, "NCSeries", None)
    tracer.patch(series, "__mul__", "ncpoly.series_mul", series_out)
    tracer.patch(series, "inverse", "ncpoly.series_inverse", series_out)
    tracer.patch(getattr(ncpoly, "NCPolynomial", None), "__mul__", "ncpoly.poly_mul")

    for attr in ("scalar_branched_cf", "matricial_cf", "matricial_from_map"):
        tracer.patch(cfrac, attr, f"cfrac.{attr}")

    def traced_factory(factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.span("oracle.phi", factory(*args, **kwargs))

        return wrapper

    for attr in [a for a in dir(oracle) if a.endswith("_state")]:
        setattr(oracle, attr, traced_factory(getattr(oracle, attr)))
    tracer.patch(oracle, "gram_schmidt_mops", "oracle.mops")
    tracer.patch(oracle, "functional_inner", "oracle.functional_inner")


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from ncprod import cli

    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    try:
        code = tracer.span("cli.main", cli.main)(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout = real_stdout
    real_stdout.write(captured.getvalue())
    real_stdout.flush()
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

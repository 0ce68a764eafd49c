"""Self-test of the benchmark itself: python3 perfbench/selftest.py

Checks, at tiny orders (every --order halved) so that it takes seconds:

1. the self-time arithmetic on a synthetic nested span set;
2. each workload, untraced and traced, is correct, has no failures and
   reports every metric that BENCHMARK.json names;
3. the predicted zeros of design.json hold;
4. a corrupted stdout is counted as a failure;
5. the work of moments-dense (left_multiply terms out) is the same for
   several seeds.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import spans


def tiny(workload: run.Workload) -> run.Workload:
    """The same workload with every order halved."""

    def halve(command: str) -> str:
        words = command.split()
        at = words.index("--order") + 1
        words[at] = str(int(words[at]) // 2)
        return " ".join(words)

    return run.Workload(
        workload.name, tuple(map(halve, workload.timed)), tuple(map(halve, workload.checks))
    )


def check_self_times() -> list[str]:
    # cli.main [0, 10] holds omega.builder [1, 4], which holds
    # prodstate.left_multiply [2, 3], and oracle.phi [5, 7]; 0.5 s of
    # aggregated jacobi.moment calls ran directly inside cli.main and 0.25 s
    # inside oracle.phi.
    synthetic = [
        ["cli.main", 0.0, 10.0, -1, 0.5],
        ["omega.builder", 1.0, 4.0, 0, 0.0],
        ["prodstate.left_multiply", 2.0, 3.0, 1, 0.0],
        ["oracle.phi", 5.0, 7.0, 0, 0.25],
    ]
    expected = [10.0 - 3.0 - 2.0 - 0.5, 3.0 - 1.0, 1.0, 2.0 - 0.25]
    got = spans.self_times(synthetic)
    errors = [] if got == expected else [f"self times {got}, expected {expected}"]
    nested = synthetic + [["oracle.phi", 5.5, 6.5, 3, 0.0]]
    if spans.outermost(nested, {"oracle.phi"}) != (1, 2.0):
        errors.append("a nested oracle.phi span was counted twice")
    return errors


def corrupt(out: bytes) -> bytes:
    """Change the digit nearest the middle of the output."""
    digits = [i for i, byte in enumerate(out) if chr(byte).isdigit()]
    at = min(digits, key=lambda i: abs(i - len(out) // 2))
    return out[:at] + str((int(chr(out[at])) + 1) % 10).encode() + out[at + 1 :]


def check_workload(workload: run.Workload, spec: dict, design: dict) -> list[str]:
    errors = []
    for traced in (False, True):
        mode = "traced" if traced else "untraced"
        result, _, _ = run.run_workload(workload, run.DEFAULT_SEED, 0.5, traced, None)
        wanted = spec["per_layer" if traced else "end_to_end"]
        missing = {m["name"] for m in wanted} - set(result["metrics"])
        if missing:
            errors.append(f"{workload.name} {mode}: metrics missing: {sorted(missing)}")
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload.name} {mode}: {result['failed']} failed")
        if traced and not missing:
            for name in design["predicted_zeros"].get(workload.name, []):
                if result["metrics"][name]["value"] != 0:
                    errors.append(f"{workload.name}: predicted zero {name} is not 0")
    repetitions, checks, _ = run.execute(workload, run.DEFAULT_SEED, 0.5, False)
    results = [r for rep in repetitions for r in rep] + checks
    for victim in {r.command: r for r in reversed(results)}.values():
        original = victim.out
        victim.out = corrupt(original)
        if not run.verify(workload, results, None):
            errors.append(f"{workload.name}: corrupted {victim.command!r} was not caught")
        victim.out = original
    return errors


def check_seed_invariance(workload: run.Workload) -> list[str]:
    outs = set()
    for seed in (1, 2, 3):
        result, _, _ = run.run_workload(workload, seed, 0.5, True, None)
        outs.add(result["metrics"]["prodstate.left_multiply_terms_out"]["value"])
    return [] if len(outs) == 1 else [f"left_multiply terms out varies with the seed: {outs}"]


def main() -> int:
    spec = run.benchmark_spec()
    design = json.loads((run.HERE / "design.json").read_text(encoding="utf-8"))
    errors = check_self_times()
    if design["default_seed"] != run.DEFAULT_SEED:
        errors.append("design.json and run.py name different default seeds")
    for workload in run.WORKLOADS.values():
        errors += check_workload(tiny(workload), spec, design)
    errors += check_seed_invariance(tiny(run.WORKLOADS["moments-dense"]))
    for error in errors:
        print(f"FAIL: {error}")
    print("self-test passed" if not errors else f"self-test failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

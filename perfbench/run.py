"""End-to-end and per-layer benchmark of the ncprod command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its ``src``.  The seed picks the two marginal
states, which are written as JSON files for the CLI, so the program sees
only those files.  Each workload is a fixed list of CLI invocations run as a
closed loop: one process at a time, the next spawned when the previous has
exited, repeated while at least half of one more repetition fits in
``--seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``wall_rel`` (each invocation's spawn-to-exit wall time divided by the mean
wall time of the calibration runs just before and after it, summed over the
workload's invocations; median over repetitions), ``peak_rss_mb`` (largest
peak RSS of one invocation, read from that child's own rusage; median over
repetitions) and ``setup_s`` (fresh process that imports ncprod, loads both
marginals and builds the workload's largest coefficient map; median of
samples taken after every repetition).  The raw ``wall_s`` (the same sum in
seconds) and the calibration's own time are printed on stderr, not gated:
on a shared machine whose speed changes from minute to minute, the raw time
of one run spreads too much to be compared with another run's.

``--trace 1`` alternates untraced repetitions with traced ones, in which
perfbench/traced.py times the calls into each module, and reports the
per-layer metrics (medians over traced repetitions), with
``trace.overhead_s`` the traced minus the untraced raw ``wall_s``.

After timing, every output is checked (see ``verify``).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  A run
that cannot find the program exits 2 without printing a result.
``--workload all`` runs every workload in both modes and prints every
metric with its unit, the error rate and the predicted zeros.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans  # sibling module: this directory is sys.path[0] for scripts here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
SETUPS_PER_REPETITION = 3

# Magnitudes of the GENERIC_J1 / GENERIC_J2 pair of tests/conftest.py.  The
# seed picks which marginal gets which magnitudes and the sign of all betas
# of each marginal.  Random magnitudes would change the size of the exact
# rationals, and with it the work, from seed to seed; a zero beta or gamma
# would prune the free-tree expansions.  Negating all betas of a marginal
# reflects its variable, which keeps every basis expansion's nonzero terms
# (negating single betas can cancel a few), so left_multiply's terms out on
# moments-dense are the same for every seed.
MARGINAL_MAGNITUDES = (
    (("1/2", "1/3", "1/4"), ("1", "2/3", "3/5")),
    (("1/2", "2/5", "1/3"), ("3/2", "1/2", "5/7")),
)


@dataclass(frozen=True)
class Workload:
    name: str
    timed: tuple[str, ...]  # CLI invocations, timed in order
    checks: tuple[str, ...] = ()  # untimed invocations whose outputs the check uses


# Why each workload exists is recorded in BENCHMARK.json and perfbench/design.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moments-dense",
            ("moments --omega free --order 11",),
            (
                "cfrac --engine scalar --omega free --order 10",
                "cfrac --engine matricial --omega free --order 10",
            ),
        ),
        Workload(
            "series-oracles",
            (
                "cfrac --engine scalar --omega free --order 13",
                # the matricial engine truncates above order 10
                "cfrac --engine matricial --omega free --order 10",
                "compare --omega free --against free --order 9",
                "compare --omega one-branch --against cfrac --order 12",
                "mops --omega free --order 4",
            ),
            ("moments --omega free --order 10",),
        ),
    )
}


@dataclass
class Result:
    command: str
    phase: str  # "timed", "check" or "traced"
    code: int
    out: bytes
    wall_s: float
    rss_kb: int
    err: bytes
    trace: dict | None = None
    cal_s: float | None = None  # mean wall seconds of the calibration runs around it


class Bench:
    """One benchmark run: its working directory, inputs and child processes."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.files = []
        for index, data in enumerate(marginals(seed), start=1):
            path = workdir / f"jacobi{index}.json"
            path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
            self.files.append(str(path))
        self.traces = 0
        self.last_calibration: float | None = None

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float, int, bytes]:
        """Run a child to completion; stdout through a pipe, rusage of that child only.

        Returns exit code, stdout, wall seconds, peak RSS in KiB and stderr.
        """
        with open(self.workdir / "stderr.txt", "w+b") as errors:
            start = time.perf_counter()
            child = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=errors, env=self.env, cwd=ROOT
            )
            try:
                out = child.stdout.read()
            finally:
                child.stdout.close()
                _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            errors.seek(0)
            err = errors.read()
        child.returncode = os.waitstatus_to_exitcode(status)
        return child.returncode, out, wall, usage.ru_maxrss, err

    def cli_args(self, command: str) -> list[str]:
        return command.split() + ["--jacobi1", self.files[0], "--jacobi2", self.files[1]]

    def invoke(self, command: str, phase: str) -> Result:
        if phase != "traced":
            argv = [sys.executable, "-m", "ncprod.cli", *self.cli_args(command)]
            return Result(command, phase, *self.spawn(argv))
        self.traces += 1
        spans_file = self.workdir / f"spans{self.traces}.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(spans_file), *self.cli_args(command)]
        result = Result(command, phase, *self.spawn(argv))
        if spans_file.exists():
            result.trace = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        return result

    def setup(self, workload: Workload) -> float:
        tree, depth = largest_map(workload)
        argv = [sys.executable, "-c", SETUP_SCRIPT, *self.files, tree, str(depth)]
        code, _, wall, _, err = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}: {err.decode()[-500:]}")
        return wall

    def calibrate(self) -> float:
        code, _, wall, _, err = self.spawn([sys.executable, "-c", CALIBRATION_SCRIPT])
        if code != 0:
            raise RuntimeError(f"calibration exited with {code}: {err.decode()[-500:]}")
        return wall

    def invoke_timed(self, command: str) -> Result:
        """An untraced invocation between two calibration runs.

        The calibration after one invocation is the one before the next.
        """
        if self.last_calibration is None:
            self.last_calibration = self.calibrate()
        result = self.invoke(command, "timed")
        after = self.calibrate()
        result.cal_s = (self.last_calibration + after) / 2
        self.last_calibration = after
        return result


# A fixed pure-Python load shaped like ncprod's work: exact rational
# arithmetic, then a large dict of tuple keys built and read in scattered
# order.  It runs as a fresh process between timed invocations, so that its
# wall time measures the machine's speed around each of them.
CALIBRATION_SCRIPT = """
from fractions import Fraction
s = Fraction(0)
for i in range(1, 30000):
    s += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
n = 200000
keys = [(i % 1013, i % 2039, i) for i in range(n)]
table = dict.fromkeys(keys, s)
sum(table[keys[i * 7919 % n]] is s for i in range(n))
"""

SETUP_SCRIPT = """
import json, sys
from ncprod import builder, jacobi_from_json, product_type_map
j1, j2 = (jacobi_from_json(json.load(open(p, encoding="utf-8"))) for p in sys.argv[1:3])
product_type_map(builder(sys.argv[3], int(sys.argv[4])), j1, j2)
"""


def marginals(seed: int) -> list[dict]:
    rng = random.Random(seed)
    pair = list(MARGINAL_MAGNITUDES)
    rng.shuffle(pair)
    signs = [rng.choice(("", "-")) for _ in pair]
    return [
        {"beta": [sign + b for b in betas], "gamma": list(gammas), "extend": "repeat"}
        for sign, (betas, gammas) in zip(signs, pair)
    ]


def map_depth(command: str) -> int:
    # the CLI builds maps of depth max(order, 1), and max(2 * order, 1) for mops
    order = _order_of(command)
    return max(2 * order if command.startswith("mops") else order, 1)


def largest_map(workload: Workload) -> tuple[str, int]:
    """Tree and depth of the deepest map the workload's timed invocations build."""
    deepest = max(workload.timed, key=map_depth)
    words = deepest.split()
    return words[words.index("--omega") + 1], map_depth(deepest)


def measure(bench: Bench, workload: Workload, seconds: float, traced: bool):
    """Repeat the workload while at least half of one more repetition fits in ``seconds``.

    Untraced, each repetition runs the timed invocations, each between two
    calibration runs, and then times the set-up SETUPS_PER_REPETITION times,
    so that set-up samples are spread over the whole run; traced, an
    untraced pass and a traced pass.  Returns the list of repetitions, each
    a list of Results, and the set-up times.
    """
    repetitions, setups = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if traced:
            repetitions.append([bench.invoke(c, "timed") for c in workload.timed])
            repetitions.append([bench.invoke(c, "traced") for c in workload.timed])
        else:
            repetitions.append([bench.invoke_timed(c) for c in workload.timed])
            setups += [bench.setup(workload) for _ in range(SETUPS_PER_REPETITION)]
        took = time.perf_counter() - began
        if time.perf_counter() - start + took / 2 > seconds:
            return repetitions, setups


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _word_of(key: str) -> tuple[int, ...]:
    return tuple(int(x) for x in key.split(".")) if key and key != "()" else ()


def _order_of(command: str) -> int:
    words = command.split()
    return int(words[words.index("--order") + 1])


def _words_up_to(order: int) -> set[tuple[int, ...]]:
    words = {()}
    level = [()]
    for _ in range(order):
        level = [w + (letter,) for w in level for letter in (1, 2)]
        words.update(level)
    return words


def _rows(command: str, out: bytes) -> dict:
    listed = json.loads(out)
    rows = {tuple(r["word"]): Fraction(r["value"]) for r in listed}
    if len(rows) != len(listed) or set(rows) != _words_up_to(_order_of(command)):
        raise ValueError("rows do not cover exactly the words up to the order")
    return rows


# what parsing or checking a wrong or garbled output can raise
CHECK_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError)


def _check_compare(command: str, out: bytes) -> None:
    if json.loads(out) != {"equal": True, "order": _order_of(command)}:
        raise ValueError("comparison did not report equal")


def _check_mops(command: str, out: bytes, moments: dict) -> None:
    """Verdict yes, each Q_u monic with leading word u, and all pairs orthogonal.

    Monic polynomials x_u + (lower degree) orthogonal to every lower-degree
    one are unique, so this pins down the whole output.
    """
    report = json.loads(out)
    depth = _order_of(command)
    if report.get("mops") is not True or report.get("depth") != depth:
        raise ValueError("mops verdict is not yes")
    polys = {
        _word_of(u): {_word_of(w): Fraction(c) for w, c in terms.items()}
        for u, terms in report["polynomials"].items()
    }
    if set(polys) != _words_up_to(depth):
        raise ValueError("mops polynomials do not cover the words up to the depth")
    for u, terms in polys.items():
        if terms.get(u) != 1 or any(len(w) >= len(u) for w in terms if w != u):
            raise ValueError(f"Q_{u} is not monic with leading word {u}")
    ordered = sorted(polys, key=lambda w: (len(w), w))
    for i, u in enumerate(ordered):
        for v in ordered[i + 1 :]:
            inner = sum(
                cu * cv * moments[a[::-1] + b]
                for a, cu in polys[u].items()
                for b, cv in polys[v].items()
            )
            if inner:
                raise ValueError(f"<Q_{u}, Q_{v}> = {inner}, not 0")


def verify(workload: Workload, results: list[Result], golden: dict | None) -> list[str]:
    """Check every output; return one message per failed Result.

    A Result fails when its exit code is not 0, when its stdout differs from
    the first untraced stdout of the same command (so traced output must be
    byte-identical), when its stdout or exit code differs from the recorded
    sha256 (default seed only), or when the content check of its command
    fails: row tables (moments, cfrac) must cover every word up to their
    order and agree with each other through the smallest order among them;
    every compare must report equal; mops must pass _check_mops against the
    moments table.
    """
    reference: dict[str, bytes] = {}
    for r in results:
        if r.phase != "traced" and r.code == 0:
            reference.setdefault(r.command, r.out)
    bad: dict[str, str] = {}  # command -> reason its content is wrong
    for command in set(workload.timed + workload.checks) - set(reference):
        bad[command] = "no successful untraced run"
    rows = {}
    for command, out in reference.items():
        kind = command.split()[0]
        try:
            if kind in ("moments", "cfrac"):
                rows[command] = _rows(command, out)
            elif kind == "compare":
                _check_compare(command, out)
        except CHECK_ERRORS as exc:
            bad[command] = str(exc)
    if len(rows) > 1:
        order = min(_order_of(c) for c in rows)
        first, *others = rows
        for other in others:
            diff = [w for w in _words_up_to(order) if rows[first][w] != rows[other][w]]
            if diff:
                for command in (first, other):
                    bad[command] = f"{first!r} and {other!r} differ at word {list(min(diff))}"
    for command, out in reference.items():
        if command.split()[0] == "mops":
            table = next((r for c, r in rows.items() if c.startswith("moments")), None)
            try:
                if table is None:
                    raise ValueError("no moments table to check against")
                _check_mops(command, out, table)
            except CHECK_ERRORS as exc:
                bad[command] = str(exc)

    messages = []
    for r in results:
        reason = None
        if r.code != 0:
            last = r.err.decode(errors="replace").strip().splitlines()[-1:]
            reason = f"exit code {r.code} {last}"
        elif r.command in bad:
            reason = bad[r.command]
        elif r.out != reference[r.command]:
            reason = f"{r.phase} stdout differs from the first untraced stdout"
        elif golden is not None:
            expected = golden.get(r.command)
            if expected != {"exit": r.code, "sha256": sha256(r.out)}:
                reason = "stdout differs from the recorded sha256"
        if reason:
            messages.append(f"{r.phase} {r.command!r}: {reason}")
    return messages


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def execute(workload: Workload, seed: int, seconds: float, traced: bool):
    """Time the set-up (untraced only) and the workload, then run its check invocations.

    Returns (repetitions, check results, set-up times).
    """
    workdir = HERE / ".work" / str(os.getpid())
    try:
        bench = Bench(seed, workdir)
        bench.setup(workload)  # warm-up: byte-compiles the package
        repetitions, setups = measure(bench, workload, seconds, traced)
        checks = [bench.invoke(c, "check") for c in workload.checks]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    return repetitions, checks, setups


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, golden: dict | None
) -> tuple[dict, dict, dict]:
    """Measure one workload.

    Returns the result object printed as the last line, the sample count of
    each metric, and the raw figures that are reported but not gated
    (untraced only: ``wall_s`` and the calibration's ``calibration_s``).
    Failed checks and the sha256 of every command's stdout go to stderr.
    """
    spec = benchmark_spec()
    repetitions, checks, setups = execute(workload, seed, seconds, traced)
    results = [r for rep in repetitions for r in rep] + checks
    failures = verify(workload, results, golden)
    untraced = [rep for rep in repetitions if rep[0].phase == "timed"]
    walls = [sum(r.wall_s for r in rep) for rep in untraced]
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    raw: dict[str, float] = {}
    if traced:
        traces = [rep for rep in repetitions if rep[0].phase == "traced"]
        per_rep = []
        for rep in traces:
            if any(r.trace is None for r in rep):
                continue
            per_rep.append(spans.sum_metrics([spans.layer_metrics(r.trace) for r in rep]))
            for r in rep:
                for name in r.trace["missing"]:
                    print(f"warning: wrap point {name} not found", file=sys.stderr)
        if per_rep:
            for key in per_rep[0]:
                values[key] = statistics.median(m[key] for m in per_rep)
                samples[key] = len(per_rep)
        traced_walls = [sum(r.wall_s for r in rep) for rep in traces]
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        samples["trace.overhead_s"] = len(traced_walls)
        wanted = spec["per_layer"]
    else:
        values["wall_rel"] = statistics.median(
            sum(r.wall_s / r.cal_s for r in rep) for rep in untraced
        )
        values["peak_rss_mb"] = statistics.median(
            max(r.rss_kb for r in rep) / 1024 for rep in untraced
        )
        values["setup_s"] = statistics.median(setups)
        samples.update(wall_rel=len(walls), peak_rss_mb=len(walls), setup_s=len(setups))
        raw["wall_s"] = statistics.median(walls)
        raw["calibration_s"] = statistics.median(r.cal_s for rep in untraced for r in rep)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    for message in failures:
        print(f"FAILED {workload.name}: {message}", file=sys.stderr)
    for name in missing:
        print(f"FAILED {workload.name}: metric {name} was not measured", file=sys.stderr)
    for command in dict.fromkeys(r.command for r in results):
        first = next(r for r in results if r.command == command)
        print(
            f"{workload.name}: exit {first.code} sha256 {sha256(first.out)} {command}",
            file=sys.stderr,
        )
    result = {
        "correct": not failures and not missing,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, samples, raw


def report_all(seed: int, seconds: float) -> int:
    """Every workload in both modes: each metric by name with its unit."""
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    golden = load_golden() if seed == DEFAULT_SEED else None
    ok = True
    for workload in WORKLOADS.values():
        print(f"== {workload.name} (seed {seed})")
        for traced in (False, True):
            result, samples, raw = run_workload(
                workload, seed, seconds, traced, golden and golden.get(workload.name)
            )
            ok = ok and result["correct"]
            if not traced:
                rate = result["failed"] / result["attempted"]
                print(f"  {'error_rate':<36} {rate:<14.6g} ratio"
                      f" ({result['failed']} of {result['attempted']} invocations)")
            for name, metric in result["metrics"].items():
                print(f"  {name:<36} {metric['value']:<14.6g} {metric['unit']:<6}"
                      f" median of {samples.get(name, 0)}")
            for name, value in raw.items():
                print(f"  {name:<36} {value:<14.6g} {'s':<6} median, not gated")
            if traced:
                for name in design["predicted_zeros"].get(workload.name, []):
                    value = result["metrics"][name]["value"]
                    verdict = "holds" if value == 0 else "DOES NOT HOLD"
                    print(f"  predicted zero {name}: {verdict} ({value})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncprod" / "cli.py").is_file():
        print(f"error: no ncprod source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return report_all(args.seed, args.seconds)
    golden = load_golden().get(args.workload) if args.seed == DEFAULT_SEED else None
    result, _, raw = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), golden
    )
    for name, value in raw.items():
        print(f"{args.workload}: {name} = {value} s (median, not gated)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""duplink benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload mc_backhaul --seed 1 --seconds 50 --trace 0

Run from the root of a duplink checkout; the package is imported from
``src/``. One process, one thread, closed loop: the next op starts when the
previous one has returned and its outputs have been checked. Ops cycle over
a fixed list of items derived from ``--seed``; every repeat of an item must
reproduce the output digest of its first run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` ops alternate between untraced and traced runs of the same item
and the last line carries the per-layer metrics. Earlier lines are for
people: the environment, every metric with its unit, and the output digest.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5          # spread over the run; setup_s is their median
MIN_REPEATS = 10           # every item runs at least this often untraced
MIN_OPS_P90 = 100          # at least ten samples beyond the 90th percentile
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import duplink.cli"
VERDICTS = ("converged", "oscillating", "max_iterations")
POLICIES = ("bdt", "wf", "greedy")

# Pin native thread pools before numpy is imported: the benchmark is one
# closed-loop caller on a small machine. Subprocesses inherit the setting.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _import_duplink():
    """Import duplink from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "duplink" / "__init__.py").is_file():
        sys.exit(f"error: no duplink package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import duplink
        from duplink import cli, engine, network, scenarios
    except ImportError as exc:
        sys.exit(f"error: cannot import duplink: {exc}")
    if Path(duplink.__file__).resolve().parent != (SRC / "duplink").resolve():
        sys.exit(f"error: imported duplink from {duplink.__file__}, not {SRC}")
    return numpy, cli, engine, network, scenarios


np, cli, engine, network, scenarios = _import_duplink()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# --- workloads -------------------------------------------------------------------


@dataclass
class Outcome:
    """What one op produced, as seen by the output check."""

    scenarios: int
    digest: str | None
    problems: list
    ue_iters: int | None = None


class MonteCarlo:
    """``engine.monte_carlo`` on one point of a ``cli.PRESETS`` sweep.

    One item per point of the preset: (point, explicit per-trial seeds).
    """

    def __init__(self, preset: str, trials: int):
        self.preset, self.trials = preset, trials

    def setup(self, seed: int, work: Path, tiny: bool) -> list:
        points, kwargs = cli.PRESETS[self.preset]()
        self.kwargs = dict(kwargs)
        self.policies = tuple(self.kwargs.pop("policies"))
        trials = 1 if tiny else self.trials
        return [(point, [int(x) for x in
                         np.random.SeedSequence([seed, idx]).generate_state(trials)])
                for idx, point in enumerate(points[:2] if tiny else points)]

    def prepare(self, item) -> None:
        pass

    def call(self, item):
        point, seeds = item
        return engine.monte_carlo([point], self.policies, trials=len(seeds),
                                  seeds=seeds, **self.kwargs)

    def check(self, item, rows) -> Outcome:
        point, seeds = item
        problems = []
        if len(rows) != len(seeds) * len(self.policies):
            problems.append(f"{len(rows)} rows, expected "
                            f"{len(seeds)} trials x {len(self.policies)} policies")
        p_max = point.params.p_max
        lines = []
        for row in rows:
            eta, power, conv = (row["eta_n_normalized"], row["avg_total_power"],
                                row["converged"])
            if not (math.isfinite(eta) and eta >= 0):
                problems.append(f"eta_n_normalized {eta!r}")
            if not 0.0 <= power <= p_max:
                problems.append(f"avg_total_power {power!r} outside [0, {p_max}]")
            if not isinstance(conv, (bool, np.bool_)):
                problems.append(f"converged is {type(conv).__name__}, not bool")
            lines.append(f"{row['policy']},{row['trial']},{float(eta).hex()},"
                         f"{float(power).hex()},{bool(conv)}")
        return Outcome(len(seeds), _digest("\n".join(lines).encode()), problems)


class CliRun:
    """In-process ``duplink run`` on pre-generated mixed-population files."""

    def __init__(self, n_dual, n_fixed, n_relays, n_picos, files, iters):
        self.shape = (n_dual, n_fixed, n_relays, n_picos)
        self.files, self.iters = files, iters

    def setup(self, seed: int, work: Path, tiny: bool) -> list:
        n_dual, n_fixed, n_relays, n_picos = (20, 5, 2, 3) if tiny else self.shape
        items = []
        for i in range(1 if tiny else self.files):
            params = scenarios.GenParams(
                n_ues=n_dual, n_relays=n_relays, n_picos=n_picos,
                seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]))
            path = work / f"scenario_{i}.json"
            network.save_scenario(scenarios.generate_mixed(params, n_fixed), path)
            items.append((path, n_dual + n_fixed))
        return items

    def prepare(self, item) -> None:
        shutil.rmtree(item[0].parent / "out", ignore_errors=True)

    def call(self, item):
        path, _ = item
        argv = ["run", "--scenario", str(path), "--policy", "bdt",
                "--iters", str(self.iters), "--out", str(path.parent / "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue()

    def check(self, item, result) -> Outcome:
        path, n_ues = item
        code, stderr = result
        if code != 0:
            return Outcome(0, None, [f"exit code {code}: {stderr.strip()}"])
        problems = []
        out = path.parent / "out"
        metrics_raw = (out / "metrics.json").read_bytes()
        trace_raw = (out / "trace.csv").read_bytes()
        metrics = json.loads(metrics_raw)
        iterations = metrics["iterations_run"]
        if metrics.get("verdict") not in VERDICTS:
            problems.append(f"verdict {metrics.get('verdict')!r}")
        rows = trace_raw.count(b"\n") - 1
        if rows != iterations + 1:
            problems.append(f"trace.csv has {rows} rows, expected {iterations + 1}")
        eq_path = out / "equilibrium.json"
        eq_raw = eq_path.read_bytes() if eq_path.exists() else b""
        if eq_raw:
            err = json.loads(eq_raw).get("max_abs_error_p1")
            if not (isinstance(err, (int, float)) and math.isfinite(err)):
                problems.append(f"equilibrium max_abs_error_p1 {err!r}")
        return Outcome(1, _digest(metrics_raw, trace_raw, eq_raw), problems,
                       ue_iters=n_ues * iterations)


# A pass over a workload's items takes under 3 s on a 2-core x86 VM, so
# every item repeats fifteen times or more in a 50 s run.
WORKLOADS = {
    # The per-iteration engine at small n (fig4 backhaul sweep, 3 policies).
    "mc_backhaul": MonteCarlo("fig4", trials=8),
    # Large mixed network through the CLI: file I/O, fixed-SINR UEs,
    # mixed-population equilibrium.
    "cli_large": CliRun(n_dual=160, n_fixed=40, n_relays=8, n_picos=12,
                        files=2, iters=50),
    # fig2b (tau, Z) grid: contractive screen and long or oscillating runs.
    # Not in BENCHMARK.json: the O(k^2) cost of 100-iteration runs makes its
    # timings spread too widely between seeds and runs to gate on.
    "mc_contractive": MonteCarlo("fig2b", trials=4),
}


# --- measuring --------------------------------------------------------------------


@dataclass
class Op:
    """One timed call: the index of its item, seconds, and what it produced."""

    item: int
    seconds: float
    outcome: Outcome
    traced: bool


def _run_op(wl, items, index, tracer=None, layer=None) -> Op:
    item = items[index % len(items)]
    wl.prepare(item)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.call(item)
        else:
            result, root = tracer.root("bench.op", wl.call, item)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Op(index % len(items), time.perf_counter() - start,
                  Outcome(0, None, [f"{type(exc).__name__}: {exc}"]), tracer is not None)
    seconds = time.perf_counter() - start
    try:
        outcome = wl.check(item, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome = Outcome(0, None, [f"output check raised {type(exc).__name__}: {exc}"])
    if tracer is not None:
        layer.add_op(root, index < len(items), outcome)
    return Op(index % len(items), seconds, outcome, tracer is not None)


def _setup(wl, seed, work, tiny, tracer=None, layer=None):
    """One set-up: a fresh interpreter imports duplink, then this process
    prepares the workload's inputs under ``work``. Returns (items, seconds,
    fingerprint of the inputs)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True)
    if tracer is None:
        items = wl.setup(seed, work, tiny)
    else:
        items, root = tracer.root("bench.setup", wl.setup, seed, work, tiny)
        layer.add_setup(root)
    seconds = time.perf_counter() - start
    return items, seconds, _digest(*(p.read_bytes() for p in sorted(work.iterdir())))


def _measure(wl, items, seconds, min_ops, tracer=None, layer=None, pause=None):
    """Run ops until ``seconds`` of measuring and ``min_ops`` ops have passed,
    then finish the pass over the items, so every item weighs the same.
    ``pause(fraction of seconds elapsed)`` runs between ops; its time does
    not count as measuring."""
    ops, first_digest, index, paused = [], {}, 0, 0.0
    start = time.perf_counter()
    while (index < min_ops or index % len(items)
           or time.perf_counter() - start - paused < seconds):
        if pause is not None:
            t = time.perf_counter()
            pause((t - start - paused) / seconds if seconds else 1.0)
            paused += time.perf_counter() - t
        if tracer is None:
            batch = [_run_op(wl, items, index)]
        elif index % 2 == 0:  # same item untraced and traced, alternating order
            batch = [_run_op(wl, items, index), _run_op(wl, items, index, tracer, layer)]
        else:
            batch = [_run_op(wl, items, index, tracer, layer), _run_op(wl, items, index)]
        for op in batch:
            digest = op.outcome.digest
            if digest is not None:
                expected = first_digest.setdefault(op.item, digest)
                if digest != expected:
                    op.outcome.problems.append("output differs from the item's first run")
            ops.append(op)
        index += 1
    return ops, first_digest


def _item_p90(ops) -> dict:
    """item -> (90th percentile of its successful op times, its outcome).

    On a shared host the op times of an item sit on a plateau, with bursts
    of faster ops when neighbouring load lets the core run faster; how much
    of a run those bursts cover changes from run to run. The 90th percentile
    stays on the plateau, so it is far steadier than the median or the best
    time, and it still leaves out the slowest tenth of the repeats.
    """
    times, outcomes = {}, {}
    for op in ops:
        if not op.outcome.problems:
            times.setdefault(op.item, []).append(op.seconds)
            outcomes.setdefault(op.item, op.outcome)
    return {item: (statistics.quantiles(v, n=10, method="inclusive")[8]
                   if len(v) > 1 else v[0], outcomes[item])
            for item, v in times.items()}


class LayerStats:
    """Per-span-name totals over traced ops and the traced set-up."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls, self.ns, self.self_ns = {}, {}, {}
        # Exact counts over the traced set-up and the first cycle of items,
        # per root span ("bench.setup" or "bench.op").
        self.cycle = {"bench.op": {}, "bench.setup": {}}
        self.runs = {}               # (policy, verdict) -> count
        self.iterations = 0
        self.csv_bytes = []
        self.accepted = 0
        self.root_ns = {"bench.op": 0, "bench.setup": 0}
        self.problems = []

    def _consume(self, root, count):
        spans = self.tracer.spans
        kind = spans[root].name
        try:
            own = tracing.self_times(spans, root, len(spans))
            if sum(own.values()) != spans[root].end - spans[root].start:
                raise ValueError("self times do not add up to the root span")
        except ValueError as exc:
            self.problems.append(str(exc))
            own = {}
        cycle = self.cycle[kind]
        for i, ns in own.items():
            s = spans[i]
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.ns[s.name] = self.ns.get(s.name, 0) + s.end - s.start
            self.self_ns[s.name] = self.self_ns.get(s.name, 0) + ns
            if not count:
                continue
            cycle[s.name] = cycle.get(s.name, 0) + 1
            if s.name == "engine.run" and s.info is not None:
                policy, verdict, iterations = s.info
                self.runs[policy, verdict] = self.runs.get((policy, verdict), 0) + 1
                self.iterations += iterations
            elif s.name == "engine.trace_to_csv" and s.info is not None:
                self.csv_bytes.append(s.info)
        self.root_ns[kind] += spans[root].end - spans[root].start
        del spans[root:]

    def add_op(self, root, first_cycle, outcome):
        if first_cycle:
            self.accepted += outcome.scenarios
        self._consume(root, first_cycle)

    def add_setup(self, root):
        self._consume(root, True)

    def metrics(self, overhead) -> dict:
        """name -> (value, unit); the value is "absent" when the hook point no
        longer exists and "not_run" when the workload never reached it."""
        absent = self.tracer.absent
        op_ns = self.root_ns["bench.op"]
        total_ns = op_ns + self.root_ns["bench.setup"]
        in_ops = self.cycle["bench.op"]

        def ran(name, fn):
            if name in absent:
                return "absent"
            return fn() if self.calls.get(name) else "not_run"

        def per_call(name, scale, own=False):
            totals = self.self_ns if own else self.ns
            return ran(name, lambda: totals[name] / self.calls[name] / scale)

        def share(name, base, own=True):
            return ran(name, lambda: (self.self_ns if own else self.ns)[name] / base)

        def count(name, value=None):
            if name in absent:
                return "absent"
            return value if value is not None else sum(
                c.get(name, 0) for c in self.cycle.values())

        def ratio(name, num, den):
            return ran(name, lambda: num / den if den else "not_run")

        candidates = in_ops.get("scenarios.generate", 0)
        scenarios_seen = candidates + in_ops.get("network.load_scenario", 0)
        # Verdicts come from each run's return value; a refactor that changes
        # it leaves the calls counted but the verdicts unknown.
        verdicts_known = self.runs or not in_ops.get("engine.run")
        out = {
            "scenarios.generate.calls": (count("scenarios.generate"), "count"),
            "scenarios.generate.us_per_call": (per_call("scenarios.generate", 1e3), "us"),
            "scenarios.generate.share": (share("scenarios.generate", total_ns, own=False),
                                         "1"),
            "network.save_scenario.ms_per_call": (
                per_call("network.save_scenario", 1e6), "ms"),
            "network.load_scenario.ms_per_call": (
                per_call("network.load_scenario", 1e6), "ms"),
            "network.validate_scenario.ms_per_call": (
                per_call("network.validate_scenario", 1e6), "ms"),
            "metrics.build_matrices.ms_per_call": (
                per_call("metrics.build_matrices", 1e6), "ms"),
            "metrics.build_matrices.calls_per_scenario": (ratio(
                "metrics.build_matrices", in_ops.get("metrics.build_matrices", 0),
                scenarios_seen), "1"),
            "metrics.compute_state.calls": (count("metrics.compute_state"), "count"),
            "metrics.compute_state.us_per_call": (
                per_call("metrics.compute_state", 1e3), "us"),
            "backhaul.rate_differentials.calls": (
                count("backhaul.rate_differentials"), "count"),
            "backhaul.rate_differentials.us_per_call": (
                per_call("backhaul.rate_differentials", 1e3), "us"),
            "engine.step.self_us_per_call": (per_call("engine.step", 1e3, own=True), "us"),
            "engine.run.self_share": (share("engine.run", op_ns), "1"),
            "engine.run.iterations": (
                count("engine.run", self.iterations) if verdicts_known else "absent",
                "count"),
        }
        for policy in POLICIES:
            for verdict in VERDICTS:
                out[f"engine.run.verdicts.{policy}.{verdict}"] = (
                    count("engine.run", self.runs.get((policy, verdict), 0))
                    if verdicts_known else "absent", "count")
        out.update({
            "equilibrium.build_system.calls": (count("equilibrium.build_system"), "count"),
            "equilibrium.build_system.ms_per_call": (
                per_call("equilibrium.build_system", 1e6), "ms"),
            "engine.monte_carlo.accept_ratio": (ratio(
                "engine.monte_carlo", self.accepted, candidates), "1"),
            "engine.monte_carlo.self_share": (share("engine.monte_carlo", op_ns), "1"),
            "engine.trace_to_csv.ms_per_call": (
                per_call("engine.trace_to_csv", 1e6), "ms"),
            "engine.trace_to_csv.bytes": (ratio(
                "engine.trace_to_csv", sum(self.csv_bytes), len(self.csv_bytes)), "bytes"),
            "cli.main.self_ms": (per_call("cli.main", 1e6, own=True), "ms"),
            "trace.overhead": (overhead, "1"),
        })
        return out


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _report(metrics: dict) -> tuple:
    """Final-line form and name -> status of the values that are not numbers.

    The result line holds only numbers, so an ``absent`` or ``not_run`` value
    is reported as 0 there and its status goes on the ``info`` line.
    """
    out, status = {}, {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, str):
            status[name] = value
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = layer = None
    if args.trace:
        tracer = tracing.Tracer()
        layer = LayerStats(tracer)
    setups = []

    def setup_again(fraction):
        # Spread the set-up repeats over the run (due at fractions 1/4, 2/4,
        # ... of it), so that setup_s does not hinge on one moment's load.
        if len(setups) < SETUP_REPEATS and fraction >= len(setups) / (SETUP_REPEATS - 1):
            setups.append(_setup(wl, args.seed, work / f"setup{len(setups)}", args.tiny))
            shutil.rmtree(work / f"setup{len(setups) - 1}")

    try:
        setups.append(_setup(wl, args.seed, work / "inputs", args.tiny, tracer, layer))
        items = setups[0][0]
        repeats = 1 if args.tiny or args.trace else MIN_REPEATS
        ops, digests = _measure(wl, items, args.seconds, repeats * len(items), tracer,
                                layer, None if args.trace else setup_again)
        if not args.trace:
            setup_again(1.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = [op for op in ops if op.outcome.problems]
    for op in failed[:5]:
        print(f"failed op on item {op.item}: {'; '.join(op.outcome.problems)}",
              file=sys.stderr)
    plain = [op for op in ops if not op.traced]
    done = _item_p90(plain)
    done_s = sum(t for t, _ in done.values())
    plain_ms = [op.seconds * 1e3 for op in plain]
    digest = _digest(*(digests.get(i, "missing").encode() for i in range(len(items))))
    info = {
        "workload": args.workload,
        "env": _environment(args.seed),
        "items": len(items),
        "ops": len(plain),
        "traced_ops": len(ops) - len(plain),
        "failed_ratio": len(failed) / len(ops),
        "op_ms_p50_all_ops": statistics.median(plain_ms),
        "setup_s_samples": [s[1] for s in setups],
        "digest": digest,
    }
    if len(plain) >= MIN_OPS_P90:
        info["op_ms_p90_all_ops"] = statistics.quantiles(plain_ms, n=10)[8]
    if done and all(o.ue_iters is not None for _, o in done.values()):
        info["ue_iters_per_s"] = sum(o.ue_iters for _, o in done.values()) / done_s

    if args.trace:
        traced = _item_p90(op for op in ops if op.traced)
        both = traced.keys() & done.keys()
        overhead = (sum(traced[i][0] for i in both) / sum(done[i][0] for i in both)
                    if both else "not_run")
        metrics = layer.metrics(overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(s[1] for s in setups), "s"),
            # With no successful op there is no time to report; the result
            # line then says correct: false.
            "scenarios_per_s": (sum(o.scenarios for _, o in done.values()) / done_s
                                if done else "not_run", "1/s"),
            "op_ms_p90": (statistics.fmean(t for t, _ in done.values()) * 1e3
                          if done else "not_run", "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    problems = list(layer.problems) if layer else []
    if len({s[2] for s in setups}) > 1:
        problems.append("set-up repeats produced different inputs")
    if len(done) < len(items):
        problems.append(f"{len(items) - len(done)} items never completed")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    reported, info["metric_status"] = _report(metrics)

    print("info " + json.dumps(info, sort_keys=True))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(plain)} ops on "
          f"{len(items)} items ({len(ops)} attempted, {len(failed)} failed)")
    shown = dict(metrics)
    shown["failed_ratio"] = (info["failed_ratio"], "1")
    for name in ("ue_iters_per_s", "op_ms_p50_all_ops", "op_ms_p90_all_ops"):
        if name in info:
            shown[name] = (info[name], "1/s" if name == "ue_iters_per_s" else "ms")
    for name, (value, unit) in shown.items():
        text = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:44s} {text:>14} {unit}")
    print(f"digest {digest}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The conceptmine benchmark: seeded workloads mined through the real CLI path.

Usage:
    python3 perfbench/run.py --workload basket|survey|sessions --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout. Each run has ``workloads.py`` generate its
workload from the seed and write it as a FIMI file, in a child process of its
own; then, in a closed loop with one client,
starts one fresh ``python3 -m conceptmine mine`` process at a time for the
engines cbo, lcm2 and lcm3 in turn until S seconds have passed. Every engine
run must exit 0, and all engines of a round must write the same output (a
hash over the set of output lines, extents included); at the default seed the
hash and the concept count must also match ``expected.json``. A run that
fails any of these counts in ``failed`` and gives no timing.

``--trace 0`` reports the end-to-end metrics: per engine the median wall time
and peak RSS of the mine process, and ``setup_s``, the median time of a fresh
process importing ``conceptmine.cli``. ``--trace 1`` alternates untraced runs
with runs under ``tracer.py`` and reports the per-layer metrics, medians over
the traced runs, plus the tracing overhead per engine. All times are scaled
to a nominal machine speed (see ``REFERENCE``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it give
the same metrics in a table, the error rate and the environment.

This process stays small on purpose: it imports no numpy and holds no input
or output in memory. On Linux a child's peak RSS, as ``os.wait4`` reports it,
is at least that of the process that spawned it, so a large harness would
hide the program's own memory use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ENGINES = ("cbo", "lcm2", "lcm3")
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 60
# On a shared machine the CPU speed drifts by 20% or more over seconds to
# minutes, which no median within one run removes. So every timed child is
# preceded by a fresh process running this fixed pure-Python loop, which does
# not touch conceptmine, and each child's time is scaled by REFERENCE_NOMINAL_S
# over the time of the loop just before it: times read as seconds at the speed
# at which the loop takes REFERENCE_NOMINAL_S (its typical time on the machine
# the bounds were set on, see README.md).
REFERENCE = (
    "d = {}\n"
    "for i in range(300000):\n"
    "    k = i * 7919 % 100003\n"
    "    d[k] = d.get(k, 0) + i\n"
    "t = tuple(x & 255 for x in sorted(d))\n"
)
REFERENCE_NOMINAL_S = 0.15
EXPECTED = HERE / "expected.json"
COUNTERS = ("recursive_calls", "canonicity_failures", "pruning_rule_hits", "conditional_dbs_built")


class Child:
    """One finished child process: exit code, wall seconds, peak RSS in MB.

    ``scale`` turns its wall seconds into seconds at the nominal speed; it is
    set for the children that ``Bench.timed`` pairs with a reference loop.
    """

    def __init__(self, argv: list[str], stderr_path: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(stderr_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            # A hung child is killed, so the run still ends in time and counts it as failed.
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - started
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
        self.stderr_path = stderr_path
        self.scale = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


class EngineRun:
    """One `conceptmine mine` run of one engine, traced or not."""

    def __init__(self, engine: str, traced: bool, child: Child, out: Path, stats: Path):
        self.engine = engine
        self.traced = traced
        self.child = child
        self.ok = child.code == 0
        self.digest, self.concepts = output_digest(out) if self.ok else (None, None)
        self.output_bytes = out.stat().st_size if self.ok else None
        self.counts = (
            {k: v for k, v in json.loads(stats.read_text()).items() if k != "wall_ms"}
            if self.ok
            else None
        )
        self.layers: dict[str, float] | None = None
        if not self.ok:
            tail = child.stderr_path.read_text(errors="replace")[-2000:]
            print(f"# {engine}: exit {child.code}: {tail.strip()}", file=sys.stderr)


def output_digest(path: Path) -> tuple[str, int]:
    """The output's digest and line count.

    The digest is the sum, modulo 2**256, of the SHA-256 of every line. Like a
    hash over the sorted lines, it depends on which lines there are and how
    often, not on their order; unlike it, it reads one line at a time.
    """
    total = lines = 0
    with open(path, "rb") as f:
        for line in f:
            total += int.from_bytes(hashlib.sha256(line.rstrip(b"\n")).digest(), "big")
            lines += 1
    return f"{total % 2**256:064x}", lines


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.work = work
        self.input = work / "input.dat"
        # The generator runs in a child, so numpy and the rows never enter this process.
        gen = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(self.input)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if gen.returncode != 0:
            raise SystemExit(f"generating {name} failed with exit {gen.returncode}: {gen.stderr.strip()}")
        info = json.loads(gen.stdout)
        self.rows: int = info["rows"]
        self.mine_args: list[str] = info["mine_args"]
        self.numpy: str = info["numpy"]
        self.runs: list[EngineRun] = []
        self.setup: list[Child] = []
        self.references: list[Child] = []
        self.rounds = 0

    def timed(self, argv: list[str], stderr_path: Path) -> Child:
        """Run the reference loop, then ``argv``, scaled by the loop's time."""
        reference = Child([sys.executable, "-c", REFERENCE], self.work / "reference.err")
        if reference.code != 0:
            raise SystemExit(f"the reference loop failed with exit {reference.code}")
        self.references.append(reference)
        child = Child(argv, stderr_path)
        child.scale = REFERENCE_NOMINAL_S / reference.wall_s
        return child

    def setup_sample(self) -> None:
        """One fresh process that only imports the CLI module."""
        child = self.timed([sys.executable, "-c", "import conceptmine.cli"], self.work / "setup.err")
        if child.code != 0:
            raise SystemExit(f"importing conceptmine.cli failed with exit {child.code}")
        self.setup.append(child)

    def mine(self, engine: str, traced: bool) -> EngineRun:
        tag = f"{engine}{'-traced' if traced else ''}"
        out, stats, spans = (self.work / f"{tag}.{ext}" for ext in ("out", "stats", "spans"))
        args = [
            "mine", str(self.input), "--algorithm", engine, *self.mine_args,
            "-o", str(out), "--stats", str(stats),
        ]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "conceptmine", *args]
        for stale in (out, stats, spans):
            stale.unlink(missing_ok=True)
        run = EngineRun(engine, traced, self.timed(argv, self.work / f"{tag}.err"), out, stats)
        if run.ok and traced:
            layers = layer_metrics(json.loads(spans.read_text()), run)
            run.layers = {
                k: v * run.child.scale if unit_of(k) == "s" else v for k, v in layers.items()
            }
        return run

    def round(self, traced: bool) -> None:
        """Every engine once, untraced; with ``traced`` each is followed by a traced run."""
        batch = []
        for engine in ENGINES:
            batch.append(self.mine(engine, False))
            if traced:
                batch.append(self.mine(engine, True))
        if len({r.digest for r in batch}) > 1:
            # A disagreement fails the whole round: no engine's timing from it counts.
            print(f"# engines disagree: {[(r.engine, r.digest) for r in batch]}", file=sys.stderr)
            for r in batch:
                r.ok = False
        self.runs.extend(batch)
        self.rounds += 1


def layer_metrics(spans: list[list], run: EngineRun) -> dict[str, float]:
    """Per-layer numbers of one traced run, from its spans and its --stats counters."""
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    count_a: dict[str, int] = {}
    count_b: dict[str, int] = {}
    for name, start, end, parent, a, b in spans:
        d = end - start
        dur[name] = dur.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        count_a[name] = count_a.get(name, 0) + a
        count_b[name] = count_b.get(name, 0) + b
        if parent >= 0:
            parent_name = spans[parent][0]
            self_s[parent_name] = self_s.get(parent_name, 0.0) - d
    e = run.engine
    c = run.counts
    emit_ratio = c["concepts_emitted"] / c["recursive_calls"] if c["recursive_calls"] else 1.0
    m = {
        "context.parse_s": dur["context.parse"],
        "context.preprocess_s": dur["context.preprocess"],
        "context.rows_in": count_a["context.preprocess"],
        "context.rows_kept": count_b["context.preprocess"],
        "context.merge_ratio": count_a["context.preprocess"] / max(1, count_b["context.preprocess"]),
        f"mining.engine_s.{e}": dur.get("mining.engine", 0.0),
        f"mining.translate_s.{e}": dur["mining.mine_concepts"]
        - dur["context.preprocess"]
        - dur.get("mining.engine", 0.0),
        f"cli.write_s.{e}": dur["cli.main"] - dur["context.parse"] - dur["mining.mine_concepts"],
        "cli.output_bytes": run.output_bytes,
        f"mining.recursive_calls.{e}": c["recursive_calls"],
        f"trace.spans.{e}": len(spans),
    }
    if e == "cbo":
        m["cbo.canonicity_failures"] = c["canonicity_failures"]
        m["cbo.emit_ratio"] = emit_ratio
        return m
    m.update({
        f"lcm.frequencies_s.{e}": dur.get("lcm.frequencies", 0.0),
        f"lcm.frequencies_calls.{e}": calls.get("lcm.frequencies", 0),
        f"lcm.rows_scanned.{e}": count_a.get("lcm.frequencies", 0),
        f"lcm.cond_db_s.{e}": dur.get("lcm.cond_db", 0.0),
        f"lcm.cond_db_rows_in.{e}": count_a.get("lcm.cond_db", 0),
        f"lcm.cond_db_rows_out.{e}": count_b.get("lcm.cond_db", 0),
        f"lcm.deliver_s.{e}": dur.get("lcm.deliver", 0.0),
        f"lcm.deliver_calls.{e}": calls.get("lcm.deliver", 0),
        f"lcm.self_s.{e}": self_s.get("mining.engine", 0.0),
        f"mining.conditional_dbs_built.{e}": c["conditional_dbs_built"],
        f"lcm.canonicity_failures.{e}": c["canonicity_failures"],
        f"lcm.emit_ratio.{e}": emit_ratio,
    })
    # lcm3 hands nearly every subproblem to its FP-tree engine, which applies no
    # pruning rule, so its pruning_rule_hits is 0 on every workload and is left out.
    if e == "lcm2":
        m["lcm.pruning_rule_hits.lcm2"] = c["pruning_rule_hits"]
    if e == "lcm3":
        m["fptree.cond_tree_s"] = dur.get("fptree.cond_tree", 0.0)
        m["fptree.cond_trees"] = calls.get("fptree.cond_tree", 0)
        m["fptree.nodes_out"] = count_a.get("fptree.cond_tree", 0)
    return m


def check_expected(bench: Bench, name: str) -> None:
    """At the default seed, fail every run whose output differs from the recorded one."""
    record = json.loads(EXPECTED.read_text())[name]
    for e in ENGINES:
        counts = next((r.counts for r in bench.runs if r.ok and r.engine == e), None)
        if counts is not None and {k: counts[k] for k in COUNTERS} != record["counters"][e]:
            print(f"# note: {e} counters {counts} differ from the recorded default-seed counters "
                  f"{record['counters'][e]}", file=sys.stderr)
    for r in bench.runs:
        if r.ok and (r.digest != record["digest"] or r.concepts != record["concepts"]):
            print(f"# {r.engine}: digest {r.digest} and {r.concepts} concepts differ from the "
                  f"recorded default-seed digest {record['digest']} and "
                  f"{record['concepts']} concepts", file=sys.stderr)
            r.ok = False


def check_counter_stability(bench: Bench) -> None:
    """The same code on the same input must repeat its traversal counters exactly."""
    for e in ENGINES:
        runs = [r for r in bench.runs if r.ok and r.engine == e]
        if len({json.dumps(r.counts, sort_keys=True) for r in runs}) > 1:
            print(f"# {e}: counters differ between runs of the same input", file=sys.stderr)
            for r in runs:
                r.ok = False


def end_to_end(bench: Bench) -> dict[str, tuple[float, str]]:
    metrics = {}
    for e in ENGINES:
        runs = [r for r in bench.runs if r.ok and r.engine == e and not r.traced]
        if runs:
            metrics[f"mine_s.{e}"] = (statistics.median(r.child.scaled_s for r in runs), "s")
            metrics[f"peak_rss_mb.{e}"] = (statistics.median(r.child.rss_mb for r in runs), "MB")
    metrics["setup_s"] = (statistics.median(c.scaled_s for c in bench.setup), "s")
    return metrics


def per_layer(bench: Bench) -> dict[str, tuple[float, str]]:
    values: dict[str, list[float]] = {}
    for r in bench.runs:
        if r.ok and r.traced:
            for k, v in r.layers.items():
                values.setdefault(k, []).append(v)
    metrics = {k: (statistics.median(v), unit_of(k)) for k, v in values.items()}
    # A round runs each engine untraced and then traced, so each traced run is
    # compared with the run just before it, which drifts the least from it.
    for e in ENGINES:
        diffs = [
            t.child.scaled_s - p.child.scaled_s
            for p, t in zip(bench.runs, bench.runs[1:])
            if p.ok and t.ok and p.engine == t.engine == e and not p.traced and t.traced
        ]
        if diffs:
            metrics[f"trace.overhead_s.{e}"] = (statistics.median(diffs), "s")
    return metrics


def unit_of(name: str) -> str:
    if "_s." in name or name.endswith("_s"):
        return "s"
    if "ratio" in name:
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def environment(numpy_version: str) -> dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="basket, survey or sessions")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "conceptmine" / "cli.py").is_file():
        print(f"perfbench: no conceptmine sources under {SRC}", file=sys.stderr)
        return 2

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, work)
        deadline = time.perf_counter() + args.seconds
        while True:
            bench.round(traced=bool(args.trace))
            if not args.trace:
                bench.setup_sample()
            if time.perf_counter() >= deadline:
                break
        check_counter_stability(bench)
        if args.seed == DEFAULT_SEED:
            check_expected(bench, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(bench) if args.trace else end_to_end(bench)
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if not r.ok)
    complete = all(
        any(r.ok and r.engine == e for r in bench.runs) for e in ENGINES
    )
    sample = next((r for r in bench.runs if r.ok), None)
    print(f"# workload {args.workload} seed {args.seed}: {bench.rows} rows, "
          f"{sample.concepts if sample else '?'} concepts, "
          f"{bench.rounds} rounds")
    print("# environment " + json.dumps(environment(bench.numpy)))
    plain = [r for r in bench.runs if r.ok and not r.traced]
    raw = {f"mine_s.{e}": statistics.median(r.child.wall_s for r in plain if r.engine == e)
           for e in ENGINES if any(r.engine == e for r in plain)}
    if not args.trace:
        raw["setup_s"] = statistics.median(c.wall_s for c in bench.setup)
    print(f"# unscaled {json.dumps(raw)}; reference loop median "
          f"{statistics.median(c.wall_s for c in bench.references):.4f} s over "
          f"{len(bench.references)} runs, nominal {REFERENCE_NOMINAL_S} s")
    # Every child's peak RSS is at least this process's, so this must stay well
    # below that of the mine children; the reference child shows the floor.
    print(f"# harness peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB; "
          f"reference child peak RSS {statistics.median(c.rss_mb for c in bench.references):.1f} MB")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"{'error_rate':34s} {failed / attempted:14.6f} ratio")
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

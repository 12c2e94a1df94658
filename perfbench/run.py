"""Benchmark of the syndetic toolkit.

    python3 perfbench/run.py --workload corpus|cli-large|vdw --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ./src and
starts every child process with that directory on PYTHONPATH.  One client
runs one operation at a time (a closed loop) until S seconds have passed.
With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run.  The line before it is the run's record: machine, seed, load
average, inputs fingerprint, work counters and every sample.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_ENV = {**os.environ, "PYTHONPATH": SRC}
# set-ups before the first operation; one more precedes each operation
SETUP_FIRST = 2
CHILD_TIMEOUT = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "phase1_s": "s",
    "phase2_s": "s",
    "peak_rss_mb": "MB",
}
# op_s, phase1_s and phase2_s by the names a user of each workload knows
E2E_NAMES = {
    "corpus": {"op_s": "corpus_s", "phase1_s": "corpus_construct_s",
               "phase2_s": "corpus_verify_s"},
    "cli-large": {"op_s": "construct_s + verify_s", "phase1_s": "construct_s",
                  "phase2_s": "verify_s"},
    "vdw": {"op_s": "vdw_exhaustive_s + vdw_capped_s", "phase1_s": "vdw_exhaustive_s",
            "phase2_s": "vdw_capped_s"},
}

# per-layer metric <name>_s is the time spent inside spans of that name
SPAN_SECONDS = (
    "cli.import",
    "textio.load_window1d",
    "textio.dump_window1d",
    "certificate.set_digest",
    "certificate.serialize",
    "certificate.parse",
    "certificate.verify_fg",
    "pipeline.fg_construct",
    "pipeline.progression_pairs",
    "pipeline.color_classes",
    "pipeline.pigeonhole_extract",
    "pipeline.affine_image",
    "windows.shifted_union_1d",
    "windows.max_run_length",
    "windows.is_ps_at_scale",
    "windows.ps_scale_2d",
    "vdw.find_mono_ap",
    "generators.gen",
)
SPAN_COUNTS = {
    "textio.run_lines": "run_lines",
    "certificate.cert_bytes": "cert_bytes",
    "certificate.pt_lines": "pt_lines",
    "pipeline.pair_count": "pair_count",
    "pipeline.boundary_excluded": "boundary_excluded",
    "pipeline.classes": "classes",
    "pipeline.class_count": "class_count",
}
REPLAY_STAGES = (
    "shifted_union_1d",
    "max_run_length",
    "vdw_span",
    "progression_pairs",
    "color_classes",
    "pigeonhole_extract",
    "affine_image",
    "ps_scale_2d",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    special = {"certificate.cert_bytes": "B", "vdw.nodes_per_s": "1/s", "error_rate": "ratio"}
    return special.get(name, "s" if name.endswith("_s") or "_s." in name else "count")


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    import inputs
    from spans import LAYERS, summarize

    total, calls, counts, self_time = summarize(tracer.spans)
    m = {f"{name}_s": total[name] for name in SPAN_SECONDS}
    m.update({metric: counts[key] for metric, key in SPAN_COUNTS.items()})
    m["windows.ps_scale_2d_calls"] = calls["windows.ps_scale_2d"]
    m["pipeline.replay_stages_s"] = sum(total[f"replay.{s}"] for s in REPLAY_STAGES)
    m["pipeline.pigeonhole_extract_w2_s"] = total["replay.pigeonhole_extract_w2"]
    for c, t in [*sorted(inputs.VDW_EXPECTED), inputs.CAPPED]:
        m[f"vdw.nodes.{c}-{t}"] = counts[f"nodes.{c}-{t}"]
        m[f"vdw.search_s.{c}-{t}"] = total[f"vdw.vdw_number.{c}-{t}"]
    capped = "{}-{}".format(*inputs.CAPPED)
    seconds = total[f"vdw.vdw_number.{capped}"]
    m["vdw.nodes_per_s"] = counts[f"nodes.{capped}"] / seconds if seconds else 0.0
    m["vdw.depth"] = counts[f"depth.{capped}"]
    for layer in (*LAYERS, "bench"):
        m[f"self.{layer}_s"] = self_time[layer]
    return m


class Child(NamedTuple):
    seconds: float  # from start to exit
    ready: float | None  # from start to the first line of stdout
    code: int
    rss_mb: float
    out: str


def run_child(argv: list[str], cwd: str = ROOT, pipe: bool = False) -> Child:
    """Run one child process to its end and time it from outside."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=CHILD_ENV, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if pipe else subprocess.DEVNULL,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready, out = None, b""
        if pipe:
            with proc.stdout:
                out = proc.stdout.readline()
                ready = time.perf_counter() - t0
                out += proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, ready, proc.returncode, usage.ru_maxrss / 1024, out.decode())


def run_traced(tracer, argv: list[str], spans_path: str, op: str, **kwargs) -> Child:
    """Run a child that writes its spans to spans_path, and adopt them
    under a span of the benchmark's own."""
    with tracer.span("bench.command", op):
        child = run_child(argv, **kwargs)
        if child.code == 0:
            with open(spans_path) as f:
                tracer.adopt(json.load(f), op)
            os.remove(spans_path)
    return child


class Run:
    """Samples, checks and counters of one benchmark run."""

    def __init__(self, seed: int, seconds: int, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup: list[float] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced_op_s: list[float] = []
        self.layers: list[dict] = []
        self.tracers: list = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counters: dict | None = None
        self.inputs: str | None = None

    def check(self, problems: list[str]) -> None:
        """Count one operation, failed if any check on it found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)
            for p in problems:
                print(f"perfbench: FAILED {p}", file=sys.stderr)

    def op(self, traced: bool, phase1: float, phase2: float) -> None:
        if traced:
            self.traced_op_s.append(phase1 + phase2)
        else:
            self.samples["op_s"].append(phase1 + phase2)
            self.samples["phase1_s"].append(phase1)
            self.samples["phase2_s"].append(phase2)

    def count(self, counters: dict) -> None:
        """Work counters must repeat exactly from one operation to the next."""
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.check([f"work counters changed: {counters} != {self.counters}"])

    def traced(self, tracer) -> None:
        self.tracers.append(tracer)
        self.layers.append(layer_metrics(tracer))

    def loop(self, step, setup) -> None:
        """Closed loop: the next operation starts when the last one ended.

        An untraced run samples the set-up before each operation, so the
        set-up samples are spread over the run.  A traced run samples no
        set-up and alternates untraced and traced operations.
        """
        for _ in range(0 if self.trace else SETUP_FIRST):
            setup()
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            if not self.trace:
                setup()
            step(self.trace and i % 2 == 1)
            i += 1
            if time.perf_counter() >= deadline and (i >= 2 or not self.trace):
                return

    def setup_child(self, argv: list[str]) -> None:
        """Time a child from its start until it prints "ready"."""
        child = run_child(argv, pipe=True)
        ok = child.code == 0 and child.out.startswith("ready")
        self.check([] if ok else [f"set-up child exited {child.code}"])
        self.setup.append(child.ready)


def replay(tracer, s, cert) -> list[str]:
    """Rebuild a construction from the public stages, on the pair box the
    certificate recorded, and compare it with the certificate."""
    from syndetic import pipeline, vdw, windows

    def stage(name, fn, *args, **kwargs):
        with tracer.span(f"replay.{name}"):
            return fn(*args, **kwargs)

    r, k, r2d = cert.radius, cert.steps, cert.radius_2d
    u = stage("shifted_union_1d", windows.shifted_union_1d, s, r)
    length_in = stage("max_run_length", windows.max_run_length, u)
    span = stage("vdw_span", vdw.vdw_span, r, k).span
    ps = stage("progression_pairs", pipeline.progression_pairs, s, r, span, cert.pair_box)
    classes = stage("color_classes", pipeline.color_classes, s, ps.pairs,
                    radius=r, span=span, steps=k)
    triple, chosen, score = stage("pigeonhole_extract", pipeline.pigeonhole_extract,
                                  classes, r2d)
    amap = pipeline.AffineMap2D(shear=triple.offset, shift=triple.shift, scale=triple.stride)
    image = stage("affine_image", pipeline.affine_image, chosen, amap)
    length_out = stage("ps_scale_2d", windows.ps_scale_2d, image, r2d)
    threaded = stage("pigeonhole_extract_w2", pipeline.pigeonhole_extract, classes, r2d,
                     workers=2)
    got = ((triple.offset, triple.stride, triple.shift), ps.pairs.count, chosen.count,
           length_in, length_out, image)
    want = ((cert.offset, cert.stride, cert.shift), cert.pair_count, cert.class_count,
            cert.length_in, cert.length_out, cert.ap_pairs)
    fields = ("triple", "pair_count", "class_count", "scale_in", "scale_out", "pairs")
    problems = [f"replay {f}: {g!r} != {w!r}" for f, g, w in zip(fields, got, want) if g != w]
    if (threaded[0], threaded[2]) != (triple, score):
        problems.append("pigeonhole_extract with workers=2 chose another class")
    return problems


def cert_key(cert) -> str:
    """Digest of every field and every pair of a certificate."""
    h = hashlib.sha256(repr(dataclasses.replace(cert, ap_pairs=None)).encode())
    h.update(repr(cert.ap_pairs.box).encode())
    h.update(cert.ap_pairs.points().tobytes())
    return h.hexdigest()


def corpus(run: Run) -> None:
    """52 acceptance instances, fg_construct then verify_fg, in-process."""
    import inputs
    from spans import CallCounter, Tracer, library_targets, patched
    from syndetic import certificate, pipeline

    instances = inputs.corpus(run.seed)
    run.inputs = inputs.corpus_fingerprint(instances)
    targets = library_targets()
    first: dict[str, str] = {}

    def step(traced: bool) -> None:
        nonlocal instances
        tracer = Tracer() if traced else None
        counter = CallCounter()
        if traced:
            with patched(targets, tracer.wrap), tracer.span("bench.generate"):
                instances = inputs.corpus(run.seed)
            hooks = patched(targets, tracer.wrap)
        else:
            counted = [t for t in targets if t[2] == "windows.ps_scale_2d"]
            hooks = patched(counted, counter.wrap)
        construct = verify = 0.0
        pairs = classes = 0
        made = []
        with hooks:
            for name, s, radius, steps in instances:
                if traced:
                    tracer.op = name
                try:
                    t0 = time.perf_counter()
                    cert = pipeline.fg_construct(s, radius, steps)
                    t1 = time.perf_counter()
                    verdict = certificate.verify_fg(cert, s)
                    t2 = time.perf_counter()
                except Exception as exc:  # counted as a failed operation
                    run.check([f"{name}: {exc!r}"])
                    continue
                construct += t1 - t0
                verify += t2 - t1
                key = cert_key(cert)
                problems = [] if verdict.passed else [f"{name}: verdict {verdict}"]
                if first.setdefault(name, key) != key:
                    problems.append(f"{name}: certificate differs from the first pass")
                run.check(problems)
                pairs += cert.pair_count
                classes += cert.class_count
                if traced:
                    made.append((name, s, cert))
        run.op(traced, construct, verify)
        if traced:
            for name, s, cert in made:
                tracer.op = name
                run.check(replay(tracer, s, cert))
            run.traced(tracer)
            ps_calls = run.layers[-1]["windows.ps_scale_2d_calls"]
        else:
            ps_calls = counter.calls["windows.ps_scale_2d"]
        run.count({"pair_count": pairs, "class_count": classes, "ps_scale_2d_calls": ps_calls})

    run.loop(step, lambda: run.setup_child(
        [sys.executable, CHILD, "setup", "corpus", str(run.seed)]))
    run.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def cli_large(run: Run) -> None:
    """syndetic gen (set-up), then construct and verify, as subprocesses."""
    work = os.path.join(OUT, f"cli-large-{os.getpid()}")
    os.makedirs(work)
    try:
        _cli_large(run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli_large(run: Run, work: str) -> None:
    import inputs
    from spans import Tracer
    from syndetic import certificate, generators, textio

    lo, hi = inputs.cli_window(run.seed)
    r, k = str(inputs.CLI_RADIUS), str(inputs.CLI_STEPS)
    gen = ["gen", "ps-striped", "--window", str(lo), str(hi), "--block",
           str(inputs.CLI_BLOCK), "--gap", str(inputs.CLI_GAP), "--out", "input.set"]
    construct = ["construct", "input.set", r, k, "--out", "cert.fgcert"]
    verify = ["verify", "cert.fgcert", "input.set", "--out", "verdict.txt"]

    def read(name: str) -> bytes:
        with open(os.path.join(work, name), "rb") as f:
            return f.read()

    def body(doc: bytes) -> bytes:
        # drop the "# runconfig" line
        return doc.split(b"\n", 1)[1]

    def cli(argv: list[str], tracer) -> Child:
        if tracer is None:
            return run_child([sys.executable, "-m", "syndetic.cli", *argv], cwd=work)
        path = os.path.join(work, "spans.json")
        return run_traced(tracer, [sys.executable, CHILD, "cli", path, *argv], path,
                          argv[0], cwd=work)

    expected_set = textio.dump_window1d(
        generators.striped_set((lo, hi), inputs.CLI_BLOCK, inputs.CLI_GAP)
    ).encode()

    def run_gen(tracer=None) -> Child:
        child = cli(gen, tracer)
        ok = child.code == 0 and body(read("input.set")) == expected_set
        run.check([] if ok else [f"gen exited {child.code} or wrote another set"])
        return child

    if run.trace:
        run_gen()
    else:
        run.setup.append(run_gen().seconds)
    data = read("input.set")
    run.inputs = hashlib.sha256(data).hexdigest()
    run_lines = sum(1 for line in data.splitlines() if line.startswith(b"run "))
    first: dict = {}

    def check_construct(child: Child) -> list[str]:
        if child.code != 0:
            return [f"construct exited {child.code}"]
        doc = read("cert.fgcert")
        if not first:
            text = body(doc).decode()
            cert = certificate.parse(text)
            first.update(doc=doc, cert=cert)
            run.count({
                "pair_count": cert.pair_count, "class_count": cert.class_count,
                "cert_bytes": len(text), "pt_lines": text.count("\npt "),
                "run_lines": run_lines,
            })
            if certificate.serialize(cert) != text:
                return ["serialize(parse(doc)) != doc"]
        return [] if doc == first["doc"] else ["certificate differs from the first run"]

    def check_verify(child: Child) -> list[str]:
        if child.code != 0:
            return [f"verify exited {child.code}"]
        lines = read("verdict.txt").decode().splitlines()
        return [] if lines[1:2] == ["PASS"] else [f"verdict {lines[1:]}"]

    s = textio.load_window1d(data.decode()) if run.trace else None

    def step(traced: bool) -> None:
        tracer = Tracer() if traced else None
        if traced:
            run_gen(tracer)
        c = cli(construct, tracer)
        run.check(check_construct(c))
        v = cli(verify, tracer)
        run.check(check_verify(v))
        run.op(traced, c.seconds, v.seconds)
        if traced:
            if first:
                tracer.op = "replay"
                run.check(replay(tracer, s, first["cert"]))
            run.traced(tracer)
        else:
            run.rss_mb += [c.rss_mb, v.rss_mb]

    run.loop(step, lambda: run.setup.append(run_gen().seconds))


def vdw(run: Run) -> None:
    """vdW searches in a fresh process per operation."""
    import inputs
    from spans import Tracer

    order = inputs.vdw_searches(run.seed)
    run.inputs = " ".join(f"{c}-{t}" for c, t in order)
    spans_path = os.path.join(OUT, f"vdw-{os.getpid()}.spans.json")

    def step(traced: bool) -> None:
        argv = [sys.executable, CHILD, "vdw", str(run.seed), spans_path if traced else "-"]
        tracer = Tracer() if traced else None
        if traced:
            child = run_traced(tracer, argv, spans_path, "vdw", pipe=True)
        else:
            child = run_child(argv, pipe=True)
        if child.code != 0:
            run.check([f"vdw child exited {child.code}"])
            return
        exhaustive = capped = 0.0
        nodes = {}
        for row in json.loads(child.out.splitlines()[-1])["searches"]:
            key = (row["colors"], row["terms"])
            problems = [] if row["mono_free"] else [f"W{key}: extremal coloring has a mono AP"]
            if key == inputs.CAPPED:
                capped += row["seconds"]
                spent = not row["exhaustive"] and row["nodes"] == row["budget"]
                solved = row["exhaustive"] and row["n"] == inputs.CAPPED_N
                if not (spent or solved):
                    problems.append(f"W{key}: capped search gave {row}")
            else:
                exhaustive += row["seconds"]
                want = inputs.VDW_EXPECTED[key]
                if not (row["exhaustive"] and row["n"] == want and row["depth"] == want - 1):
                    problems.append(f"W{key}: expected {want}, got {row}")
            nodes["{}-{}".format(*key)] = row["nodes"]
            run.check(problems)
        run.op(traced, exhaustive, capped)
        run.count(nodes)
        if traced:
            run.traced(tracer)
        else:
            run.rss_mb.append(child.rss_mb)

    run.loop(step, lambda: run.setup_child(
        [sys.executable, CHILD, "setup", "vdw", str(run.seed)]))


WORKLOADS = {"corpus": corpus, "cli-large": cli_large, "vdw": vdw}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def machine(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_before": os.getloadavg(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "syndetic", "__init__.py")):
        print(f"perfbench: no src/syndetic under {ROOT}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import syndetic

    if not os.path.abspath(syndetic.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported syndetic from {syndetic.__file__}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    record = machine(args)
    run = Run(args.seed, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](run)
    record["loadavg_after"] = os.getloadavg()
    record["noisy_host"] = max(record["loadavg_before"][0],
                               record["loadavg_after"][0]) > record["nproc"]

    if run.trace:
        metrics = {name: statistics.median(m[name] for m in run.layers)
                   for name in run.layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(run.traced_op_s)
                                       - statistics.median(run.samples["op_s"]))
        metrics["error_rate"] = run.failed / run.attempted
        spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as f:
            json.dump({"record": record, "ops": [t.rows() for t in run.tracers]}, f)
        record["spans"] = os.path.relpath(spans_path, ROOT)
        units = {name: unit(name) for name in metrics}
        names = {}
    else:
        units = E2E_UNITS
        metrics = {"setup_s": statistics.median(run.setup), "peak_rss_mb": max(run.rss_mb)}
        metrics.update({k: statistics.median(v) for k, v in run.samples.items()})
        names = E2E_NAMES[args.workload]
    record.update(
        inputs=run.inputs,
        counters=run.counters,
        errors=run.errors[:20],
        samples={"setup_s": run.setup, **run.samples, "traced_op_s": run.traced_op_s},
        quartiles={k: quartiles(v) for k, v in run.samples.items()},
    )
    if record["noisy_host"]:
        print("perfbench: load average exceeded nproc; figures are noisy", file=sys.stderr)
    for name in units:
        label = f"  ({names[name]})" if name in names else ""
        print(f"{name:34} {metrics[name]:>14.6g} {units[name]}{label}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

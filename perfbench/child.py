"""Child processes of the benchmark; run.py starts them with src on PYTHONPATH.

    python3 perfbench/child.py setup corpus|vdw SEED
        import the package, build the workload's inputs, print "ready".
    python3 perfbench/child.py vdw SEED SPANS
        run the vdW searches in a fresh process, so the module-level memo
        caches start empty; print one JSON line.  SPANS is a path for the
        spans, or - to write none.
    python3 perfbench/child.py cli SPANS ARGS...
        run ``syndetic ARGS...`` with every public call timed; the exit
        code is the command's.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, library_targets, patched


def _write(path: str, tracer: Tracer) -> None:
    if path != "-":
        with open(path, "w") as f:
            json.dump(tracer.rows(), f)


def setup(workload: str, seed: int) -> None:
    import inputs

    if workload == "corpus":
        inputs.corpus(seed)
    else:
        inputs.vdw_searches(seed)
    print("ready", flush=True)


def vdw(seed: int, spans_path: str) -> None:
    import inputs
    from syndetic import vdw as v

    print("ready", flush=True)
    # both modes time each search with the same span; only a traced run
    # writes the spans out
    tracer = Tracer()
    searches = [(c, t, v.DEFAULT_BUDGET) for c, t in inputs.vdw_searches(seed)]
    searches.append((*inputs.CAPPED, inputs.CAPPED_BUDGET))
    rows = []
    for c, t, budget in searches:
        tag = f"{c}-{t}"
        tracer.op = tag
        with tracer.span("vdw.vdw_number", tag) as s:
            res = v.vdw_number(c, t, budget)
        s.counts = {"nodes": res.budget_spent, "depth": res.extremal.n}
        with tracer.span("vdw.find_mono_ap", tag):
            mono = v.find_mono_ap(res.extremal, t)
        rows.append({
            "colors": c, "terms": t, "budget": budget, "n": res.n,
            "exhaustive": res.exhaustive, "nodes": res.budget_spent,
            "depth": res.extremal.n, "seconds": s.seconds, "mono_free": mono is None,
        })
    _write(spans_path, tracer)
    print(json.dumps({"searches": rows}), flush=True)


def cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op = argv[0]
    with tracer.span("cli.import"):
        import syndetic.cli as syndetic_cli
    with patched(library_targets(), tracer.wrap), tracer.span("cli.main", argv[0]):
        code = syndetic_cli.main(argv)
    _write(spans_path, tracer)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "vdw":
        vdw(int(rest[0]), rest[1])
    elif mode == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")

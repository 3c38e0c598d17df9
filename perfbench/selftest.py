"""Self-tests of the benchmark itself (not part of the program's suite).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is well-formed and names exactly the
metrics ``run.py`` prints, that the request generators are seeded
(same seed, same requests; another seed, another draw; serve keeps
each corpus case's pinned seed), and, with two traced runs of the
one-block sweep workload, that the generated inputs, the result rows,
the quality figures and the program's work counters repeat exactly.
Exit 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics that are work counts or quality figures (exact
#: per seed); times and rates (``*_s``) under these prefixes are not.
EXACT_PREFIXES = ("place.moves", "place.rounds", "place.calls",
                  "route.pops", "route.ripup", "route.ripped",
                  "route.repriced", "route.overused", "route.calls",
                  "route.warm", "arch.builds", "arch.nodes", "arch.edges",
                  "netlist.luts", "reliability.dies", "reliability.rung",
                  "qor.")

failures: list = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json(run) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    names = e2e + layer + [w["name"] for w in bench["workloads"]]
    check(all(NAME.match(n) for n in names), "metric/workload names match "
          "[A-Za-z0-9_.-]+ (64 max, leading letter or digit)")
    check(len(set(names)) == len(names), "every name is used once")
    check(len(e2e) <= 16 and len(layer) <= 128,
          f"{len(e2e)} end-to-end (<=16), {len(layer)} per-layer (<=128)")
    check(all(UNIT.match(m["unit"]) for m in bench["end_to_end"]
              + bench["per_layer"]), "units are well-formed")
    check(all(m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "bounds are at most 0.25")
    check(tuple(e2e) == run.END_TO_END,
          "end_to_end lists exactly what --trace 0 prints")
    return bench


def check_generators() -> None:
    import workloads as wl

    for name, block in wl.BLOCKS.items():
        a = wl.request_digest(block(7, 0))
        check(a == wl.request_digest(block(7, 0)),
              f"{name}: same seed, same requests")
        check(a != wl.request_digest(block(8, 0)),
              f"{name}: another seed, another draw")
        check(a != wl.request_digest(block(7, 1)),
              f"{name}: blocks differ within a run")
    cases = wl.corpus_cases(ROOT)
    pinned = {name: req.execution.seed for name, req, _ in cases}
    for seed in (1, 2):
        order = wl.serve_block(cases, seed, 0)
        check(sorted(c[0] for c in order) == sorted(pinned)
              and all(req.execution.seed == pinned[name]
                      for name, req, _ in order),
              f"serve seed {seed}: every case once, pinned seeds kept")
    check([c[0] for c in wl.serve_block(cases, 1, 0)]
          != [c[0] for c in wl.serve_block(cases, 2, 0)],
          "serve: another seed, another order")


def check_determinism(run, bench) -> None:
    """Two traced sweep runs: inputs, rows and counts repeat."""
    env = run._env()
    docs = [run.run_worker(env, "sweep", 3, 0, trace=1) for _ in range(2)]
    a, b = docs
    check(a["request_digests"] == b["request_digests"],
          "sweep: generated requests repeat across runs")
    check(a["digests"] == b["digests"], "sweep: result rows repeat exactly")
    check(a["failed"] == 0 and b["failed"] == 0, "sweep: every output "
          "check holds")
    check(a["untraced"]["digests"] == a["digests"],
          "sweep: traced rows equal the untraced rows")
    ma = run.per_layer("sweep", a, a["trace"]["spans"], None)
    mb = run.per_layer("sweep", b, b["trace"]["spans"], None)
    exact = [k for k in ma
             if k.startswith(EXACT_PREFIXES) and not k.endswith("_s")]
    differing = [k for k in exact if ma[k] != mb[k]]
    check(not differing, f"sweep: {len(exact)} work counters and quality "
          f"figures repeat exactly {differing or ''}")
    check(ma["place.moves_proposed"] > 0 and ma["route.pops"] > 0,
          "sweep: the program's counters were read")
    layer = [m["name"] for m in bench["per_layer"]]
    check(sorted(ma) == sorted(layer),
          "per_layer lists exactly what --trace 1 prints")


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import run

    bench = check_benchmark_json(run)
    check_generators()
    check_determinism(run, bench)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

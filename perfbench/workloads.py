"""Seeded request generation, output checks and quality figures.

Every workload is a stream of *blocks*.  Which requests block ``b``
holds is fixed by ``b`` alone; the seed draws the free parameters
inside it (mutation rate, defect rates, anneal seeds) and the order.
So a run of N blocks has the same composition whatever the seed, which
keeps throughput comparable from seed to seed, while the requests
themselves differ.  Block ``b`` of seed ``s`` depends on
``(workload, s, b)`` only.

- ``map``: 10 ``MapRequest`` per block, each of the 5 workloads once
  share-aware and once naive; contexts {2,4,8} and mutation
  {0.05, 0.15, 0.3} rotate with ``b`` so that 3 blocks give every
  (workload, mode) each context count and each mutation once.  The
  seed draws the program/anneal seed of every request and the order.
- ``sweep``: 5 workloads x grids {6,8,10} = 15 ``SweepRequest`` per
  block; each workload meets each axis {channel-width, fc,
  double-fraction} once (a Latin square rotated by ``b``), so a block
  streams 60 points.
- ``yield``: 5 workloads x models {uniform, clustered} = 10
  ``YieldRequest`` campaigns per block, one defect rate drawn from each
  of 5 strata of [0.01, 0.1], 3 dies per cell: 50 cells.
- ``serve``: the 9 ``regression_tests/`` cases in seeded order, each
  with its own pinned seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

MAP_CONTEXTS = (2, 4, 8)
MAP_MUTATIONS = (0.05, 0.15, 0.3)
SWEEP_GRIDS = (6, 8, 10)
SWEEP_AXES = ("channel-width", "fc", "double-fraction")
YIELD_MODELS = ("uniform", "clustered")
YIELD_RATE_EDGES = (0.01, 0.028, 0.046, 0.064, 0.082, 0.1)
YIELD_TRIALS = 3

#: Blocks whose results the quality figures are summed over.  Every run
#: completes at least these, so the figures are exact per seed.  Yield
#: work varies by about 7% from seed to seed within one block; three
#: blocks average that down.
SCORED_BLOCKS = {"map": 3, "sweep": 1, "yield": 3, "serve": 4}
#: Ops a timed run completes at least, so p90 has >= 10 samples beyond it.
MIN_OPS = 100


def _rng(workload: str, seed: int, block: int) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and runs
    return random.Random(f"perfbench:{workload}:{seed}:{block}")


def map_block(seed: int, block: int) -> list:
    from repro.api import WORKLOADS, ExecutionConfig, MapRequest

    rng = _rng("map", seed, block)
    turn = block % len(MAP_CONTEXTS)
    n = len(MAP_CONTEXTS)
    reqs = [
        MapRequest(workload=w, contexts=MAP_CONTEXTS[(i + turn + naive) % n],
                   mutation=MAP_MUTATIONS[(i + 2 * turn + naive) % n],
                   share_aware=not naive,
                   verify=True,
                   execution=ExecutionConfig(seed=rng.randrange(2 ** 31)))
        for i, w in enumerate(WORKLOADS) for naive in (0, 1)
    ]
    rng.shuffle(reqs)
    return reqs


def sweep_block(seed: int, block: int) -> list:
    from repro.api import WORKLOADS, ExecutionConfig, SweepRequest

    rng = _rng("sweep", seed, block)
    n = len(SWEEP_AXES)
    reqs = [
        SweepRequest(what=SWEEP_AXES[(i + j + block) % n], workload=w, grid=g,
                     execution=ExecutionConfig(seed=rng.randrange(2 ** 31)))
        for i, w in enumerate(WORKLOADS) for j, g in enumerate(SWEEP_GRIDS)
    ]
    rng.shuffle(reqs)
    return reqs


def yield_block(seed: int, block: int) -> list:
    from repro.api import WORKLOADS, ExecutionConfig, YieldRequest

    rng = _rng("yield", seed, block)
    edges = YIELD_RATE_EDGES
    reqs = [
        YieldRequest(workload=w, model=model, trials=YIELD_TRIALS,
                     rates=tuple(round(rng.uniform(lo, hi), 4)
                                 for lo, hi in zip(edges, edges[1:])),
                     execution=ExecutionConfig(seed=rng.randrange(2 ** 31)))
        for w in WORKLOADS for model in YIELD_MODELS
    ]
    rng.shuffle(reqs)
    return reqs


def corpus_cases(root) -> list:
    """``[(case name, ImportRequest, golden text)]`` in name order."""
    from repro.netlist.frontend.corpus import (
        GOLDEN_FILE,
        discover_cases,
        load_case,
    )

    return [
        (case.name, load_case(case),
         (case / GOLDEN_FILE).read_text(encoding="utf-8"))
        for case in discover_cases(Path(root) / "regression_tests")
    ]


def serve_block(cases: list, seed: int, block: int) -> list:
    """The corpus in seeded order; each case keeps its pinned seed."""
    order = list(cases)
    _rng("serve", seed, block).shuffle(order)
    return order


BLOCKS = {"map": map_block, "sweep": sweep_block, "yield": yield_block}


def request_digest(requests) -> str:
    """One hash over the requests' JSON, for the determinism checks."""
    text = json.dumps([r.to_dict() for r in requests], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def traced_variant(workload: str, request):
    """What the traced run submits: yield campaigns also ask for the
    program's own phase blocks; every other request is unchanged."""
    if workload == "yield":
        return replace(request, profile=True,
                       execution=replace(request.execution, telemetry=True))
    return request


#: Observation blocks that only the traced variant adds to a row.
OBSERVATION_KEYS = ("profile", "metrics")


def row_doc(row) -> dict:
    doc = row.to_dict()
    for key in OBSERVATION_KEYS:
        doc.pop(key, None)
    return doc


def row_digest(doc: dict) -> str:
    """Hash of a row's canonical JSON (traced vs untraced comparison)."""
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# output checks: each returns a list of problems (empty = correct)
# ---------------------------------------------------------------------- #
def check_map(result) -> list:
    problems = []
    if not result.verified:
        problems.append(f"{result.workload}: verified is false")
    mapped = result.experiment.mapped
    for ctx, rr in enumerate(mapped.routes):
        owner: dict = {}
        for name, net in rr.nets.items():
            for node in net.nodes:
                other = owner.setdefault(node, name)
                if other != name:
                    problems.append(
                        f"{result.workload} context {ctx}: node {node} "
                        f"claimed by nets {other!r} and {name!r}"
                    )
                    return problems
    return problems


def check_sweep(request, point) -> list:
    problems = []
    if point.axis != request.what.replace("-", "_"):
        problems.append(f"axis {point.axis!r} for a {request.what} sweep")
    if point.value not in request.resolved_values():
        problems.append(f"value {point.value!r} not requested")
    if point.routed and not (point.wirelength > 0 and point.critical_path > 0):
        problems.append(f"routed point {point.value!r} has no wirelength")
    return problems


def check_yield(request, point) -> list:
    problems = []
    if not point.golden_routed:
        problems.append(f"{point.workload}: golden mapping did not route")
    if not 0.0 <= point.yield_fraction <= 1.0:
        problems.append(f"yield_fraction {point.yield_fraction} not in [0,1]")
    if sum(point.repair_histogram.values()) != request.trials:
        problems.append("repair histogram does not sum to the die count")
    return problems


def check_serve(row: dict, golden: str) -> list:
    from repro.netlist.frontend.corpus import canonical_json

    if canonical_json(row) != golden:
        return [f"{row.get('name')!r}: result differs from golden.json"]
    return []


# ---------------------------------------------------------------------- #
# quality of results over the scored blocks
# ---------------------------------------------------------------------- #
QOR_NAMES = ("wirelength", "critical_path", "change_rate", "yield_frac",
             "repair_overhead")


def qor(workload: str, rows: list) -> dict:
    """Quality figures of the scored rows (0 where a figure does not
    apply to the workload).  ``rows`` are row dicts (see
    :func:`row_doc`)."""
    out = dict.fromkeys(QOR_NAMES, 0.0)
    if workload in ("map", "serve", "sweep"):
        routed = [r for r in rows if r.get("routed", True)]
        out["wirelength"] = float(sum(r["wirelength"] for r in routed))
    if workload in ("sweep", "serve"):
        out["critical_path"] = float(sum(r["critical_path"] for r in routed))
    if workload == "map" and rows:
        out["change_rate"] = (sum(r["switch_change_rate"] for r in rows)
                              / len(rows))
    if workload == "yield" and rows:
        out["yield_frac"] = sum(r["yield_fraction"] for r in rows) / len(rows)
        dies = [r["yield_fraction"] * r["trials"] for r in rows]
        if sum(dies):
            out["repair_overhead"] = sum(
                d * r["mean_wirelength_overhead"] for d, r in zip(dies, rows)
            ) / sum(dies)
    return out

"""Pinned route digests: compiled routes must not drift across commits.

``data/route_digests.json`` holds one SHA-256 per routed context over
``(iterations, and per net: name, source, sinks, sorted nodes, sorted
edges, sorted sink_paths, reused)``.  It covers three workloads on the
6x6, width-8 substrate plus one on width-5 channels tight enough for
several rip-up iterations, each on a clean die and on uniform and
clustered switch/wire-defect dies at several rates and seeds, routed
three ways:

- ``seq``: one sequential :func:`route_context_compiled` call;
- ``waves``: the same call with ``workers=3`` (parallel wavefronts);
- ``warm`` / ``warm-waves``: :func:`route_context_warm` from the clean
  die's routes, re-routing the nets the die's defects make dirty
  (sequential and with ``workers=3``).

A routing that fails digests its ``RoutingError`` message instead, so
an unroutable die is pinned too.

Regenerate only for a deliberate change to the routes::

    PYTHONPATH=src python tests/route/test_route_digests.py
"""

import functools
import hashlib
import json
import os

import pytest

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.errors import RoutingError
from repro.netlist.techmap import tech_map
from repro.place.placer import place
from repro.reliability import DefectMap, dirty_net_names
from repro.route.pathfinder import route_context_compiled, route_context_warm
from repro.workloads.generators import crc_step, random_dag, ripple_adder

DATA = os.path.join(os.path.dirname(__file__), "data", "route_digests.json")

PARAMS = ArchParams(cols=6, rows=6, channel_width=8, io_capacity=4)
TIGHT = ArchParams(cols=6, rows=6, channel_width=5, io_capacity=4)
#: workload name -> (substrate, circuit)
WORKLOADS = {
    "adder": (PARAMS, lambda: ripple_adder(4)),
    "random": (PARAMS, lambda: random_dag(6, 18, 6, seed=3)),
    "crc": (PARAMS, lambda: crc_step(6)),
    "random-tight": (TIGHT, lambda: random_dag(6, 18, 6, seed=3)),
}
MODELS = ("uniform", "clustered")
RATES = (0.01, 0.03, 0.08)
SEEDS = (0, 1, 2)
WAVE_WORKERS = 3


def _cases():
    """Every pinned routing as ``(workload, die, mode)``; ``die`` is
    ``"clean"`` or ``(model, rate, seed)``."""
    cases = []
    for wl in WORKLOADS:
        cases += [(wl, "clean", "seq"), (wl, "clean", "waves")]
        for model in MODELS:
            for rate in RATES:
                for seed in SEEDS:
                    die = (model, rate, seed)
                    for mode in ("seq", "waves", "warm", "warm-waves"):
                        cases.append((wl, die, mode))
    return cases


def _key(case) -> str:
    wl, die, mode = case
    if die != "clean":
        die = "{}/rate={}/seed={}".format(*die)
    return f"{wl}/{die}/{mode}"


@functools.lru_cache(maxsize=None)
def _mapping(wl: str):
    """(substrate, netlist, placement, clean-die routes) per workload."""
    params, circuit = WORKLOADS[wl]
    c = flat_rrg_for(params)
    netlist = tech_map(circuit(), k=4)
    placement = place(netlist, params, seed=2, effort=0.3)
    return c, netlist, placement, route_context_compiled(c, netlist, placement)


def _route_digest(rr) -> str:
    blob = json.dumps([rr.iterations, [
        [name, net.source, list(net.sinks), sorted(net.nodes),
         sorted(net.edges), sorted(net.sink_paths.items()), net.reused]
        for name, net in rr.nets.items()
    ]], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _digest(case) -> str:
    wl, die, mode = case
    c, netlist, placement, golden = _mapping(wl)
    dm = None
    if die != "clean":
        model, rate, seed = die
        dm = DefectMap.sample(c, rate, seed=seed, model=model, logic_rate=0.0)
    workers = WAVE_WORKERS if mode.endswith("waves") else None
    try:
        if mode.startswith("warm"):
            rr = route_context_warm(
                c, netlist, placement, golden, dirty_net_names(golden, dm),
                defects=dm, workers=workers,
            )
        else:
            rr = route_context_compiled(
                c, netlist, placement, defects=dm, workers=workers,
            )
    except RoutingError as exc:
        return hashlib.sha256(f"RoutingError: {exc}".encode()).hexdigest()
    return _route_digest(rr)


def _load() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def test_fixture_covers_the_case_table():
    assert sorted(_load()) == sorted(_key(c) for c in _cases())


@pytest.mark.parametrize("wl", sorted(WORKLOADS))
def test_routes_match_pinned_digests(wl):
    pinned = _load()
    cases = [c for c in _cases() if c[0] == wl]
    drifted = [_key(c) for c in cases if _digest(c) != pinned[_key(c)]]
    assert not drifted, f"{len(drifted)} routings drifted, e.g. {drifted[:3]}"


def main() -> None:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    digests = {_key(c): _digest(c) for c in _cases()}
    with open(DATA, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DATA}")


if __name__ == "__main__":
    main()

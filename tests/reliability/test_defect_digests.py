"""Pinned defect-map digests: sampled dies must not drift across commits.

``data/defect_digests.json`` holds one SHA-256 per sampled die over
``(wire_defects, switch_defects, sorted bad_tiles)``.  It covers both
spatial models, every grid/width/rate/radius/size the case table below
enumerates, the clustered model's empty-neighbourhood ``continue``
path (radius 0 around a centre on the far grid edge) and its uniform
top-up path (rate 1.0 at radius 0, where candidates on the ``-1``
boundary channels are out of every cluster's reach).

Regenerate only for a deliberate change to the sampled dies::

    PYTHONPATH=src python tests/reliability/test_defect_digests.py
"""

import hashlib
import json
import os

import pytest

from repro.arch.compiled import flat_rrg_for
from repro.arch.params import ArchParams
from repro.reliability import DefectMap

DATA = os.path.join(os.path.dirname(__file__), "data", "defect_digests.json")

GRIDS = (3, 4, 6, 10)
WIDTHS = (4, 8)
RATES = (0.01, 0.05, 0.1, 0.3, 1.0)
SEEDS = (0, 1, 2, 3, 4)
#: (cluster_radius, cluster_size) pairs; clustered cases rotate through
#: them so every pair meets every grid/width
CLUSTER_SHAPES = tuple((r, s) for r in (0, 2, 5) for s in (1, 6))


def _cases():
    """Every pinned sample as ``(grid, width, model, rate, seed, radius,
    size)``: the full uniform product, and a rotation of the cluster
    shapes over the clustered product.  Clustered rate 1.0 stays on
    grids 3 and 4, with its radius-0 (top-up) draws on grid 3 only: a
    full-rate radius-0 die spends its whole attempt budget before
    topping up, a cost that grows with the fabric for no extra
    coverage."""
    cases = []
    for grid in GRIDS:
        for width in WIDTHS:
            for rate in RATES:
                for seed in SEEDS:
                    cases.append((grid, width, "uniform", rate, seed, 2, 6))
            i = 0
            for rate in RATES:
                if rate == 1.0 and grid > 4:
                    continue
                for seed in SEEDS:
                    radius, size = CLUSTER_SHAPES[i % len(CLUSTER_SHAPES)]
                    if rate == 1.0 and radius == 0 and grid > 3:
                        radius = 2
                    i += 1
                    cases.append(
                        (grid, width, "clustered", rate, seed, radius, size)
                    )
    return cases


def _key(case) -> str:
    return "grid={}/width={}/{}/rate={}/seed={}/r={}/s={}".format(*case)


def _digest(case) -> str:
    grid, width, model, rate, seed, radius, size = case
    c = flat_rrg_for(ArchParams(
        cols=grid, rows=grid, channel_width=width, io_capacity=4,
    ))
    dm = DefectMap.sample(
        c, rate, seed=seed, model=model,
        cluster_radius=radius, cluster_size=size,
    )
    blob = json.dumps([
        list(dm.wire_defects),
        list(dm.switch_defects),
        sorted([t.x, t.y] for t in dm.bad_tiles),
    ], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def test_fixture_covers_the_case_table():
    assert sorted(_load()) == sorted(_key(c) for c in _cases())


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("model", ("uniform", "clustered"))
def test_sampled_dies_match_pinned_digests(grid, model):
    pinned = _load()
    cases = [c for c in _cases() if c[0] == grid and c[2] == model]
    assert cases
    drifted = [_key(c) for c in cases if _digest(c) != pinned[_key(c)]]
    assert not drifted, f"{len(drifted)} dies drifted, e.g. {drifted[:3]}"


def main() -> None:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    digests = {_key(c): _digest(c) for c in _cases()}
    with open(DATA, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DATA}")


if __name__ == "__main__":
    main()

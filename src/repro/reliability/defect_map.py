"""Physical defect models over the compiled routing fabric.

The behavioral fault layer (:mod:`repro.core.defects`) answers "what
does a stuck SE or a flipped plane bit do to a *configured* device".
This module models the other reliability axis the paper leaves open:
**manufacturing defects in the fabric itself** — the classic MC-FPGA
yield question.  A :class:`DefectMap` is one die's worth of defects,
sampled from a seeded model over a :class:`~repro.arch.compiled.CompiledRRG`
and lowered to the arrays the compiled router consumes directly:

- **wire defects** — a CHANX/CHANY segment is open/shorted; the node
  becomes unroutable (``node_ok`` mask);
- **switch defects** — one programmable switch (PASS/BUF/PIN edge) is
  dead; the router leaves the CSR edge out of its adjacency (built from
  the ``edge_ok_bytes`` mask) while the wires it joined stay usable
  through their other switches;
- **logic-site defects** — a tile's LB is broken; its logical
  SOURCE/SINK nodes are masked and the tile lands in :attr:`bad_tiles`,
  which the placer's ``forbidden`` parameter consumes during re-place
  repair.

Two spatial models share the same expected defect count per category:

- ``uniform`` — every candidate fails independently with probability
  ``rate`` (random point defects);
- ``clustered`` — the same number of defects is drawn in spatial
  clusters around random tile centers (lithography/particle damage is
  famously clustered, which is kinder to yield than independent
  defects at equal density — the classic negative-binomial yield
  observation the Monte Carlo campaigns can reproduce).

Maps are cheap per trial: candidate index arrays are cached on the
substrate (see ``CompiledRRG.wire_node_ids`` and friends).  A uniform
die is one vectorised draw per category; a clustered die is one table
lookup per cluster, against the per-substrate neighbourhood tables of
``CompiledRRG.defect_neighbourhoods`` (built once per candidate set and
radius), so a cluster costs its neighbourhood, not a fabric scan.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.arch.compiled import CompiledRRG
from repro.arch.geometry import Coord
from repro.utils.rng import ensure_rng

#: Recognised spatial models.
DEFECT_MODELS = ("uniform", "clustered")

#: Clustered-model defaults: cluster span (Manhattan tile radius) and
#: expected defects per cluster.
CLUSTER_RADIUS = 2
CLUSTER_SIZE = 6


class DefectMap:
    """One die's defects, lowered to router/placer-ready masks.

    Build with :meth:`sample` (seeded statistical models) or
    :meth:`from_defects` (explicit resources, for tests and targeted
    what-if experiments).  Instances are immutable in spirit: the
    router and repair ladder only ever read them.
    """

    __slots__ = (
        "params",
        "n_nodes",
        "n_edges",
        "model",
        "rate",
        "seed",
        "node_ok",
        "_node_ok_bytes",
        "_edge_ok_bytes",
        "wire_defects",
        "switch_defects",
        "bad_tiles",
        "bad_edge_pairs",
    )

    def __init__(
        self,
        c: CompiledRRG,
        wire_defects: Sequence[int],
        switch_defects: Sequence[int],
        bad_tiles: Iterable[tuple[int, int]],
        model: str = "explicit",
        rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.params = c.params
        self.n_nodes = c.n_nodes
        self.n_edges = c.n_edges
        self.model = model
        self.rate = rate
        self.seed = seed
        self.wire_defects = tuple(sorted(map(int, wire_defects)))
        self.switch_defects = tuple(sorted(map(int, switch_defects)))
        self.bad_tiles = frozenset(
            Coord(int(x), int(y)) for x, y in bad_tiles
        )

        node_ok = np.ones(c.n_nodes, dtype=bool)
        if self.wire_defects:
            node_ok[list(self.wire_defects)] = False
        if self.bad_tiles:
            # a dead LB loses its logical endpoints; routes never pass
            # *through* SOURCE/SINK nodes, so this only bites nets that
            # terminate at the dead site (i.e. a blocked placement)
            ends = c.tile_endpoint_ids()
            dead = [
                n for t in self.bad_tiles for n in ends.get((t.x, t.y), ())
            ]
            node_ok[dead] = False
        self.node_ok = node_ok
        self._node_ok_bytes: bytes | None = None
        self._edge_ok_bytes: bytes | None = None
        self.bad_edge_pairs = _edge_pairs(c, self.switch_defects)

    @property
    def node_ok_bytes(self) -> bytes:
        """``node_ok`` as an immutable byte mask (the router's defect
        floor), built lazily — trials the ladder clears at NONE level
        never route, so they never pay the copy."""
        if self._node_ok_bytes is None:
            self._node_ok_bytes = self.node_ok.tobytes()
        return self._node_ok_bytes

    @property
    def edge_ok_bytes(self) -> bytes | None:
        """Per-CSR-edge usability mask, ``None`` without switch defects
        (the router then searches the substrate's own adjacency instead
        of a copy with the dead edges left out)."""
        if not self.switch_defects:
            return None
        if self._edge_ok_bytes is None:
            edge_ok = np.ones(self.n_edges, dtype=bool)
            edge_ok[np.asarray(self.switch_defects, dtype=np.int64)] = False
            self._edge_ok_bytes = edge_ok.tobytes()
        return self._edge_ok_bytes

    @classmethod
    def from_lowered(
        cls,
        c: CompiledRRG,
        node_ok: np.ndarray,
        wire_defects: Sequence[int],
        switch_defects: Sequence[int],
        bad_tiles: Iterable[tuple[int, int]],
        model: str = "uniform",
        rate: float = 0.0,
        seed: int = 0,
    ) -> "DefectMap":
        """Rebuild a map from an already-lowered ``node_ok`` mask.

        The shared-memory trial path publishes each trial's node mask
        once (parent-side) and workers attach a read-only view; this
        constructor wraps such a view without re-sampling or re-lowering
        — the published mask already folds wire and logic-site defects.
        The small derived pieces (``bad_edge_pairs``, lazily the edge
        byte mask) are rebuilt from the defect id lists, exactly as the
        eager constructor would.
        """
        dm = cls.__new__(cls)
        dm.params = c.params
        dm.n_nodes = c.n_nodes
        dm.n_edges = c.n_edges
        dm.model = model
        dm.rate = rate
        dm.seed = seed
        dm.wire_defects = tuple(sorted(map(int, wire_defects)))
        dm.switch_defects = tuple(sorted(map(int, switch_defects)))
        dm.bad_tiles = frozenset(
            Coord(int(x), int(y)) for x, y in bad_tiles
        )
        dm.node_ok = node_ok
        dm._node_ok_bytes = None
        dm._edge_ok_bytes = None
        dm.bad_edge_pairs = _edge_pairs(c, dm.switch_defects)
        return dm

    # -- construction ------------------------------------------------------- #
    @classmethod
    def sample(
        cls,
        c: CompiledRRG,
        rate: float,
        seed: int | np.random.Generator | None = 0,
        model: str = "uniform",
        wire_rate: float | None = None,
        switch_rate: float | None = None,
        logic_rate: float | None = None,
        cluster_radius: int = CLUSTER_RADIUS,
        cluster_size: int = CLUSTER_SIZE,
    ) -> "DefectMap":
        """Draw one die's defects from a seeded statistical model.

        ``rate`` is the per-resource defect probability, applied to all
        three categories unless overridden (``wire_rate`` /
        ``switch_rate`` / ``logic_rate``).  ``model="clustered"`` keeps
        the expected counts but draws spatially-correlated defects (see
        the module docstring).  Sampling is deterministic per seed, and
        independent of which process runs it — the compiled substrate
        (and thus every candidate index) is a pure function of
        ``ArchParams``.
        """
        if model not in DEFECT_MODELS:
            raise ValueError(
                f"model must be one of {DEFECT_MODELS}, got {model!r}"
            )
        rng = ensure_rng(seed)
        seed_val = seed if isinstance(seed, (int, np.integer)) else -1
        w_rate = rate if wire_rate is None else wire_rate
        s_rate = rate if switch_rate is None else switch_rate
        l_rate = rate if logic_rate is None else logic_rate

        wires = c.wire_node_ids()
        switches = c.switch_edge_ids()
        tiles = c.logic_tiles()
        if model == "uniform":
            wire_hit = wires[rng.random(len(wires)) < w_rate]
            switch_hit = switches[rng.random(len(switches)) < s_rate]
            tile_draw = rng.random(len(tiles))
            tile_hit = [t for t, u in zip(tiles, tile_draw) if u < l_rate]
        else:
            def pick(kind, n, kind_rate):
                return _clustered_pick(
                    rng, n, c, kind, kind_rate, cluster_radius, cluster_size,
                )

            wire_hit = wires[pick("wire", len(wires), w_rate)]
            switch_hit = switches[pick("switch", len(switches), s_rate)]
            tile_hit = [
                tiles[i]
                for i in pick("tile", len(tiles), l_rate).tolist()
            ]
        return cls(
            c, wire_hit.tolist(), switch_hit.tolist(), tile_hit,
            model=model, rate=rate, seed=int(seed_val),
        )

    @classmethod
    def from_defects(
        cls,
        c: CompiledRRG,
        wire_nodes: Sequence[int] = (),
        switch_edges: Sequence[int] = (),
        logic_tiles: Iterable[tuple[int, int]] = (),
    ) -> "DefectMap":
        """Explicit defect list (tests, targeted what-if experiments)."""
        return cls(c, wire_nodes, switch_edges, logic_tiles)

    # -- queries ------------------------------------------------------------ #
    @property
    def is_clean(self) -> bool:
        """True when the die carries no defect at all."""
        return (
            not self.wire_defects
            and not self.switch_defects
            and not self.bad_tiles
        )

    @property
    def n_defects(self) -> int:
        return (
            len(self.wire_defects)
            + len(self.switch_defects)
            + len(self.bad_tiles)
        )

    def to_dict(self) -> dict:
        """JSON-ready summary (counts, not raw ids — campaigns aggregate
        thousands of maps)."""
        return {
            "model": self.model,
            "rate": self.rate,
            "seed": self.seed,
            "wire_defects": len(self.wire_defects),
            "switch_defects": len(self.switch_defects),
            "logic_defects": len(self.bad_tiles),
            "total_defects": self.n_defects,
        }

    def describe(self) -> str:
        return (
            f"DefectMap[{self.model}] rate={self.rate}: "
            f"{len(self.wire_defects)} wires, "
            f"{len(self.switch_defects)} switches, "
            f"{len(self.bad_tiles)} logic sites"
        )


def _edge_pairs(
    c: CompiledRRG, switch_defects: Sequence[int]
) -> frozenset[tuple[int, int]]:
    """``(src, dst)`` node pairs of the dead switch edges, gathered in
    one pass over the defect ids."""
    if not switch_defects:
        return frozenset()
    src = c.edge_src_ids()[list(switch_defects)].tolist()
    return frozenset(zip(src, map(c.edge_dst.__getitem__, switch_defects)))


def _clustered_pick(
    rng: np.random.Generator,
    n: int,
    c: CompiledRRG,
    kind: str,
    rate: float,
    cluster_radius: int,
    cluster_size: int,
) -> np.ndarray:
    """Spatially-clustered defect draw with uniform-matched expectation.

    Returns ascending positions into the ``n`` candidates of ``kind``
    (see :meth:`CompiledRRG.defect_neighbourhoods`).  Draws
    ``k ~ Binomial(n, rate)`` total defects (the same marginal count as
    the uniform model), then fills them cluster by cluster: pick a
    random tile center, knock out up to ``cluster_size`` random
    not-yet-taken candidates within Manhattan distance
    ``cluster_radius``.  A bounded retry count guards degenerate
    geometries; any remainder falls back to uniform picks so the
    expected count always holds.
    """
    if n == 0 or rate <= 0.0:
        return np.empty(0, dtype=np.int64)
    k = int(rng.binomial(n, min(rate, 1.0)))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    table = c.defect_neighbourhoods(kind, cluster_radius)
    stride = c.params.rows + 1
    taken = np.zeros(n, dtype=bool)
    n_taken = 0
    attempts = 0
    while n_taken < k and attempts < 64 * (1 + k // max(1, cluster_size)):
        attempts += 1
        cx = int(rng.integers(0, c.params.cols + 1))
        cy = int(rng.integers(0, c.params.rows + 1))
        near = table[cx * stride + cy]
        near = near[~taken[near]]
        if len(near) == 0:
            continue
        take = min(int(rng.integers(1, cluster_size + 1)), k - n_taken,
                   len(near))
        taken[rng.choice(near, size=take, replace=False)] = True
        n_taken += take
    if n_taken < k:  # degenerate geometry: top up uniformly
        rest = np.flatnonzero(~taken)
        extra = rng.choice(rest, size=min(k - n_taken, len(rest)),
                           replace=False)
        taken[extra] = True
    return np.flatnonzero(taken)

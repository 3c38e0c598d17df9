"""Compiled flat-array routing-resource graph.

:class:`~repro.arch.rrg.RoutingResourceGraph` is the *construction*
representation: dataclass nodes, per-node adjacency lists, name strings.
That is the right shape for building and inspecting the fabric, but a
terrible shape for the router's inner loop, which touches every edge of
the graph many times per iteration.  :class:`CompiledRRG` lowers the
object graph into flat arrays once, so the hot paths index plain
``array('i')`` / ``array('d')`` buffers instead of chasing Python
objects:

- **CSR adjacency** — ``edge_start[n] .. edge_start[n+1]`` indexes into
  ``edge_dst`` / ``edge_kind``.  Within each node's range, edges whose
  destination is a SINK are segregated *after* ``edge_mid[n]``, so the
  router's inner loop needs no per-edge kind test (relaxation order
  within one node does not affect Dijkstra's result — the bucket
  queue's pop order is decided by ``(dist, node)`` values, not push
  order).  A defective die's router drops dead switches from a copy of
  these lists, keeping every surviving edge's order and side.
- **node attribute arrays** — kind, capacity, wire length and the
  congestion *base cost* ``1.0 + 0.2 * (length - 1)`` precomputed per
  node.  The hot arrays are plain Python lists rather than
  ``array('i')``/``array('d')``: list indexing returns the stored
  (cached) object, while ``array`` boxes a fresh int/float on every
  read — measurably slower in the router's inner loop.
- **spatial extents** — per-node tile-coordinate bounding boxes
  (``xlo``/``xhi``/``ylo``/``yhi``, mirrored as numpy arrays) from
  which the router builds per-net bounding-box prune masks in one
  vectorised expression.
- **pin indexes** — the per-tile SOURCE/SINK lookup dicts are shared
  with the source graph (they are read-only after construction).

Compiled graphs are cached two ways: :func:`compile_rrg` memoises on the
graph instance (so repeated routing of one graph compiles once), and
:func:`compiled_rrg_for` is an ``lru_cache`` keyed by the *frozen*
:class:`~repro.arch.params.ArchParams`, which is what lets a batch of
mapping jobs on the same device family share one substrate.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.arch.params import ArchParams
from repro.arch.rrg import (
    EdgeKind,
    NodeKind,
    RoutingResourceGraph,
    build_rrg,
)

#: Edge kinds that are physical programmable switches — defect-injection
#: candidates for the reliability subsystem.  INTERNAL edges are logical
#: bookkeeping (source->opin / ipin->sink) with no silicon of their own.
SWITCH_EDGE_KINDS = (EdgeKind.PASS, EdgeKind.BUF, EdgeKind.PIN)

#: Stable integer encoding of :class:`NodeKind` (array-friendly).
NODE_KIND_INDEX: dict[NodeKind, int] = {k: i for i, k in enumerate(NodeKind)}
NODE_KINDS: tuple[NodeKind, ...] = tuple(NodeKind)

#: Stable integer encoding of :class:`EdgeKind`.
EDGE_KIND_INDEX: dict[EdgeKind, int] = {k: i for i, k in enumerate(EdgeKind)}
EDGE_KINDS: tuple[EdgeKind, ...] = tuple(EdgeKind)

#: Integer ids the router special-cases, exported as module constants so
#: the inner loop never touches the enum machinery.
KIND_SINK = NODE_KIND_INDEX[NodeKind.SINK]
KIND_CHANX = NODE_KIND_INDEX[NodeKind.CHANX]
KIND_CHANY = NODE_KIND_INDEX[NodeKind.CHANY]

#: Extra wire-length cost factor.  The compiled base cost below and the
#: legacy reference router's ``_CongestionState.node_cost`` both read
#: it, so the two routing engines price nodes identically.
LENGTH_COST_FACTOR = 0.2


class CompiledRRG:
    """Flat-array lowering of one :class:`RoutingResourceGraph`.

    The source graph stays reachable as :attr:`source` — everything that
    is *not* hot (stats extraction, pin lookups, describe strings) keeps
    using the object representation, so this class only carries what the
    router and placer inner loops need.
    """

    __slots__ = (
        "source",
        "params",
        "n_nodes",
        "n_edges",
        "node_kind",
        "node_capacity",
        "node_length",
        "base_cost",
        "node_capacity_np",
        "base_cost_np",
        "xlo",
        "xhi",
        "ylo",
        "yhi",
        "xlo_np",
        "xhi_np",
        "ylo_np",
        "yhi_np",
        "edge_start",
        "edge_mid",
        "edge_dst",
        "edge_kind",
        "lb_source",
        "lb_sink",
        "io_source",
        "io_sink",
        "_wire_ids",
        "_switch_edge_ids",
        "_edge_src",
        "_logic_tiles",
        "_tile_endpoints",
        "_neighbourhoods",
        "_wire_len",
    )

    def __init__(self, source: RoutingResourceGraph) -> None:
        self.source = source
        self.params = source.params
        # pin indexes are referenced directly (small tuple->int dicts),
        # so a stripped substrate keeps them without the object graph
        self.lb_source = source.lb_source
        self.lb_sink = source.lb_sink
        self.io_source = source.io_source
        self.io_sink = source.io_sink
        n = source.n_nodes
        self.n_nodes = n

        self.node_kind: list[int] = [0] * n
        self.node_capacity: list[int] = [0] * n
        self.node_length: list[int] = [0] * n
        self.base_cost: list[float] = [0.0] * n
        self.xlo: list[int] = [0] * n
        self.xhi: list[int] = [0] * n
        self.ylo: list[int] = [0] * n
        self.yhi: list[int] = [0] * n

        for node in source.nodes:
            nid = node.id
            self.node_kind[nid] = NODE_KIND_INDEX[node.kind]
            self.node_capacity[nid] = node.capacity
            self.node_length[nid] = node.length
            self.base_cost[nid] = 1.0 + LENGTH_COST_FACTOR * (node.length - 1)
            if node.kind is NodeKind.CHANX:
                # horizontal segment: covers tile x-positions pos..pos+len-1;
                # channel y sits between tile rows y-1 and y
                self.xlo[nid] = node.pos
                self.xhi[nid] = node.pos + node.length - 1
                self.ylo[nid] = node.y - 1
                self.yhi[nid] = node.y
            elif node.kind is NodeKind.CHANY:
                self.xlo[nid] = node.x - 1
                self.xhi[nid] = node.x
                self.ylo[nid] = node.pos
                self.yhi[nid] = node.pos + node.length - 1
            else:
                self.xlo[nid] = self.xhi[nid] = node.x
                self.ylo[nid] = self.yhi[nid] = node.y

        # vectorised mirrors: capacity/base-cost feed the congestion
        # bookkeeping (overuse scans, effective-cost refreshes), the
        # bounding boxes feed per-net prune-mask construction
        self.node_capacity_np = np.asarray(self.node_capacity, dtype=np.int64)
        self.base_cost_np = np.asarray(self.base_cost, dtype=np.float64)
        self.xlo_np = np.asarray(self.xlo, dtype=np.int32)
        self.xhi_np = np.asarray(self.xhi, dtype=np.int32)
        self.ylo_np = np.asarray(self.ylo, dtype=np.int32)
        self.yhi_np = np.asarray(self.yhi, dtype=np.int32)

        # CSR adjacency: per node, non-SINK destinations first, SINK
        # destinations after edge_mid[n] (lets the router skip the
        # per-edge "is this someone else's sink" test)
        sink = NODE_KIND_INDEX[NodeKind.SINK]
        kind_of = self.node_kind
        edge_start: list[int] = [0] * (n + 1)
        edge_mid: list[int] = [0] * n
        edge_dst: list[int] = []
        edge_kind: list[int] = []
        for nid in range(n):
            edge_start[nid] = len(edge_dst)
            tail: list[tuple[int, EdgeKind]] = []
            for dst, kind in source.out_edges[nid]:
                if kind_of[dst] == sink:
                    tail.append((dst, kind))
                else:
                    edge_dst.append(dst)
                    edge_kind.append(EDGE_KIND_INDEX[kind])
            edge_mid[nid] = len(edge_dst)
            for dst, kind in tail:
                edge_dst.append(dst)
                edge_kind.append(EDGE_KIND_INDEX[kind])
        edge_start[n] = len(edge_dst)
        self.n_edges = len(edge_dst)
        self.edge_start = edge_start
        self.edge_mid = edge_mid
        self.edge_dst = edge_dst
        # not read by the router; retained so structural checks (and any
        # future compiled timing model) can see switch kinds without
        # re-deriving them from the object graph (~one int per edge)
        self.edge_kind = edge_kind

        # defect-candidate indexes (reliability subsystem) are derived
        # lazily and cached, so routing-only flows never pay for them
        # but Monte Carlo trials sample against ready-made arrays
        self._wire_ids: np.ndarray | None = None
        self._switch_edge_ids: np.ndarray | None = None
        self._edge_src: np.ndarray | None = None
        self._logic_tiles: tuple[tuple[int, int], ...] | None = None
        self._tile_endpoints: dict[tuple[int, int], list[int]] | None = None
        self._neighbourhoods: dict[
            tuple[str, int], tuple[np.ndarray, ...]
        ] = {}
        self._wire_len: np.ndarray | None = None

    # -- defect-candidate indexes (reliability subsystem) ------------------- #
    def wire_node_ids(self) -> np.ndarray:
        """Node ids of every wire segment (CHANX/CHANY), cached.

        These are the *wire* defect candidates: an open or short on a
        metal segment takes the whole segment (and every context that
        would use it) out of service.
        """
        if self._wire_ids is None:
            kind = np.asarray(self.node_kind, dtype=np.int64)
            self._wire_ids = np.flatnonzero(
                (kind == KIND_CHANX) | (kind == KIND_CHANY)
            )
        return self._wire_ids

    def switch_edge_ids(self) -> np.ndarray:
        """CSR edge indexes of every programmable switch, cached.

        PASS (SE pass-gates), BUF (double-length drivers) and PIN
        (connection-block) edges are physical switches and thus *switch*
        defect candidates; INTERNAL edges are logical bookkeeping.
        """
        if self._switch_edge_ids is None:
            kinds = np.asarray(self.edge_kind, dtype=np.int64)
            want = np.array(
                [EDGE_KIND_INDEX[k] for k in SWITCH_EDGE_KINDS], dtype=np.int64
            )
            self._switch_edge_ids = np.flatnonzero(np.isin(kinds, want))
        return self._switch_edge_ids

    def edge_src_ids(self) -> np.ndarray:
        """Source node of every CSR edge (row expansion), cached.

        Gives defective edges a spatial position (their source node's
        tile) for clustered defect models, and lets edge indexes be
        reported as ``(src, dst)`` pairs.
        """
        if self._edge_src is None:
            starts = np.asarray(self.edge_start, dtype=np.int64)
            self._edge_src = np.repeat(
                np.arange(self.n_nodes, dtype=np.int64), np.diff(starts)
            )
        return self._edge_src

    def logic_tiles(self) -> tuple[tuple[int, int], ...]:
        """Tile coordinates hosting a logic block, cached.

        The *logic-site* defect candidates: a fabrication fault in an
        LB kills every cell the placer would put there, so repair must
        escalate to re-placement.
        """
        if self._logic_tiles is None:
            self._logic_tiles = tuple(
                sorted({(x, y) for (x, y, _pin) in self.lb_source})
            )
        return self._logic_tiles

    def tile_endpoint_ids(self) -> dict[tuple[int, int], list[int]]:
        """Per logic tile, the node ids of its SOURCE and SINK pins,
        cached.

        A logic-site defect masks exactly these nodes, so lowering a
        die's bad tiles is one lookup per tile instead of a scan of
        both pin indexes.
        """
        if self._tile_endpoints is None:
            ends: dict[tuple[int, int], list[int]] = {}
            for index in (self.lb_source, self.lb_sink):
                for (x, y, _pin), nid in index.items():
                    ends.setdefault((x, y), []).append(nid)
            self._tile_endpoints = ends
        return self._tile_endpoints

    def defect_neighbourhoods(
        self, kind: str, radius: int
    ) -> tuple[np.ndarray, ...]:
        """Clustered-defect neighbourhoods of one candidate set, cached
        per ``(kind, radius)``.

        ``kind`` names the candidate set: ``"wire"``
        (:meth:`wire_node_ids`, placed at their low corner),
        ``"switch"`` (:meth:`switch_edge_ids`, placed at their source
        node) or ``"tile"`` (:meth:`logic_tiles`).  Entry
        ``cx * (rows + 1) + cy`` holds the ascending positions into that
        set of every candidate within Manhattan distance ``radius`` of
        the cluster centre ``(cx, cy)``, for every centre in
        ``[0, cols] x [0, rows]`` — so one cluster draw costs a lookup
        the size of its neighbourhood, not a scan of the whole fabric.
        Positions are ``int32`` (half the footprint of ``int64``).
        """
        key = (kind, radius)
        table = self._neighbourhoods.get(key)
        if table is None:
            if kind == "wire":
                ids = self.wire_node_ids()
                x, y = self.xlo_np[ids], self.ylo_np[ids]
            elif kind == "switch":
                src = self.edge_src_ids()[self.switch_edge_ids()]
                x, y = self.xlo_np[src], self.ylo_np[src]
            elif kind == "tile":
                x, y = np.array(self.logic_tiles(), dtype=np.int64).T
            else:
                raise ValueError(f"unknown defect candidate kind {kind!r}")
            # one O(n) pass per centre: no (centres x n) intermediate
            entries = []
            for cx in range(self.params.cols + 1):
                dx = np.abs(x - cx)
                for cy in range(self.params.rows + 1):
                    near = np.flatnonzero(dx + np.abs(y - cy) <= radius)
                    entries.append(near.astype(np.int32))
            table = tuple(entries)
            # concurrent builders produce equal tables; keep the first
            table = self._neighbourhoods.setdefault(key, table)
        return table

    def wire_length_weights(self) -> np.ndarray:
        """Per-node wirelength contribution (segment length for wires,
        0 elsewhere), cached.

        Lets :meth:`RouteResult.wirelength
        <repro.route.pathfinder.RouteResult.wirelength>` sum a route's
        wirelength as one fancy-index gather instead of a Python loop
        over every node of every net — an exact integer sum either way.
        """
        if self._wire_len is None:
            kind = np.asarray(self.node_kind, dtype=np.int64)
            lengths = np.asarray(self.node_length, dtype=np.int64)
            wire = (kind == KIND_CHANX) | (kind == KIND_CHANY)
            self._wire_len = np.where(wire, lengths, 0)
        return self._wire_len

    def bbox_mask(
        self, bxlo: int, bxhi: int, bylo: int, byhi: int
    ) -> bytes:
        """Per-node membership mask for a tile-coordinate bounding box.

        A node is *inside* when its spatial extent intersects the box;
        the router skips zero-mask nodes.  Built vectorised; the result
        is an immutable ``bytes`` indexable to 0/1 ints.
        """
        inside = (
            (self.xhi_np >= bxlo) & (self.xlo_np <= bxhi)
            & (self.yhi_np >= bylo) & (self.ylo_np <= byhi)
        )
        return inside.tobytes()

    # -- convenience -------------------------------------------------------- #
    def strip_source(self) -> None:
        """Drop the object graph, keeping only the flat substrate.

        Routing, wirelength and compiled timing analysis keep working
        (everything they touch is arrays or the pin dicts); statistics
        extraction and functional verification need the object graph
        and must use a full substrate.  Stripping matters for sweep
        caches: a flat substrate is a handful of container objects,
        while an object graph is hundreds of thousands of tracked
        Python objects that make every gen-2 GC pass expensive.
        """
        self.source = None

    def node_name(self, nid: int) -> str:
        """Best-effort node description (error paths, diagnostics)."""
        if self.source is not None:
            return self.source.nodes[nid].name
        return f"node {nid} ({NODE_KINDS[self.node_kind[nid]].value})"

    def kind_of(self, nid: int) -> NodeKind:
        return NODE_KINDS[self.node_kind[nid]]

    def is_wire(self, nid: int) -> bool:
        k = self.node_kind[nid]
        return k == KIND_CHANX or k == KIND_CHANY

    def describe(self) -> str:
        return (
            f"CompiledRRG {self.params.cols}x{self.params.rows} "
            f"W={self.params.channel_width}: {self.n_nodes} nodes "
            f"{self.n_edges} edges (CSR)"
        )


def compile_rrg(g: RoutingResourceGraph) -> CompiledRRG:
    """Lower ``g`` to flat arrays, memoised on the graph instance.

    The compiled form is attached to the graph as ``_compiled`` so that
    the adapter entry points (``route_context`` on an object graph) pay
    the lowering cost once per graph, not once per call.
    """
    cached = getattr(g, "_compiled", None)
    if cached is not None and cached.n_nodes == g.n_nodes:
        return cached
    compiled = CompiledRRG(g)
    g._compiled = compiled  # type: ignore[attr-defined]
    return compiled


#: Per-``ArchParams`` build locks.  ``lru_cache`` is thread-safe but
#: not single-flight: concurrent misses on one key each build their
#: own graph and all but one result is discarded — wasted seconds per
#: worker and N transient copies of the biggest object in the system.
#: The job layer's worker pool made this a real path.  Locks are per
#: key so builds for *different* devices still overlap and cache hits
#: only ever contend with a build of their own params.
_RRG_LOCKS_GUARD = threading.Lock()
_RRG_BUILD_LOCKS: dict = {}


def _build_lock_for(params: ArchParams) -> threading.Lock:
    with _RRG_LOCKS_GUARD:
        lock = _RRG_BUILD_LOCKS.get(params)
        if lock is None:
            lock = _RRG_BUILD_LOCKS[params] = threading.Lock()
        return lock


@lru_cache(maxsize=16)
def _compiled_rrg_cached(params: ArchParams) -> CompiledRRG:
    return compile_rrg(build_rrg(params))


def compiled_rrg_for(params: ArchParams) -> CompiledRRG:
    """Build-and-compile cache keyed by the frozen ``ArchParams``.

    Two mapping jobs on the same device parameters share one compiled
    substrate (and its legacy source graph) — including concurrent
    jobs, which single-flight through the build lock.  The cache holds
    the 16 most recent device configurations, which comfortably covers
    a batch sweep; use :func:`clear_rrg_cache` between
    memory-sensitive experiments.
    """
    with _build_lock_for(params):
        return _compiled_rrg_cached(params)


compiled_rrg_for.cache_info = _compiled_rrg_cached.cache_info
compiled_rrg_for.cache_clear = _compiled_rrg_cached.cache_clear


@lru_cache(maxsize=32)
def _flat_rrg_cached(params: ArchParams) -> CompiledRRG:
    c = CompiledRRG(build_rrg(params))
    c.strip_source()  # the freshly-built object graph becomes garbage
    return c


def flat_rrg_for(params: ArchParams) -> CompiledRRG:
    """Route-only substrate cache: flat arrays, no object graph.

    Sweep grids touch many device configurations but only ever route
    and time them — they never extract bitstream statistics or run
    functional verification, which are the only consumers of the
    object graph.  Caching *stripped* substrates keeps the resident
    object count (and thus every gen-2 GC pass) small even with dozens
    of configurations cached; a full sweep on object-graph caches
    spends more time in the collector than in the router.

    Distinct from :func:`compiled_rrg_for` on purpose: a substrate
    cached here cannot serve :meth:`MappedProgram.stats` or
    verification, so mapping flows keep their own full cache.
    Concurrent misses single-flight through the per-params build lock.
    """
    with _build_lock_for(params):
        return _flat_rrg_cached(params)


flat_rrg_for.cache_info = _flat_rrg_cached.cache_info
flat_rrg_for.cache_clear = _flat_rrg_cached.cache_clear


def clear_rrg_cache() -> None:
    """Drop all cached compiled graphs and their pooled router scratch
    buffers (mainly for tests / memory)."""
    compiled_rrg_for.cache_clear()
    flat_rrg_for.cache_clear()
    with _RRG_LOCKS_GUARD:
        _RRG_BUILD_LOCKS.clear()
    from repro.route.pathfinder import SCRATCH_POOL

    SCRATCH_POOL.clear()

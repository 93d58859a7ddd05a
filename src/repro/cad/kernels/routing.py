"""Array-native cost kernels for the PathFinder router.

The pure-python router computes the congestion/timing cost of a node and
its A* lower bound from scratch for every edge it relaxes.  The numpy
backend amortizes the work around that inner loop:

* the full per-node congestion cost vector is recomputed **vectorized**
  once per PathFinder iteration (and patched per routed net as tree
  occupancies change), so the relaxation reduces to one list lookup per
  edge;
* the admissible A* lower bound is evaluated for **all** nodes at once
  per sink set (one Manhattan-distance reduction over the graph's
  flattened coordinate arrays) and cached — sink sets repeat on every
  re-route of the same net;
* each pruning box gets a **filtered CSR** adjacency (out-of-box wire
  edges dropped up front, vectorized), so the inner loop never tests the
  box at all.

Geometry-only caches (bounds, adjacency) live on the graph's kernel-array
attachment and are shared across route calls on the same graph.

Bit-identity with the python reference is load-bearing: every vectorized
expression mirrors the reference's per-element IEEE-754 operation order
(`base * (1 + pres_fac * over) + hist_fac * history`, then the
`crit * delay + (1 - crit) * congestion` blend), so distances, heap pops
and routed trees match the pure-python kernel exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cad.kernels.arrays import graph_arrays

#: Geometry caches are shared per graph and keyed by box / sink set; long
#: sweep campaigns route many designs over one cached graph, so bound the
#: growth (a full clear is simpler than LRU bookkeeping and just as safe —
#: entries are pure functions of the key).
_GEOMETRY_CACHE_LIMIT = 512


class RouterCostTable:
    """Precomputed per-node router costs, kept in lockstep with occupancy.

    The table holds live references to the router's ``occupancy`` and
    ``history`` lists.  :meth:`refresh` rebuilds the full congestion
    vector (once per PathFinder iteration, when ``pres_fac``/``history``
    move); :meth:`update` patches the entries of the nodes a single
    occupy/release touched.
    """

    def __init__(
        self,
        graph,
        occupancy: List[int],
        history: List[float],
        hist_fac: float,
        delay_cost: Optional[Sequence[float]],
    ) -> None:
        import numpy as np

        self._np = np
        arrays = graph_arrays(graph)
        self._arrays = arrays
        self.base = arrays["base_cost"]
        self.capacity = arrays["capacity"]
        self.x = arrays["x"]
        self.y = arrays["y"]
        self._is_wire = arrays["is_wire"]
        self._is_wire_list = graph.is_wire
        self._base_list = graph.base_cost
        self._capacity_list = graph.capacity
        self._edge_starts = graph.edge_starts
        self._edge_targets = graph.edge_targets
        self._occupancy = occupancy
        self._history = history
        self.hist_fac = hist_fac
        self.delay = np.asarray(delay_cost, dtype=np.float64) if delay_cost else None
        self.pres_fac = 0.0
        self.cong = None
        self.cong_list: List[float] = []
        self.zeros: List[float] = [0.0] * len(graph)
        self._blend_cache: Dict[float, List[float]] = {}
        # Geometry-only caches shared across tables on the same graph.
        self._adjacency_cache = arrays.setdefault("adjacency", {})
        self._sink_dist = arrays.setdefault("sink_dist", {})
        self._lb_cache = arrays.setdefault("lower_bounds", {})

    # ------------------------------------------------------------------
    # Congestion-cost maintenance
    # ------------------------------------------------------------------
    def refresh(self, pres_fac: float) -> None:
        """Vectorized full recompute (start of every PathFinder iteration).

        Pin entries are pinned to ``+inf``: a pin belongs to exactly one
        net, so the reference search skips every *foreign* pin — with an
        infinite cost the relaxation fails numerically instead, letting
        the inner loop drop the pin test entirely.  A net's own pins get
        their true cost patched in per search.
        """
        np = self._np
        occ = np.asarray(self._occupancy, dtype=np.int64)
        hist = np.asarray(self._history, dtype=np.float64)
        over = occ + 1 - self.capacity
        cong = np.where(over > 0, self.base * (1.0 + pres_fac * over), self.base)
        cong = cong + self.hist_fac * hist
        cong[~self._is_wire] = np.inf
        self.pres_fac = pres_fac
        self.cong = cong
        self.cong_list = cong.tolist()
        self._blend_cache = {}

    def update(self, nodes: Sequence[int]) -> None:
        """Patch the entries a single tree occupy/release changed."""
        occupancy = self._occupancy
        history = self._history
        base = self._base_list
        capacity = self._capacity_list
        is_wire = self._is_wire_list
        pres_fac = self.pres_fac
        hist_fac = self.hist_fac
        cong = self.cong
        cong_list = self.cong_list
        for node_id in nodes:
            if not is_wire[node_id]:
                continue  # pins stay at +inf (see refresh)
            over = occupancy[node_id] + 1 - capacity[node_id]
            step = base[node_id]
            if over > 0:
                step *= 1.0 + pres_fac * over
            step += hist_fac * history[node_id]
            cong_list[node_id] = step
            cong[node_id] = step
        if self._blend_cache:
            self._blend_cache = {}

    def cost_list(self, crit: float) -> List[float]:
        """The per-node step-cost list for one net's criticality."""
        if crit == 0.0 or self.delay is None:
            # crit == 0 blends to exactly the congestion cost
            # (0.0 * delay + 1.0 * step == step for finite positive values).
            return self.cong_list
        cached = self._blend_cache.get(crit)
        if cached is None:
            blended = crit * self.delay + (1.0 - crit) * self.cong
            cached = blended.tolist()
            self._blend_cache[crit] = cached
        return cached

    # ------------------------------------------------------------------
    # Geometry (static per graph; caches shared across route calls)
    # ------------------------------------------------------------------
    def adjacency(self, box: Optional[Tuple[int, int, int, int]]) -> List[List[int]]:
        """Per-node neighbour lists with out-of-box wire targets pruned.

        Materialized as lists (not CSR) so the search's pop loop iterates
        a node's neighbours without building a slice each time.
        """
        cached = self._adjacency_cache.get(box)
        if cached is None:
            np = self._np
            if len(self._adjacency_cache) >= _GEOMETRY_CACHE_LIMIT:
                self._adjacency_cache.clear()
            starts = self._edge_starts
            if box is None:
                targets = self._edge_targets
            else:
                x0, x1, y0, y1 = box
                inside = (
                    (self.x >= x0) & (self.x <= x1) & (self.y >= y0) & (self.y <= y1)
                )
                allowed = inside | ~self._is_wire  # pins are cost-gated instead
                starts_arr = np.asarray(starts, dtype=np.int64)
                targets_arr = np.asarray(self._edge_targets, dtype=np.int64)
                keep = allowed[targets_arr]
                csum = np.concatenate(([0], np.cumsum(keep)))
                starts = csum[starts_arr].tolist()
                targets = targets_arr[keep].tolist()
            cached = [
                targets[starts[node_id] : starts[node_id + 1]]
                for node_id in range(len(starts) - 1)
            ]
            self._adjacency_cache[box] = cached
        return cached

    def lower_bounds(self, remaining: Set[int], half_fac: float) -> List[float]:
        """A* lower bound for every node towards the nearest remaining sink.

        One hop shrinks the Manhattan distance by at most 2, so
        ``half_fac`` (half the cheapest per-node cost) times the integer
        Manhattan distance never over-estimates — and the single float
        multiply on an exact integer reduction reproduces the reference
        bound bit-for-bit.  Keyed by (sink set, half_fac): the same sink
        sets recur on every PathFinder re-route of a net.
        """
        key = (tuple(sorted(remaining)), half_fac)
        cached = self._lb_cache.get(key)
        if cached is None:
            np = self._np
            if len(self._lb_cache) >= _GEOMETRY_CACHE_LIMIT:
                self._lb_cache.clear()
            nearest = None
            for sink in key[0]:
                dist = self._sink_dist.get(sink)
                if dist is None:
                    if len(self._sink_dist) >= _GEOMETRY_CACHE_LIMIT:
                        self._sink_dist.clear()
                    dist = np.abs(self.x - int(self.x[sink])) + np.abs(
                        self.y - int(self.y[sink])
                    )
                    self._sink_dist[sink] = dist
                nearest = dist if nearest is None else np.minimum(nearest, dist)
            cached = (half_fac * nearest).tolist()
            self._lb_cache[key] = cached
        return cached

"""Placement: assigning packed PLBs to fabric sites and primary IOs to pads.

The placer is a classic simulated-annealing engine over a **pluggable per-net
cost** of the inter-block nets:

* the default objective is pure half-perimeter wirelength (HPWL);
* :class:`TimingObjective` blends it with a criticality-weighted bounding-box
  delay — ``(1 - tradeoff) * hpwl + tradeoff * crit * bbox_delay`` — which is
  how the timing-driven flow pulls critical connections short.

Cost evaluation is **incremental** (VPR-style) on two levels.  A per-net cost
cache plus a block→nets index mean that a move or swap re-evaluates only the
nets touching the moved blocks; and each net's bounding box is updated
*incrementally* from the moved terminal's old/new coordinates (per-edge
occupancy counts), so a touched net is only rescanned terminal-by-terminal
when a terminal moves off a bounding-box edge it alone defined.  Site and pad
bookkeeping is O(1) per move (occupancy maps with swap-pop free lists), and
the acceptance test uses a per-batch precomputed inverse temperature.

Determinism: for a given seed the anneal draws one fixed RNG stream —
per-net costs are exact in the default objective (HPWL sums of integer-valued
coordinates, well below 2**53, so float addition is exact in any order) and
therefore the delta path accepts exactly the moves a full-recompute path
would.  The invariant ``NetCostCache.total == full recompute`` holds
throughout the anneal and is enforced by tests (and on demand via
``place_design(..., audit_interval=N)``); blended objectives multiply by
non-integer weights, so their audit uses a tight relative tolerance instead
of exact equality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.cad.lemap import MappedDesign
from repro.core.fabric import Fabric, IOPad
from repro.core.schema import decoding, require_version

#: Schema version of :meth:`Placement.to_dict` payloads (version 0 = the
#: unstamped PR-3 placement-cache layout, still accepted on read).
PLACEMENT_SCHEMA = 1

#: Moves per temperature step: the annealer precomputes ``1 / temperature``
#: once per batch and keeps it fixed for the whole batch.
TEMPERATURE_BATCH = 32

#: Per-move geometric cooling rate (applied batch-wise as ``rate ** batch``).
COOLING_RATE = 0.999

#: Cooling floor: on very long schedules (huge designs or high effort) the
#: geometric decay would underflow to exactly 0.0 and 1/temperature would
#: raise; clamping here keeps ``exp(-delta * inv_temperature)`` at 0.0 for
#: any worsening move, which is the old ``temperature <= 0`` behaviour.
MIN_TEMPERATURE = 1e-300


class PlacementError(RuntimeError):
    """Raised when the design does not fit on the fabric."""


@dataclass
class Placement:
    """The result of placement.

    ``plb_sites`` maps packed-PLB names to ``(x, y)`` tile coordinates;
    ``io_sites`` maps primary input/output net names to IO pads.

    ``iterations`` counts proposed annealing moves, ``moves_accepted`` the
    accepted ones, and ``net_evaluations`` every full per-net terminal scan
    (including the ``net_count`` scans of the initial sweep) — the
    incremental placer's headline counter: a full-recompute annealer would
    have spent ``iterations * net_count`` of them, and incremental
    bounding-box updates (counted in ``bbox_updates``) avoid most of the
    rest.  ``cost`` is the final objective value (equal to ``wirelength``
    under the default HPWL objective); ``wirelength`` is always the pure
    HPWL, whatever objective annealed.

    Placements serialize (:meth:`to_dict` / :meth:`from_dict`) so the sweep
    engine can cache them on disk and re-inject them into
    :meth:`repro.cad.flow.CadFlow.run` — the incremental re-route path: a
    routing-only parameter change reuses the placement instead of re-annealing.
    """

    plb_sites: dict[str, tuple[int, int]] = field(default_factory=dict)
    io_sites: dict[str, IOPad] = field(default_factory=dict)
    cost: float = 0.0
    iterations: int = 0
    initial_cost: float = 0.0
    moves_accepted: int = 0
    net_evaluations: int = 0
    net_count: int = 0
    wirelength: float = 0.0
    bbox_updates: int = 0

    def site_of(self, plb_name: str) -> tuple[int, int]:
        return self.plb_sites[plb_name]

    def pad_of(self, net: str) -> IOPad:
        return self.io_sites[net]

    # ------------------------------------------------------------------
    # Serialization (for the sweep engine's placement cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable rendering (inverse of :meth:`from_dict`)."""
        return {
            "schema": PLACEMENT_SCHEMA,
            "plb_sites": {name: list(site) for name, site in self.plb_sites.items()},
            "io_sites": {
                net: {"side": pad.side, "position": pad.position, "index": pad.index}
                for net, pad in self.io_sites.items()
            },
            "cost": self.cost,
            "iterations": self.iterations,
            "initial_cost": self.initial_cost,
            "moves_accepted": self.moves_accepted,
            "net_evaluations": self.net_evaluations,
            "net_count": self.net_count,
            "wirelength": self.wirelength,
            "bbox_updates": self.bbox_updates,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Placement":
        # legacy=True: PR-3 placement-cache records predate schema stamping
        # and are still readable (version 0 and 1 share the payload layout).
        require_version(data, "placement", PLACEMENT_SCHEMA, legacy=True)
        with decoding("placement"):
            return cls._from_payload(data)

    @classmethod
    def _from_payload(cls, data: Mapping[str, object]) -> "Placement":
        plb_sites = {
            str(name): (int(site[0]), int(site[1]))
            for name, site in dict(data["plb_sites"]).items()
        }
        io_sites = {
            str(net): IOPad(
                side=str(pad["side"]), position=int(pad["position"]), index=int(pad["index"])
            )
            for net, pad in dict(data["io_sites"]).items()
        }
        return cls(
            plb_sites=plb_sites,
            io_sites=io_sites,
            cost=float(data.get("cost", 0.0)),
            iterations=int(data.get("iterations", 0)),
            initial_cost=float(data.get("initial_cost", 0.0)),
            moves_accepted=int(data.get("moves_accepted", 0)),
            net_evaluations=int(data.get("net_evaluations", 0)),
            net_count=int(data.get("net_count", 0)),
            wirelength=float(data.get("wirelength", data.get("cost", 0.0))),
            bbox_updates=int(data.get("bbox_updates", 0)),
        )

    def matches_design(self, design: MappedDesign, fabric: Fabric) -> bool:
        """Whether this placement covers exactly *design* on *fabric*.

        Used as a safety check before reusing a cached placement: the cache
        key already encodes everything placement depends on, so a mismatch
        means a corrupt or mis-keyed record — the flow then falls back to
        placing from scratch rather than routing a wrong placement.
        """
        if {plb.name for plb in design.plbs} != set(self.plb_sites):
            return False
        io_nets = set(design.primary_inputs) | set(design.primary_outputs)
        if io_nets != set(self.io_sites):
            return False
        sites = set(fabric.plb_sites())
        if not all(site in sites for site in self.plb_sites.values()):
            return False
        if len(set(self.plb_sites.values())) != len(self.plb_sites):
            return False  # two PLBs on one tile: physically invalid
        pad_names = {pad.name for pad in fabric.io_pads()}
        if not all(pad.name in pad_names for pad in self.io_sites.values()):
            return False
        used_pads = [pad.name for pad in self.io_sites.values()]
        return len(set(used_pads)) == len(used_pads)


def _build_net_terminals(design: MappedDesign) -> dict[str, list[str]]:
    """For every net spanning blocks: the block/terminal names it touches.

    Terminals are packed-PLB names or ``io:<net>`` pseudo-blocks for primary
    inputs/outputs.
    """
    terminals: dict[str, list[str]] = {}

    def add(net: str, terminal: str) -> None:
        bucket = terminals.setdefault(net, [])
        if terminal not in bucket:
            bucket.append(terminal)

    driver_plb: dict[str, str] = {}
    for plb in design.plbs:
        for net in plb.output_nets:
            driver_plb[net] = plb.name

    for plb in design.plbs:
        for net in plb.external_input_nets:
            add(net, plb.name)
            if net in driver_plb:
                add(net, driver_plb[net])
    for net in design.primary_inputs:
        add(net, f"io:{net}")
    for net in design.primary_outputs:
        add(net, f"io:{net}")
        if net in driver_plb:
            add(net, driver_plb[net])

    # Only nets touching at least two distinct terminals matter for placement.
    return {net: terms for net, terms in terminals.items() if len(terms) >= 2}


def _pad_position(pad: IOPad, fabric: Fabric) -> tuple[float, float]:
    if pad.side == "south":
        return (pad.position, -1.0)
    if pad.side == "north":
        return (pad.position, float(fabric.height))
    if pad.side == "west":
        return (-1.0, pad.position)
    return (float(fabric.width), pad.position)


def _hpwl(
    nets: dict[str, list[str]],
    plb_sites: dict[str, tuple[int, int]],
    io_positions: dict[str, tuple[float, float]],
) -> float:
    """Full (non-incremental) HPWL: the reference the cache is audited against."""
    total = 0.0
    for terminals in nets.values():
        xs: list[float] = []
        ys: list[float] = []
        for terminal in terminals:
            if terminal.startswith("io:"):
                position = io_positions.get(terminal[3:])
                if position is None:
                    continue
                xs.append(position[0])
                ys.append(position[1])
            else:
                x, y = plb_sites[terminal]
                xs.append(float(x))
                ys.append(float(y))
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


# ----------------------------------------------------------------------
# Objectives: what one net's bounding box costs
# ----------------------------------------------------------------------
class WirelengthObjective:
    """The default per-net cost: half-perimeter wirelength ``dx + dy``."""

    #: Whether per-net costs are exact floats (integer-valued sums), which
    #: lets the audit demand exact equality with a full recompute.
    exact = True

    def bind(self, net_names: Sequence[str]) -> None:
        """Called once by the cache with the net order (hook for subclasses)."""

    def net_cost(self, index: int, dx: float, dy: float) -> float:
        return dx + dy


class TimingObjective(WirelengthObjective):
    """Blend wirelength with criticality-weighted bounding-box delay.

    ``cost = (1 - tradeoff) * (dx + dy) + tradeoff * crit * delay_norm`` where
    ``delay_norm`` is the net's bounding-box delay estimate normalised by the
    wire-segment delay, keeping both terms in HPWL units.  ``criticalities``
    come from :class:`repro.cad.timing.TimingEngine`; the delay parameters
    are passed as plain numbers so this module needs no timing import.
    """

    exact = False

    def __init__(
        self,
        criticalities: Mapping[str, float],
        tradeoff: float = 0.5,
        wire_segment_delay_ps: int = 80,
        switch_delay_ps: int = 20,
        cbox_delay_ps: int = 30,
    ) -> None:
        if not 0.0 <= tradeoff <= 1.0:
            raise ValueError(f"tradeoff must be in [0, 1], got {tradeoff}")
        self.criticalities = dict(criticalities)
        self.tradeoff = tradeoff
        wire = float(wire_segment_delay_ps)
        # bbox delay of a net spanning s hops ~ 2*cbox + (s+1)*wire + s*switch
        # (repro.cad.timing.TimingModel.bbox_net_delay), normalised by wire.
        self._per_hop = (wire_segment_delay_ps + switch_delay_ps) / wire
        self._base = (2 * cbox_delay_ps + wire_segment_delay_ps) / wire
        self._crit: list[float] = []

    def bind(self, net_names: Sequence[str]) -> None:
        self._crit = [self.criticalities.get(net, 0.0) for net in net_names]

    def net_cost(self, index: int, dx: float, dy: float) -> float:
        span = dx + dy
        crit = self._crit[index]
        return (1.0 - self.tradeoff) * span + self.tradeoff * crit * (
            self._base + span * self._per_hop
        )


#: Per-net bounding box: extremes plus how many terminals sit on each extreme
#: (the occupancy counts that make shrinking moves detectable in O(1)).
#: ``None`` marks nets with fewer than two positioned terminals (cost 0).
_Box = list  # [xmin, xmax, ymin, ymax, n_xmin, n_xmax, n_ymin, n_ymax]


class NetCostCache:
    """Per-net costs with delta evaluation for annealing moves.

    The cache holds live references to the caller's ``plb_sites`` and
    ``io_positions`` dicts.  Two proposal paths exist:

    * :meth:`propose` (the original API) re-scans every affected net's
      terminals against the already-mutated position dicts;
    * :meth:`propose_moves` takes the moved terminals' old/new coordinates
      and updates each affected net's bounding box **incrementally** — a full
      terminal scan only happens when a terminal moves off a box edge it
      alone occupied.

    Either way the new per-net costs are held pending until :meth:`commit`
    or :meth:`reject`; :attr:`total` is unchanged until then.

    Under the default :class:`WirelengthObjective` all terminal coordinates
    are integer-valued, so per-net costs and the running :attr:`total` are
    exact floats: ``total`` equals a full recompute at every step, not just
    approximately.
    """

    def __init__(
        self,
        nets: dict[str, list[str]],
        plb_sites: dict[str, tuple[int, int]],
        io_positions: dict[str, tuple[float, float]],
        objective: WirelengthObjective | None = None,
    ) -> None:
        self.nets = nets
        self.net_names: list[str] = list(nets.keys())
        self.terminals: list[list[str]] = list(nets.values())
        self.plb_sites = plb_sites
        self.io_positions = io_positions
        self.objective = objective if objective is not None else WirelengthObjective()
        self.objective.bind(self.net_names)
        buckets: dict[str, list[int]] = {}
        for index, terminals in enumerate(self.terminals):
            for terminal in terminals:
                buckets.setdefault(terminal, []).append(index)
        self._nets_of: dict[str, tuple[int, ...]] = {
            terminal: tuple(indices) for terminal, indices in buckets.items()
        }
        self.evaluations = 0
        self.bbox_updates = 0
        self.boxes: list[_Box | None] = [
            self._scan_box(index) for index in range(len(self.terminals))
        ]
        self.costs: list[float] = [
            self._box_cost(index, box) for index, box in enumerate(self.boxes)
        ]
        self.total: float = sum(self.costs)
        self._pending: list[tuple[int, _Box | None, float]] = []

    @property
    def net_count(self) -> int:
        return len(self.terminals)

    def nets_of(self, *terminals: str) -> list[int]:
        """Indices of the nets touching any of *terminals* (stable, deduped)."""
        if len(terminals) == 1:
            return list(self._nets_of.get(terminals[0], ()))
        seen: set[int] = set()
        affected: list[int] = []
        for terminal in terminals:
            for index in self._nets_of.get(terminal, ()):
                if index not in seen:
                    seen.add(index)
                    affected.append(index)
        return affected

    # ------------------------------------------------------------------
    # Bounding boxes
    # ------------------------------------------------------------------
    def _term_position(self, terminal: str) -> tuple[float, float] | None:
        if terminal.startswith("io:"):
            return self.io_positions.get(terminal[3:])
        x, y = self.plb_sites[terminal]
        return (float(x), float(y))

    def _scan_box(self, index: int) -> _Box | None:
        """Full terminal scan of one net (the costly path the counts avoid)."""
        self.evaluations += 1
        xs: list[float] = []
        ys: list[float] = []
        for terminal in self.terminals[index]:
            position = self._term_position(terminal)
            if position is None:
                continue
            xs.append(position[0])
            ys.append(position[1])
        if len(xs) < 2:
            return None
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        return [
            xmin,
            xmax,
            ymin,
            ymax,
            xs.count(xmin),
            xs.count(xmax),
            ys.count(ymin),
            ys.count(ymax),
        ]

    def _box_cost(self, index: int, box: _Box | None) -> float:
        if box is None:
            return 0.0
        return self.objective.net_cost(index, box[1] - box[0], box[3] - box[2])

    @staticmethod
    def _shift_axis(box: _Box, low: int, high: int, old: float, new: float) -> bool:
        """Move one terminal's coordinate on one axis; ``False`` needs a rescan.

        ``low``/``high`` index the extreme slots (counts sit 4 positions
        later).  Removing the old coordinate first, then inserting the new
        one, keeps the counts exact; the only unresolvable case is removing
        the last terminal from an extreme, which requires finding the
        runner-up — that is the full-rescan path.
        """
        if new == old:
            return True
        # Remove the old coordinate.
        if old == box[low]:
            if box[low + 4] == 1:
                return False
            box[low + 4] -= 1
        if old == box[high]:
            if box[high + 4] == 1:
                return False
            box[high + 4] -= 1
        # Insert the new coordinate.
        if new < box[low]:
            box[low] = new
            box[low + 4] = 1
        elif new == box[low]:
            box[low + 4] += 1
        if new > box[high]:
            box[high] = new
            box[high + 4] = 1
        elif new == box[high]:
            box[high + 4] += 1
        return True

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def propose(self, affected: Iterable[int]) -> float:
        """Cost delta of re-scanning *affected* nets against mutated positions."""
        pending = [
            (index, box, self._box_cost(index, box))
            for index, box in ((index, self._scan_box(index)) for index in affected)
        ]
        self._pending = pending
        return sum(cost for _index, _box, cost in pending) - sum(
            self.costs[index] for index, _box, _cost in pending
        )

    def propose_moves(
        self, moves: Sequence[tuple[str, tuple[float, float], tuple[float, float]]]
    ) -> float:
        """Cost delta of moving terminals ``(terminal, old_xy, new_xy)``.

        Bounding boxes are updated incrementally from the coordinate change;
        the position dicts must already reflect the new coordinates (they are
        only consulted when an update degenerates into a rescan).
        """
        pending_boxes: dict[int, _Box | None] = {}
        order: list[int] = []
        # Nets whose pending box came from a full rescan: the scan read the
        # *final* (already fully mutated) positions, so later moves touching
        # the same net are already folded in and must not re-apply.
        final: set[int] = set()
        for terminal, old, new in moves:
            for index in self._nets_of.get(terminal, ()):
                if index in final:
                    continue
                if index in pending_boxes:
                    base = pending_boxes[index]
                else:
                    base = self.boxes[index]
                    order.append(index)
                if base is None:
                    pending_boxes[index] = self._scan_box(index)
                    final.add(index)
                    continue
                candidate = list(base)
                if self._shift_axis(candidate, 0, 1, old[0], new[0]) and self._shift_axis(
                    candidate, 2, 3, old[1], new[1]
                ):
                    self.bbox_updates += 1
                    pending_boxes[index] = candidate
                else:
                    pending_boxes[index] = self._scan_box(index)
                    final.add(index)
        pending = [
            (index, pending_boxes[index], self._box_cost(index, pending_boxes[index]))
            for index in order
        ]
        self._pending = pending
        return sum(cost for _index, _box, cost in pending) - sum(
            self.costs[index] for index, _box, _cost in pending
        )

    def commit(self) -> None:
        """Fold the pending per-net costs into the cache and the total."""
        for index, box, cost in self._pending:
            self.total += cost - self.costs[index]
            self.costs[index] = cost
            self.boxes[index] = box
        self._pending = []

    def reject(self) -> None:
        """Drop the pending evaluation (caller has reverted the positions)."""
        self._pending = []

    # ------------------------------------------------------------------
    # Reference recomputes (audits / tests)
    # ------------------------------------------------------------------
    def full_recompute(self) -> float:
        """The objective summed from fresh terminal scans (no state change)."""
        total = 0.0
        for index in range(len(self.terminals)):
            xs: list[float] = []
            ys: list[float] = []
            for terminal in self.terminals[index]:
                position = self._term_position(terminal)
                if position is None:
                    continue
                xs.append(position[0])
                ys.append(position[1])
            if len(xs) >= 2:
                total += self.objective.net_cost(
                    index, max(xs) - min(xs), max(ys) - min(ys)
                )
        return total

    def wirelength(self) -> float:
        """Pure HPWL over the current positions, whatever the objective."""
        return _hpwl(self.nets, self.plb_sites, self.io_positions)

    def audit_matches(self) -> bool:
        """Whether :attr:`total` matches a full recompute (exact when possible)."""
        reference = self.full_recompute()
        if self.objective.exact:
            return self.total == reference
        return math.isclose(self.total, reference, rel_tol=1e-9, abs_tol=1e-6)


#: Backwards-compatible name: the original HPWL-only cache is the generic
#: cache under its default objective.
HpwlCache = NetCostCache


class FlatNetCostCache(NetCostCache):
    """:class:`NetCostCache` over flat per-terminal coordinate lists.

    Semantics, counters and float results are those of the base class, bit
    for bit; only the data layout of the anneal's hot path differs:

    * every terminal gets an integer id; per-net terminal-id rows and flat
      ``x``/``y`` coordinate lists replace name-keyed dict lookups in the
      bounding-box scan (the anneal's hottest function);
    * a per-terminal-id net index replaces the name-keyed ``_nets_of`` dict
      in the propose path;
    * under the plain HPWL objective, :meth:`propose_moves` runs one fused
      loop over generation-stamped per-net slots instead of building a
      pending dict per proposal.

    Coordinates are integer-valued doubles well below 2**53, so every min,
    max and sum here is exact in any evaluation order, which is what keeps
    the fused delta equal to the base class's.  Other objectives keep the
    base propose/commit and get only the flat :meth:`_scan_box`.
    """

    def __init__(
        self,
        nets: dict[str, list[str]],
        plb_sites: dict[str, tuple[int, int]],
        io_positions: dict[str, tuple[float, float]],
        objective: WirelengthObjective | None = None,
    ) -> None:
        # Flat terminal structures must exist before the base constructor
        # runs: it builds the initial boxes through our _scan_box override.
        self.plb_sites = plb_sites
        self.io_positions = io_positions
        tid_of: dict[str, int] = {}
        names: list[str] = []
        term_tids: list[list[int]] = []
        for terminals in nets.values():
            row: list[int] = []
            for terminal in terminals:
                tid = tid_of.get(terminal)
                if tid is None:
                    tid = len(names)
                    tid_of[terminal] = tid
                    names.append(terminal)
                row.append(tid)
            term_tids.append(row)
        self._tid_of = tid_of
        self._tid_names = names
        self._io_net = [
            name[3:] if name.startswith("io:") else None for name in names
        ]
        self._term_tids = term_tids
        count = len(names)
        self._pos_x: list[float | None] = [None] * count
        self._pos_y: list[float | None] = [None] * count
        for tid in range(count):
            self._refresh_tid(tid)
        nets_of_tid: list[list[int]] = [[] for _ in range(count)]
        for index, row in enumerate(term_tids):
            for tid in row:
                nets_of_tid[tid].append(index)
        self._nets_of_tid: list[tuple[int, ...]] = [
            tuple(indices) for indices in nets_of_tid
        ]
        # Per-net (a, b) terminal pair for two-terminal nets (None for
        # larger nets): the propose loop's dominant branch keys off it
        # without re-measuring the terminal row.
        self._two_pin: list[tuple[int, int] | None] = [
            (row[0], row[1]) if len(row) == 2 else None for row in term_tids
        ]
        self._pos_undo: list[tuple[int, float | None, float | None]] = []
        # Generation-stamped proposal slots: ``_slot_gen[i] == _prop_gen``
        # means net ``i`` was touched by the current proposal and its
        # working box lives in ``_slot_box[i]`` (``_slot_final`` marks
        # rescanned nets that take no further shifts).  Stamping avoids
        # allocating a dict + set per proposal on the anneal hot path.
        net_count = len(term_tids)
        self._prop_gen = 0
        self._slot_gen = [0] * net_count
        self._slot_final = [0] * net_count
        self._slot_box: list[list | None] = [None] * net_count
        self._fold_gen = [0] * net_count
        self._plan: list[tuple[int, tuple[float, float], tuple[float, float]]] | None = None
        self._plain = objective is None or type(objective) is WirelengthObjective
        super().__init__(nets, plb_sites, io_positions, objective=objective)

    # ------------------------------------------------------------------
    # Flat-coordinate maintenance
    # ------------------------------------------------------------------
    def _refresh_tid(self, tid: int) -> None:
        """Re-read one terminal's coordinates from the caller's dicts."""
        io_net = self._io_net[tid]
        if io_net is not None:
            position = self.io_positions.get(io_net)
            if position is None:
                self._pos_x[tid] = None
                self._pos_y[tid] = None
            else:
                self._pos_x[tid] = position[0]
                self._pos_y[tid] = position[1]
        else:
            x, y = self.plb_sites[self._tid_names[tid]]
            self._pos_x[tid] = float(x)
            self._pos_y[tid] = float(y)

    # ------------------------------------------------------------------
    # Hot-path overrides (same counters, same floats, flat lookups)
    # ------------------------------------------------------------------
    def _scan_box(self, index: int):
        self.evaluations += 1
        px = self._pos_x
        py = self._pos_y
        row = self._term_tids[index]
        if len(row) == 2:
            # Two-terminal nets dominate the netlists and always rescan
            # (either terminal is an extreme), so they get a branch-only
            # path: no intermediate lists, no count() passes.
            tid_a, tid_b = row
            x_a = px[tid_a]
            x_b = px[tid_b]
            if x_a is None or x_b is None:
                return None
            y_a = py[tid_a]
            y_b = py[tid_b]
            if x_a < x_b:
                xmin, xmax, cxmin, cxmax = x_a, x_b, 1, 1
            elif x_b < x_a:
                xmin, xmax, cxmin, cxmax = x_b, x_a, 1, 1
            else:
                xmin = xmax = x_a
                cxmin = cxmax = 2
            if y_a < y_b:
                ymin, ymax, cymin, cymax = y_a, y_b, 1, 1
            elif y_b < y_a:
                ymin, ymax, cymin, cymax = y_b, y_a, 1, 1
            else:
                ymin = ymax = y_a
                cymin = cymax = 2
            return [xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax]
        if len(row) == 3:
            # Unrolled three-terminal scan: no intermediate lists, counts
            # as boolean sums (same float equality as list.count).
            tid_a, tid_b, tid_c = row
            x_a = px[tid_a]
            x_b = px[tid_b]
            x_c = px[tid_c]
            if x_a is not None and x_b is not None and x_c is not None:
                y_a = py[tid_a]
                y_b = py[tid_b]
                y_c = py[tid_c]
                xmin = x_b if x_b < x_a else x_a
                if x_c < xmin:
                    xmin = x_c
                xmax = x_b if x_b > x_a else x_a
                if x_c > xmax:
                    xmax = x_c
                ymin = y_b if y_b < y_a else y_a
                if y_c < ymin:
                    ymin = y_c
                ymax = y_b if y_b > y_a else y_a
                if y_c > ymax:
                    ymax = y_c
                return [
                    xmin,
                    xmax,
                    ymin,
                    ymax,
                    (x_a == xmin) + (x_b == xmin) + (x_c == xmin),
                    (x_a == xmax) + (x_b == xmax) + (x_c == xmax),
                    (y_a == ymin) + (y_b == ymin) + (y_c == ymin),
                    (y_a == ymax) + (y_b == ymax) + (y_c == ymax),
                ]
        if len(row) == 4:
            tid_a, tid_b, tid_c, tid_d = row
            x_a = px[tid_a]
            x_b = px[tid_b]
            x_c = px[tid_c]
            x_d = px[tid_d]
            if (
                x_a is not None
                and x_b is not None
                and x_c is not None
                and x_d is not None
            ):
                y_a = py[tid_a]
                y_b = py[tid_b]
                y_c = py[tid_c]
                y_d = py[tid_d]
                xmin = x_b if x_b < x_a else x_a
                if x_c < xmin:
                    xmin = x_c
                if x_d < xmin:
                    xmin = x_d
                xmax = x_b if x_b > x_a else x_a
                if x_c > xmax:
                    xmax = x_c
                if x_d > xmax:
                    xmax = x_d
                ymin = y_b if y_b < y_a else y_a
                if y_c < ymin:
                    ymin = y_c
                if y_d < ymin:
                    ymin = y_d
                ymax = y_b if y_b > y_a else y_a
                if y_c > ymax:
                    ymax = y_c
                if y_d > ymax:
                    ymax = y_d
                return [
                    xmin,
                    xmax,
                    ymin,
                    ymax,
                    (x_a == xmin) + (x_b == xmin) + (x_c == xmin) + (x_d == xmin),
                    (x_a == xmax) + (x_b == xmax) + (x_c == xmax) + (x_d == xmax),
                    (y_a == ymin) + (y_b == ymin) + (y_c == ymin) + (y_d == ymin),
                    (y_a == ymax) + (y_b == ymax) + (y_c == ymax) + (y_d == ymax),
                ]
        xs = [px[tid] for tid in row]
        if None in xs:
            positioned = [tid for tid in row if px[tid] is not None]
            xs = [px[tid] for tid in positioned]
            ys = [py[tid] for tid in positioned]
        else:
            ys = [py[tid] for tid in row]
        if len(xs) < 2:
            return None
        xmin = min(xs)
        xmax = max(xs)
        ymin = min(ys)
        ymax = max(ys)
        return [
            xmin,
            xmax,
            ymin,
            ymax,
            xs.count(xmin),
            xs.count(xmax),
            ys.count(ymin),
            ys.count(ymax),
        ]

    def propose(self, affected: Iterable[int]) -> float:
        affected = list(affected)
        self._plan = None
        undo = []
        seen: set[int] = set()
        for index in affected:
            for tid in self._term_tids[index]:
                if tid in seen:
                    continue
                seen.add(tid)
                undo.append((tid, self._pos_x[tid], self._pos_y[tid]))
                self._refresh_tid(tid)
        self._pos_undo = undo
        return super().propose(affected)

    def propose_moves(
        self, moves: Sequence[tuple[str, tuple[float, float], tuple[float, float]]]
    ) -> float:
        px = self._pos_x
        py = self._pos_y
        undo = []
        plan: list[tuple[int, tuple[float, float], tuple[float, float]]] = []
        moved: set[int] = set()
        for terminal, old, new in moves:
            tid = self._tid_of.get(terminal)
            if tid is None:
                continue
            undo.append((tid, px[tid], py[tid]))
            # Apply every coordinate before any box work: a rescan must see
            # the final positions (the reference reads the mutated dicts).
            px[tid] = new[0]
            py[tid] = new[1]
            plan.append((tid, old, new))
            moved.add(tid)
        self._pos_undo = undo

        # ``order`` preserves the reference's first-touch order; the
        # stamped slot arrays carry the working boxes (see __init__).
        if not self._plain:
            # General objectives keep the reference propose/commit (same
            # dict-order float summation); they still get the flat-array
            # _scan_box.  Only the exact plain-HPWL path takes the fused
            # loop below.
            return super().propose_moves(moves)

        gen = self._prop_gen + 1
        self._prop_gen = gen
        slot_gen = self._slot_gen
        slot_final = self._slot_final
        slot_box = self._slot_box
        nets_of_tid = self._nets_of_tid
        two_pin = self._two_pin
        boxes = self.boxes
        costs = self.costs
        scan = self._scan_box
        bbox_hits = 0
        fast_evals = 0
        # Every cost here is an integer-valued double (see the module
        # docstring), so accumulating ``delta += new - prev`` per store —
        # re-stores subtracting their earlier contribution — is exact and
        # equals the reference's ordered (new_sum - old_sum).  ``commit``
        # replays ``plan`` to fold the slot boxes in.
        self._plan = plan
        delta = 0.0
        for tid, old, new in plan:
            old_x, old_y = old
            new_x, new_y = new
            for index in nets_of_tid[tid]:
                if slot_gen[index] == gen:
                    if slot_final[index] == gen:
                        continue
                    base = slot_box[index]
                    prev = (base[1] - base[0]) + (base[3] - base[2])
                else:
                    slot_gen[index] = gen
                    base = boxes[index]
                    prev = costs[index]
                    if base is None:
                        box = scan(index)
                        slot_box[index] = box
                        slot_final[index] = gen
                        if box is not None:
                            delta += (box[1] - box[0]) + (box[3] - box[2]) - prev
                        else:
                            delta -= prev
                        continue
                pair = two_pin[index]
                if pair is not None:
                    tid_a, tid_b = pair
                    other = tid_b if tid_a == tid else tid_a
                    if other not in moved:
                        # Fast path for the dominant case: a two-terminal
                        # net whose other endpoint did not move.  The new
                        # box is the two-point box of (new, other) however
                        # the reference gets there; only the counter
                        # differs — an axis shift succeeds exactly when
                        # that axis did not move or the old box was
                        # degenerate on it (both-shift success is a
                        # ``bbox_updates``, anything else is a rescan).
                        other_x = px[other]
                        other_y = py[other]
                        if (new_x == old_x or old_x == other_x) and (
                            new_y == old_y or old_y == other_y
                        ):
                            bbox_hits += 1
                        else:
                            fast_evals += 1
                        if new_x < other_x:
                            xmin, xmax, cxmin, cxmax = new_x, other_x, 1, 1
                        elif other_x < new_x:
                            xmin, xmax, cxmin, cxmax = other_x, new_x, 1, 1
                        else:
                            xmin = xmax = new_x
                            cxmin = cxmax = 2
                        if new_y < other_y:
                            ymin, ymax, cymin, cymax = new_y, other_y, 1, 1
                        elif other_y < new_y:
                            ymin, ymax, cymin, cymax = other_y, new_y, 1, 1
                        else:
                            ymin = ymax = new_y
                            cymin = cymax = 2
                        slot_box[index] = [
                            xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax,
                        ]
                        delta += (xmax - xmin) + (ymax - ymin) - prev
                        continue
                # Both-axis bbox shift, inlined from the reference
                # NetCostCache._shift_axis (x axis first, short-circuit on
                # the unresolvable remove-last-extreme case).
                b0, b1, b2, b3, c0, c1, c2, c3 = base
                ok = True
                if new_x != old_x:
                    if old_x == b0:
                        if c0 == 1:
                            ok = False
                        else:
                            c0 -= 1
                    if ok:
                        if old_x == b1:
                            if c1 == 1:
                                ok = False
                            else:
                                c1 -= 1
                        if ok:
                            if new_x < b0:
                                b0 = new_x
                                c0 = 1
                            elif new_x == b0:
                                c0 += 1
                            if new_x > b1:
                                b1 = new_x
                                c1 = 1
                            elif new_x == b1:
                                c1 += 1
                if ok and new_y != old_y:
                    if old_y == b2:
                        if c2 == 1:
                            ok = False
                        else:
                            c2 -= 1
                    if ok:
                        if old_y == b3:
                            if c3 == 1:
                                ok = False
                            else:
                                c3 -= 1
                        if ok:
                            if new_y < b2:
                                b2 = new_y
                                c2 = 1
                            elif new_y == b2:
                                c2 += 1
                            if new_y > b3:
                                b3 = new_y
                                c3 = 1
                            elif new_y == b3:
                                c3 += 1
                if ok:
                    bbox_hits += 1
                    slot_box[index] = [b0, b1, b2, b3, c0, c1, c2, c3]
                    delta += (b1 - b0) + (b3 - b2) - prev
                else:
                    box = scan(index)
                    slot_box[index] = box
                    slot_final[index] = gen
                    if box is not None:
                        delta += (box[1] - box[0]) + (box[3] - box[2]) - prev
                    else:
                        delta -= prev
        self.bbox_updates += bbox_hits
        self.evaluations += fast_evals
        return delta

    def commit(self) -> None:
        self._pos_undo = []
        plan = self._plan
        if plan is not None:
            # Replay the plan to find the touched nets (first-touch order,
            # deduplicated by the fold stamp — same order, same exact
            # floats as the reference's pending-list fold).
            self._plan = None
            gen = self._prop_gen
            fold_gen = self._fold_gen
            slot_box = self._slot_box
            nets_of_tid = self._nets_of_tid
            boxes = self.boxes
            costs = self.costs
            total = self.total
            for tid, _old, _new in plan:
                for index in nets_of_tid[tid]:
                    if fold_gen[index] == gen:
                        continue
                    fold_gen[index] = gen
                    box = slot_box[index]
                    boxes[index] = box
                    cost = (
                        0.0 if box is None else (box[1] - box[0]) + (box[3] - box[2])
                    )
                    total += cost - costs[index]
                    costs[index] = cost
            self.total = total
        super().commit()

    def reject(self) -> None:
        for tid, x, y in self._pos_undo:
            self._pos_x[tid] = x
            self._pos_y[tid] = y
        self._pos_undo = []
        self._plan = None
        self._pending = []  # the base reject, inlined (hot on rejected moves)


class _FreeList:
    """An O(1) pick/remove/add pool (list + index map, swap-pop removal)."""

    def __init__(self, items: Iterable[object], key=lambda item: item) -> None:
        self.items = list(items)
        self._key = key
        self._index = {key(item): position for position, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def take(self, item: object) -> None:
        position = self._index.pop(self._key(item))
        last = self.items.pop()
        if position < len(self.items):
            self.items[position] = last
            self._index[self._key(last)] = position

    def add(self, item: object) -> None:
        self._index[self._key(item)] = len(self.items)
        self.items.append(item)


def place_design(
    design: MappedDesign,
    fabric: Fabric,
    seed: int = 1,
    effort: float = 1.0,
    audit_interval: int = 0,
    objective: WirelengthObjective | None = None,
    initial: Placement | None = None,
    temperature_factor: float = 0.2,
) -> Placement:
    """Place a packed design on *fabric* with simulated annealing.

    Parameters
    ----------
    seed:
        RNG seed (placement is deterministic for a given seed).
    effort:
        Scales the number of annealing moves (1.0 is the default schedule).
    audit_interval:
        When ``> 0``, assert every N proposed moves that the incremental
        cost cache equals a full recompute (tests/debugging; the default
        skips the O(nets) audit entirely).
    objective:
        The per-net cost (default: pure HPWL).  The timing-driven flow
        passes a :class:`TimingObjective` built from the timing engine's
        criticalities.
    initial:
        Warm-start the anneal from this placement instead of a random one
        (must cover exactly this design on this fabric).  Combined with a
        small *temperature_factor* and reduced *effort* this is the
        timing-driven flow's **polish** pass: it nudges an already-good
        layout toward the blended objective without tearing it up.
    temperature_factor:
        The starting temperature as a fraction of the initial cost (0.2 is
        the classic full-anneal schedule; polish passes use ~0.02).
    """
    if not design.plbs:
        raise PlacementError("design has no packed PLBs; run pack_design first")

    rng = random.Random(seed)
    sites = fabric.plb_sites()
    if len(design.plbs) > len(sites):
        raise PlacementError(
            f"design needs {len(design.plbs)} PLBs but the fabric only has {len(sites)}"
        )

    io_nets = list(design.primary_inputs) + [
        net for net in design.primary_outputs if net not in design.primary_inputs
    ]
    pads = fabric.io_pads()
    if len(io_nets) > len(pads):
        raise PlacementError(
            f"design needs {len(io_nets)} IO pads but the fabric only has {len(pads)}"
        )

    if initial is not None:
        if not initial.matches_design(design, fabric):
            raise PlacementError(
                "initial placement does not cover this design on this fabric"
            )
        plb_sites = dict(initial.plb_sites)
        pads_by_name = {pad.name: pad for pad in pads}
        io_sites = {net: pads_by_name[pad.name] for net, pad in initial.io_sites.items()}
    else:
        # Initial placement: PLBs on shuffled sites, IOs round-robin over the pads.
        shuffled_sites = list(sites)
        rng.shuffle(shuffled_sites)
        plb_sites = {
            plb.name: shuffled_sites[index] for index, plb in enumerate(design.plbs)
        }
        io_sites = {net: pads[index] for index, net in enumerate(io_nets)}
    io_positions = {net: _pad_position(pad, fabric) for net, pad in io_sites.items()}

    cache = FlatNetCostCache(
        _build_net_terminals(design), plb_sites, io_positions, objective=objective
    )
    initial_cost = cache.total

    moves = max(200, int(effort * 100 * (len(design.plbs) + len(io_nets)) ** 1.3))
    temperature = max(1.0, cache.total * temperature_factor)
    plb_names = [plb.name for plb in design.plbs]

    occupied = set(plb_sites.values())
    free_sites = _FreeList(site for site in sites if site not in occupied)
    used_pad_names = {pad.name for pad in io_sites.values()}
    free_pads = _FreeList(
        (pad for pad in pads if pad.name not in used_pad_names),
        key=lambda pad: pad.name,
    )

    iterations = 0
    moves_accepted = 0
    inv_temperature = 1.0 / temperature

    # Site coordinates as floats, precomputed once (the anneal reads them
    # on every PLB move); hot callables hoisted to locals for the loop.
    # ``randbelow`` draws exactly like ``rng.choice`` does internally
    # (``seq[rng._randbelow(len(seq))]``), keeping the pick sequence
    # byte-identical while skipping the wrapper frame.
    pos_of = {site: (float(site[0]), float(site[1])) for site in sites}
    rng_random = rng.random
    randbelow = rng._randbelow
    exp = math.exp
    propose_moves = cache.propose_moves
    cache_commit = cache.commit
    cache_reject = cache.reject

    while iterations < moves:
        batch = min(TEMPERATURE_BATCH, moves - iterations)
        temperature = max(temperature * COOLING_RATE ** batch, MIN_TEMPERATURE)
        inv_temperature = 1.0 / temperature
        for _ in range(batch):
            iterations += 1
            if audit_interval > 0 and iterations % audit_interval == 0:
                assert cache.audit_matches(), (
                    f"incremental cost drifted at move {iterations}: "
                    f"cached {cache.total} != full {cache.full_recompute()}"
                )
            if rng_random() < 0.7 and plb_names:
                # Move or swap a PLB.
                name = plb_names[randbelow(len(plb_names))]
                old_site = plb_sites[name]
                if free_sites.items and rng_random() < 0.5:
                    items = free_sites.items
                    new_site = items[randbelow(len(items))]
                    plb_sites[name] = new_site
                    delta = propose_moves(
                        [(name, pos_of[old_site], pos_of[new_site])]
                    )
                    # Metropolis criterion at the current batch temperature
                    # (inlined at each proposal site below).
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                        free_sites.take(new_site)
                        free_sites.add(old_site)
                    else:
                        cache_reject()
                        plb_sites[name] = old_site
                else:
                    other = plb_names[randbelow(len(plb_names))]
                    if other == name:
                        continue
                    other_site = plb_sites[other]
                    plb_sites[name], plb_sites[other] = other_site, old_site
                    delta = propose_moves(
                        [
                            (name, pos_of[old_site], pos_of[other_site]),
                            (other, pos_of[other_site], pos_of[old_site]),
                        ]
                    )
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                    else:
                        cache_reject()
                        plb_sites[name], plb_sites[other] = old_site, other_site
            else:
                # Swap two IO pads (or move one to a free pad).
                if not io_nets:
                    continue
                net = io_nets[randbelow(len(io_nets))]
                if free_pads.items and rng_random() < 0.6:
                    old_pad = io_sites[net]
                    old_position = io_positions[net]
                    items = free_pads.items
                    new_pad = items[randbelow(len(items))]
                    new_position = _pad_position(new_pad, fabric)
                    io_sites[net] = new_pad
                    io_positions[net] = new_position
                    delta = propose_moves([(f"io:{net}", old_position, new_position)])
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                        free_pads.take(new_pad)
                        free_pads.add(old_pad)
                    else:
                        cache_reject()
                        io_sites[net] = old_pad
                        io_positions[net] = old_position
                else:
                    other = io_nets[randbelow(len(io_nets))]
                    if other == net:
                        continue
                    net_position = io_positions[net]
                    other_position = io_positions[other]
                    io_sites[net], io_sites[other] = io_sites[other], io_sites[net]
                    io_positions[net] = other_position
                    io_positions[other] = net_position
                    delta = propose_moves(
                        [
                            (f"io:{net}", net_position, other_position),
                            (f"io:{other}", other_position, net_position),
                        ]
                    )
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                    else:
                        cache_reject()
                        io_sites[net], io_sites[other] = io_sites[other], io_sites[net]
                        io_positions[net] = net_position
                        io_positions[other] = other_position

    return Placement(
        plb_sites=dict(plb_sites),
        io_sites=dict(io_sites),
        cost=cache.total,
        iterations=iterations,
        initial_cost=initial_cost,
        moves_accepted=moves_accepted,
        net_evaluations=cache.evaluations,
        net_count=cache.net_count,
        wirelength=cache.wirelength(),
        bbox_updates=cache.bbox_updates,
    )

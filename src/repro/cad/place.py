"""Placement: assigning packed PLBs to fabric sites and primary IOs to pads.

The placer is a classic simulated-annealing engine over a **pluggable per-net
cost** of the inter-block nets:

* the default objective is pure half-perimeter wirelength (HPWL);
* :class:`TimingObjective` blends it with a criticality-weighted bounding-box
  delay — ``(1 - tradeoff) * hpwl + tradeoff * crit * bbox_delay`` — which is
  how the timing-driven flow pulls critical connections short.

Cost evaluation is **incremental** (VPR-style) on two levels.  One per-net
cost cache, :class:`NetCostCache`, gives every terminal an integer id and
keeps a terminal→nets index, so a move or swap re-prices only the nets
touching the moved terminals.  A net of two to four terminals is priced
straight from its members' live coordinates, as VPR prices the nets below
its ``SMALL_NET`` cut-off.  A net of five or more terminals updates its
bounding box *incrementally* from the moved terminal's old/new coordinates
(per-edge occupancy counts) and is only rescanned terminal-by-terminal
when a terminal moves off a bounding-box edge it alone defined.  The annealer
proposes moves by terminal id and site or pad index.  Site and pad
bookkeeping is O(1) per move (swap-pop free lists of indices), and the
acceptance test uses a per-batch precomputed inverse temperature.

Determinism: for a given seed the anneal draws one fixed RNG stream —
per-net costs are exact in the default objective (HPWL sums of integer-valued
coordinates, well below 2**53, so float addition is exact in any order) and
therefore the delta path accepts exactly the moves a full-recompute path
would.  The invariant ``NetCostCache.total == full recompute`` holds
throughout the anneal and is enforced by tests (and on demand via
``place_design(..., audit_interval=N)``).  Blended objectives multiply by
non-integer weights, so the cache sums their deltas and folds their totals
in one fixed order, and their audit uses a tight relative tolerance instead
of exact equality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.cad.lemap import MappedDesign
from repro.cad.pack import bind_pins
from repro.cad.timing import HOP_DELAY_PS, NET_BASE_DELAY_PS, WIRE_SEGMENT_DELAY_PS
from repro.core.fabric import Fabric, IOPad
from repro.core.schema import decoding, require_version

#: Schema version of :meth:`Placement.to_dict` payloads; no other version
#: is read.
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
    accepted ones, and ``net_evaluations`` every pricing of a net from its
    members' coordinates: the ``net_count`` scans of the initial sweep,
    each re-pricing of a net of two to four terminals and each rescan of a
    larger net's bounding box.  It is the incremental placer's headline
    counter: a full-recompute annealer would have spent ``iterations *
    net_count`` of them.  ``bbox_updates`` counts the O(1) box updates of
    nets of five or more terminals, each of which replaced a rescan.  A
    swap of two members of one net leaves that net's cost as it is and
    counts nothing for it.  ``cost`` is the final objective value (equal
    to ``wirelength`` under the default HPWL objective); ``wirelength`` is
    always the pure HPWL, whatever objective annealed.

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
        """Decode a :meth:`to_dict` payload; a missing key is corrupt."""
        require_version(data, "placement", PLACEMENT_SCHEMA)
        with decoding("placement"):
            return cls(
                plb_sites={
                    str(name): (int(site[0]), int(site[1]))
                    for name, site in dict(data["plb_sites"]).items()
                },
                io_sites={
                    str(net): IOPad(
                        side=str(pad["side"]),
                        position=int(pad["position"]),
                        index=int(pad["index"]),
                    )
                    for net, pad in dict(data["io_sites"]).items()
                },
                cost=float(data["cost"]),
                iterations=int(data["iterations"]),
                initial_cost=float(data["initial_cost"]),
                moves_accepted=int(data["moves_accepted"]),
                net_evaluations=int(data["net_evaluations"]),
                net_count=int(data["net_count"]),
                wirelength=float(data["wirelength"]),
                bbox_updates=int(data["bbox_updates"]),
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
    inputs/outputs.  Each net's driving and reading PLBs are the ones
    :func:`~repro.cad.pack.bind_pins` gives the router and the bitstream
    generator: the first reader, the driver, the other readers.
    """
    binding = bind_pins(design)
    terminals: dict[str, list[str]] = {}
    for net, readers in binding.consumers.items():
        driver = binding.drivers.get(net)
        terminals[net] = [readers[0], driver, *readers[1:]] if driver else list(readers)

    def add(net: str, terminal: str) -> None:
        bucket = terminals.setdefault(net, [])
        if terminal not in bucket:
            bucket.append(terminal)

    for net in design.primary_inputs:
        add(net, f"io:{net}")
    for net in design.primary_outputs:
        add(net, f"io:{net}")
        if net in binding.drivers:
            add(net, binding.drivers[net])

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


def _net_spans(
    nets: Mapping[str, Sequence[str]],
    plb_sites: Mapping[str, tuple[int, int]],
    io_positions: Mapping[str, tuple[float, float]],
) -> dict[str, float]:
    """Each net's half-perimeter ``dx + dy``, from a full scan of its terminals."""
    spans: dict[str, float] = {}
    for net, terminals in nets.items():
        xs: list[float] = []
        ys: list[float] = []
        for terminal in terminals:
            if terminal.startswith("io:"):
                x, y = io_positions[terminal[3:]]
            else:
                x, y = plb_sites[terminal]
            xs.append(float(x))
            ys.append(float(y))
        spans[net] = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return spans


def _hpwl(
    nets: Mapping[str, Sequence[str]],
    plb_sites: Mapping[str, tuple[int, int]],
    io_positions: Mapping[str, tuple[float, float]],
) -> float:
    """Full (non-incremental) HPWL: the reference the cache is audited against."""
    return sum(_net_spans(nets, plb_sites, io_positions).values(), 0.0)


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

    def blend(self) -> tuple[float, list[float], float, float] | None:
        """How the cache's fused loop prices a net of span ``s = dx + dy``.

        ``None`` prices it as ``s``; ``(scale, weights, base, per_hop)``
        prices net *i* as ``scale * s + weights[i] * (base + s * per_hop)``,
        which must equal :meth:`net_cost` bit for bit.
        """
        return None

    def net_cost(self, index: int, dx: float, dy: float) -> float:
        return dx + dy


class TimingObjective(WirelengthObjective):
    """Blend wirelength with criticality-weighted bounding-box delay.

    ``cost = (1 - tradeoff) * (dx + dy) + tradeoff * crit * delay_norm`` where
    ``delay_norm`` is the net's bounding-box delay estimate normalised by the
    wire-segment delay, keeping both terms in HPWL units.  ``criticalities``
    come from :class:`repro.cad.timing.TimingEngine`, the delays from that
    module's constants.
    """

    exact = False

    def __init__(
        self,
        criticalities: Mapping[str, float],
        tradeoff: float = 0.5,
    ) -> None:
        if not 0.0 <= tradeoff <= 1.0:
            raise ValueError(f"tradeoff must be in [0, 1], got {tradeoff}")
        self.criticalities = dict(criticalities)
        self.tradeoff = tradeoff
        # repro.cad.timing.bbox_net_delay's coefficients, normalised by wire.
        wire = float(WIRE_SEGMENT_DELAY_PS)
        self._per_hop = HOP_DELAY_PS / wire
        self._base = NET_BASE_DELAY_PS / wire
        self._crit: list[float] = []

    def bind(self, net_names: Sequence[str]) -> None:
        self._crit = [self.criticalities.get(net, 0.0) for net in net_names]

    def blend(self) -> tuple[float, list[float], float, float]:
        # ``tradeoff * crit * x`` multiplies left to right, so folding
        # ``tradeoff * crit`` per net keeps every product bit-identical.
        weights = [self.tradeoff * crit for crit in self._crit]
        return (1.0 - self.tradeoff, weights, self._base, self._per_hop)

    def net_cost(self, index: int, dx: float, dy: float) -> float:
        span = dx + dy
        crit = self._crit[index]
        return (1.0 - self.tradeoff) * span + self.tradeoff * crit * (
            self._base + span * self._per_hop
        )


#: Per-net bounding box of a net of five or more terminals: extremes plus how
#: many terminals sit on each extreme (the occupancy counts that make
#: shrinking moves detectable in O(1)).  Nets of two to four terminals keep
#: ``None``.
_Box = list  # [xmin, xmax, ymin, ymax, n_xmin, n_xmax, n_ymin, n_ymax]


def _shift_box(box: _Box, old_x: float, old_y: float, new_x: float, new_y: float):
    """*box* with one terminal moved, or ``None`` when it needs a rescan.

    Removing the old coordinate first, then inserting the new one, keeps the
    edge counts exact; the only unresolvable case is removing the last
    terminal from an extreme, which requires finding the runner-up.  The x
    axis goes first and a failure stops before the y axis.
    """
    b0, b1, b2, b3, c0, c1, c2, c3 = box
    if new_x != old_x:
        if old_x == b0:
            if c0 == 1:
                return None
            c0 -= 1
        if old_x == b1:
            if c1 == 1:
                return None
            c1 -= 1
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
    if new_y != old_y:
        if old_y == b2:
            if c2 == 1:
                return None
            c2 -= 1
        if old_y == b3:
            if c3 == 1:
                return None
            c3 -= 1
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
    return [b0, b1, b2, b3, c0, c1, c2, c3]


#: The pending proposal after a commit or reject: nothing to fold.
_NOTHING: tuple = ((), ())


class NetCostCache:
    """Per-net costs with delta evaluation for annealing moves.

    Every PLB of ``plb_sites`` and every IO net of ``io_positions`` (as
    ``io:<net>``) gets an integer *terminal id* (:attr:`tid_of`).  Each net
    must list at least two of them, each once; a net that does not, or that
    lists a terminal neither dict places, raises :class:`ValueError` naming
    the net.  The cache owns the coordinates from construction on: the two
    dicts are read once, and :attr:`x` / :attr:`y` are the live state.
    Moves are proposed by terminal id:

    * :meth:`propose_move` moves one terminal to new coordinates;
    * :meth:`propose_swap` exchanges two terminals' coordinates.

    Each runs one fused loop over the nets it touches.  A net of two to four
    terminals keeps no box: it is priced from its members' live
    coordinates, with one unrolled min/max per axis.  A net of five or more
    terminals keeps a bounding box that it updates **incrementally** from
    the moved terminal's old and new coordinates; it is rescanned only when
    a terminal leaves an extreme it alone occupied.  Each touched net is
    priced through the objective: its span (HPWL) by default, the blend of
    :meth:`WirelengthObjective.blend` otherwise.  A proposal applies its
    coordinates at once and keeps the new per-net costs and boxes pending:
    :meth:`commit` folds them in, :meth:`reject` restores the coordinates.
    :attr:`total` is unchanged until a commit.

    Float order: a delta is ``sum(new costs) - sum(old costs)`` over the
    touched nets in first-touch order, and :meth:`commit` folds
    ``total += new - old`` in that order.  Under the default objective every
    cost is an integer-valued float, so ``total`` equals a full recompute
    exactly at every step; blended costs are not, and this fixed order is
    what keeps their anneal reproducible.

    ``evaluations`` counts the nets priced from their members' coordinates:
    every net once at construction, then each pricing of a net of two to
    four terminals and each rescan of a box.  ``bbox_updates`` counts the
    incremental box updates.  A swap of two members of one net keeps that
    net's cost and box and counts nothing for it.
    """

    def __init__(
        self,
        nets: dict[str, list[str]],
        plb_sites: Mapping[str, tuple[int, int]],
        io_positions: Mapping[str, tuple[float, float]],
        objective: WirelengthObjective | None = None,
    ) -> None:
        self.net_names: list[str] = list(nets)
        self.objective = objective if objective is not None else WirelengthObjective()
        self.objective.bind(self.net_names)
        self._blend = self.objective.blend()
        self.tid_of: dict[str, int] = {}
        self.x: list[float] = []
        self.y: list[float] = []
        for name, site in plb_sites.items():
            self._add_terminal(name, site)
        for net, position in io_positions.items():
            self._add_terminal(f"io:{net}", position)
        self._rows: list[tuple[int, ...]] = []
        for name, terminals in nets.items():
            if len(terminals) < 2:
                raise ValueError(f"net {name!r} has fewer than two terminals")
            for terminal in terminals:
                if terminal not in self.tid_of:
                    raise ValueError(f"net {name!r} has an unplaced terminal {terminal!r}")
            row = tuple(self.tid_of[terminal] for terminal in terminals)
            if len(set(row)) < len(row):
                raise ValueError(f"net {name!r} lists a terminal twice")
            self._rows.append(row)
        # Per terminal id: ``(net index, other)`` for every net it is on, in
        # net order.  ``other`` is the other end of a two-terminal net, -1
        # on a net of five or more terminals, which keeps a box, and ``~k``
        # on a net of three or four, whose other members are
        # ``self._peers[k]``.
        links: list[list[tuple[int, int]]] = [[] for _ in self.x]
        self._peers: list[tuple[int, ...]] = [()]  # unused: ~0 is -1, a boxed net
        for index, row in enumerate(self._rows):
            for tid in row:
                if len(row) == 2:
                    other = row[1] if row[0] == tid else row[0]
                elif len(row) <= 4:
                    other = ~len(self._peers)
                    self._peers.append(tuple(peer for peer in row if peer != tid))
                else:
                    other = -1
                links[tid].append((index, other))
        self._links: list[tuple[tuple[int, int], ...]] = [tuple(each) for each in links]
        # The same nets as bare indices: a single move's first-touch order.
        self._nets_of = [tuple(index for index, _ in each) for each in links]
        self.boxes: list[_Box | None] = [
            self._scan_box(index) if len(row) > 4 else None
            for index, row in enumerate(self._rows)
        ]
        self.costs: list[float] = [
            self.objective.net_cost(index, *self._extent(index))
            for index in range(len(self._rows))
        ]
        self.total: float = sum(self.costs)
        # The initial sweep priced every net from its members.
        self.evaluations = len(self._rows)
        self.bbox_updates = 0
        # A proposal's box for each boxed net it touched (the others keep
        # None); commit copies them into ``boxes``.
        self._next_box: list[_Box | None] = [None] * len(self._rows)
        self._pending = _NOTHING
        self._undo: tuple = ()

    def _add_terminal(self, terminal: str, position) -> None:
        self.tid_of[terminal] = len(self.x)
        self.x.append(float(position[0]))
        self.y.append(float(position[1]))

    @property
    def net_count(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # Scans (initial pricing, rescans, the audit)
    # ------------------------------------------------------------------
    def _extent(self, index: int) -> tuple[float, float]:
        """One net's ``(dx, dy)`` from a full scan of its members."""
        row = self._rows[index]
        xs = [self.x[tid] for tid in row]
        ys = [self.y[tid] for tid in row]
        return max(xs) - min(xs), max(ys) - min(ys)

    def _scan_box(self, index: int) -> _Box:
        """One boxed net's box from a full scan (the costly path the counts avoid)."""
        row = self._rows[index]
        xs = [self.x[tid] for tid in row]
        ys = [self.y[tid] for tid in row]
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

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def propose_move(self, tid: int, x: float, y: float) -> float:
        """Cost delta of moving terminal *tid* to ``(x, y)``."""
        px = self.x
        py = self.y
        old_x = px[tid]
        old_y = py[tid]
        px[tid] = x
        py[tid] = y
        self._undo = ((tid, old_x, old_y),)
        boxes = self.boxes
        next_box = self._next_box
        peers_of = self._peers
        blend = self._blend
        if blend is not None:
            scale, weights, base, per_hop = blend
        new_costs: list[float] = []
        hits = 0
        evals = 0
        for index, other in self._links[tid]:
            if other >= 0:
                ox = px[other]
                oy = py[other]
                span = (x - ox if x > ox else ox - x) + (y - oy if y > oy else oy - y)
                evals += 1
            elif other == -1:
                box = _shift_box(boxes[index], old_x, old_y, x, y)
                if box is None:
                    box = self._scan_box(index)
                    evals += 1
                else:
                    hits += 1
                next_box[index] = box
                span = (box[1] - box[0]) + (box[3] - box[2])
            else:
                # Three or four terminals: the other members' range,
                # unrolled, with the moved one folded in.
                peers = peers_of[~other]
                if len(peers) == 2:
                    p, q = peers
                    r = -1
                else:
                    p, q, r = peers
                lo_x = px[p]
                hi_x = px[q]
                if lo_x > hi_x:
                    lo_x, hi_x = hi_x, lo_x
                lo_y = py[p]
                hi_y = py[q]
                if lo_y > hi_y:
                    lo_y, hi_y = hi_y, lo_y
                if r >= 0:
                    r_x = px[r]
                    if r_x < lo_x:
                        lo_x = r_x
                    elif r_x > hi_x:
                        hi_x = r_x
                    r_y = py[r]
                    if r_y < lo_y:
                        lo_y = r_y
                    elif r_y > hi_y:
                        hi_y = r_y
                span = ((x if x > hi_x else hi_x) - (x if x < lo_x else lo_x)) + (
                    (y if y > hi_y else hi_y) - (y if y < lo_y else lo_y)
                )
                evals += 1
            if blend is None:
                new_costs.append(span)
            else:
                new_costs.append(scale * span + weights[index] * (base + span * per_hop))
        self.bbox_updates += hits
        self.evaluations += evals
        nets = self._nets_of[tid]
        self._pending = (nets, new_costs)
        return sum(new_costs) - sum(map(self.costs.__getitem__, nets))

    def propose_swap(self, a: int, b: int) -> float:
        """Cost delta of exchanging the coordinates of distinct terminals *a* and *b*.

        *a*'s nets are priced first, then *b*'s others.  A net holding both
        keeps its cost and box, since the swap only permutes its members:
        it is listed at its old cost on *a*'s pass, so the delta sums in
        first-touch order as for a move, and counts nothing.
        """
        px = self.x
        py = self.y
        ax = px[a]
        ay = py[a]
        bx = px[b]
        by = py[b]
        px[a] = bx
        py[a] = by
        px[b] = ax
        py[b] = ay
        self._undo = ((a, ax, ay), (b, bx, by))
        rows = self._rows
        costs = self.costs
        boxes = self.boxes
        next_box = self._next_box
        peers_of = self._peers
        blend = self._blend
        if blend is not None:
            scale, weights, base, per_hop = blend
        nets: list[int] = []
        new_costs: list[float] = []
        hits = 0
        evals = 0
        for second, (tid, partner, old_x, old_y, x, y) in enumerate(
            ((a, b, ax, ay, bx, by), (b, a, bx, by, ax, ay))
        ):
            for index, other in self._links[tid]:
                if other == partner or (other < 0 and partner in rows[index]):
                    # It holds both: as it was, on a's pass only.
                    if not second:
                        nets.append(index)
                        new_costs.append(costs[index])
                        next_box[index] = boxes[index]
                    continue
                if other >= 0:
                    ox = px[other]
                    oy = py[other]
                    span = (x - ox if x > ox else ox - x) + (y - oy if y > oy else oy - y)
                    evals += 1
                elif other == -1:
                    box = _shift_box(boxes[index], old_x, old_y, x, y)
                    if box is None:
                        box = self._scan_box(index)
                        evals += 1
                    else:
                        hits += 1
                    next_box[index] = box
                    span = (box[1] - box[0]) + (box[3] - box[2])
                else:
                    peers = peers_of[~other]
                    if len(peers) == 2:
                        p, q = peers
                        r = -1
                    else:
                        p, q, r = peers
                    lo_x = px[p]
                    hi_x = px[q]
                    if lo_x > hi_x:
                        lo_x, hi_x = hi_x, lo_x
                    lo_y = py[p]
                    hi_y = py[q]
                    if lo_y > hi_y:
                        lo_y, hi_y = hi_y, lo_y
                    if r >= 0:
                        r_x = px[r]
                        if r_x < lo_x:
                            lo_x = r_x
                        elif r_x > hi_x:
                            hi_x = r_x
                        r_y = py[r]
                        if r_y < lo_y:
                            lo_y = r_y
                        elif r_y > hi_y:
                            hi_y = r_y
                    span = ((x if x > hi_x else hi_x) - (x if x < lo_x else lo_x)) + (
                        (y if y > hi_y else hi_y) - (y if y < lo_y else lo_y)
                    )
                    evals += 1
                nets.append(index)
                if blend is None:
                    new_costs.append(span)
                else:
                    new_costs.append(scale * span + weights[index] * (base + span * per_hop))
        self.bbox_updates += hits
        self.evaluations += evals
        self._pending = (nets, new_costs)
        return sum(new_costs) - sum(map(costs.__getitem__, nets))

    def commit(self) -> None:
        """Fold the pending per-net costs into the cache and the total."""
        nets, new_costs = self._pending
        costs = self.costs
        boxes = self.boxes
        next_box = self._next_box
        total = self.total
        for index, cost in zip(nets, new_costs):
            total += cost - costs[index]
            costs[index] = cost
            boxes[index] = next_box[index]
        self.total = total
        self._pending = _NOTHING
        self._undo = ()

    def reject(self) -> None:
        """Drop the pending proposal and restore the moved coordinates."""
        for tid, x, y in self._undo:
            self.x[tid] = x
            self.y[tid] = y
        self._pending = _NOTHING
        self._undo = ()

    # ------------------------------------------------------------------
    # Reference recomputes (audits / tests)
    # ------------------------------------------------------------------
    def full_recompute(self, net_cost=None) -> float:
        """The objective summed from fresh scans of the live coordinates.

        *net_cost* overrides the objective's per-net cost (the audit's
        reference; :meth:`wirelength` passes plain HPWL).
        """
        net_cost = net_cost or self.objective.net_cost
        total = 0.0
        for index in range(len(self._rows)):
            total += net_cost(index, *self._extent(index))
        return total

    def wirelength(self) -> float:
        """Pure HPWL over the live coordinates, whatever the objective."""
        return self.full_recompute(WirelengthObjective().net_cost)

    def audit_matches(self) -> bool:
        """Whether :attr:`total` matches a full recompute (exact when possible)."""
        reference = self.full_recompute()
        if self.objective.exact:
            return self.total == reference
        return math.isclose(self.total, reference, rel_tol=1e-9, abs_tol=1e-6)


class _FreeList:
    """An O(1) pick/remove/add pool of indices (list + position map, swap-pop)."""

    def __init__(self, items: Iterable[int]) -> None:
        self.items = list(items)
        self._index = {item: position for position, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def take(self, item: int) -> None:
        position = self._index.pop(item)
        last = self.items.pop()
        if position < len(self.items):
            self.items[position] = last
            self._index[last] = position

    def add(self, item: int) -> None:
        self._index[item] = len(self.items)
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
        When ``> 0``, check every N proposed moves that the incremental
        cost cache equals a full recompute of its live coordinates and
        raise :class:`AssertionError` if not, also under ``python -O``
        (tests/debugging; the default skips the O(nets) audit entirely).
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

    cache = NetCostCache(
        _build_net_terminals(design), plb_sites, io_positions, objective=objective
    )
    initial_cost = cache.total

    moves = max(200, int(effort * 100 * (len(design.plbs) + len(io_nets)) ** 1.3))
    temperature = max(1.0, cache.total * temperature_factor)
    plb_names = [plb.name for plb in design.plbs]

    # The anneal works on indices: each PLB's terminal id and site index,
    # each IO net's terminal id and pad index.  The free lists hold indices
    # in the order the name-keyed lists held sites and pads, so every pick
    # is the same; the position dicts are written back after the anneal.
    tid_of = cache.tid_of
    site_index = {site: index for index, site in enumerate(sites)}
    site_x = [float(x) for x, _ in sites]
    site_y = [float(y) for _, y in sites]
    plb_tid = [tid_of[name] for name in plb_names]
    plb_site = [site_index[plb_sites[name]] for name in plb_names]
    pad_index = {pad.name: index for index, pad in enumerate(pads)}
    pad_x = [float(_pad_position(pad, fabric)[0]) for pad in pads]
    pad_y = [float(_pad_position(pad, fabric)[1]) for pad in pads]
    io_tid = [tid_of[f"io:{net}"] for net in io_nets]
    io_pad = [pad_index[io_sites[net].name] for net in io_nets]
    occupied = set(plb_site)
    free_sites = _FreeList(index for index in range(len(sites)) if index not in occupied)
    used_pads = set(io_pad)
    free_pads = _FreeList(index for index in range(len(pads)) if index not in used_pads)

    iterations = 0
    moves_accepted = 0
    inv_temperature = 1.0 / temperature

    # Hot callables hoisted to locals for the loop.  Every index draw is
    # ``Random._randbelow_with_getrandbits`` inlined (``getrandbits(k)``
    # until below ``n``, ``k = n.bit_length()``), the draw ``rng.choice``
    # makes, so the pick sequence stays byte-identical without its frame.
    # A free list's length never changes (an accepted move takes one
    # entry and adds one back), so each ``k`` is computed once.
    rng_random = rng.random
    getrandbits = rng.getrandbits
    exp = math.exp
    propose_move = cache.propose_move
    propose_swap = cache.propose_swap
    cache_commit = cache.commit
    cache_reject = cache.reject
    plb_count = len(plb_names)
    io_count = len(io_nets)
    site_count = len(free_sites)
    pad_count = len(free_pads)
    plb_bits = plb_count.bit_length()
    io_bits = io_count.bit_length()
    site_bits = site_count.bit_length()
    pad_bits = pad_count.bit_length()

    while iterations < moves:
        batch = min(TEMPERATURE_BATCH, moves - iterations)
        temperature = max(temperature * COOLING_RATE ** batch, MIN_TEMPERATURE)
        inv_temperature = 1.0 / temperature
        for _ in range(batch):
            iterations += 1
            if audit_interval > 0 and iterations % audit_interval == 0:
                # Raised, not asserted: ``python -O`` must not drop an
                # audit the caller asked for.
                if not cache.audit_matches():
                    raise AssertionError(
                        f"incremental cost drifted at move {iterations}: "
                        f"cached {cache.total} != full {cache.full_recompute()}"
                    )
            if rng_random() < 0.7 and plb_names:
                # Move or swap a PLB.
                block = getrandbits(plb_bits)
                while block >= plb_count:
                    block = getrandbits(plb_bits)
                if free_sites.items and rng_random() < 0.5:
                    pick = getrandbits(site_bits)
                    while pick >= site_count:
                        pick = getrandbits(site_bits)
                    new_site = free_sites.items[pick]
                    delta = propose_move(plb_tid[block], site_x[new_site], site_y[new_site])
                    # Metropolis criterion at the current batch temperature
                    # (inlined at each proposal site below).
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                        free_sites.take(new_site)
                        free_sites.add(plb_site[block])
                        plb_site[block] = new_site
                    else:
                        cache_reject()
                else:
                    other = getrandbits(plb_bits)
                    while other >= plb_count:
                        other = getrandbits(plb_bits)
                    if other == block:
                        continue
                    delta = propose_swap(plb_tid[block], plb_tid[other])
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                        plb_site[block], plb_site[other] = plb_site[other], plb_site[block]
                    else:
                        cache_reject()
            else:
                # Swap two IO pads (or move one to a free pad).
                if not io_nets:
                    continue
                port = getrandbits(io_bits)
                while port >= io_count:
                    port = getrandbits(io_bits)
                if free_pads.items and rng_random() < 0.6:
                    pick = getrandbits(pad_bits)
                    while pick >= pad_count:
                        pick = getrandbits(pad_bits)
                    new_pad = free_pads.items[pick]
                    delta = propose_move(io_tid[port], pad_x[new_pad], pad_y[new_pad])
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                        free_pads.take(new_pad)
                        free_pads.add(io_pad[port])
                        io_pad[port] = new_pad
                    else:
                        cache_reject()
                else:
                    other = getrandbits(io_bits)
                    while other >= io_count:
                        other = getrandbits(io_bits)
                    if other == port:
                        continue
                    delta = propose_swap(io_tid[port], io_tid[other])
                    if delta <= 0 or rng_random() < exp(-delta * inv_temperature):
                        cache_commit()
                        moves_accepted += 1
                        io_pad[port], io_pad[other] = io_pad[other], io_pad[port]
                    else:
                        cache_reject()

    # Written back in place: the dicts keep their key order.
    for name, site in zip(plb_names, plb_site):
        plb_sites[name] = sites[site]
    for net, pad in zip(io_nets, io_pad):
        io_sites[net] = pads[pad]
    return Placement(
        plb_sites=plb_sites,
        io_sites=io_sites,
        cost=cache.total,
        iterations=iterations,
        initial_cost=initial_cost,
        moves_accepted=moves_accepted,
        net_evaluations=cache.evaluations,
        net_count=cache.net_count,
        wirelength=cache.wirelength(),
        bbox_updates=cache.bbox_updates,
    )

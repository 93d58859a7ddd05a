"""Wide-function decomposition: fit arbitrary LUT functions into the LE budget.

The template and generic mappers both produce :class:`~repro.cad.lemap.LEFunction`
truth tables whose support can exceed the LE's LUT input budget (the paper's
LUT7-3 offers 7 inputs): the DIMS rail functions of a 2x2 multiplier need 9,
and a generic netlist may contain cells that are simply wider than the LUT.
Instead of raising a hard :class:`~repro.cad.techmap.MappingError`, the mapper
hands such functions to :func:`decompose_function`, which recursively splits
them until every emitted function fits, wiring the pieces together through
fresh *synthetic nets* that route through the fabric like any other net.

Three reductions are tried, in order:

1. **Cone un-absorption (re-substitution).**  When the caller supplies the
   truth tables of inner cones that were greedily absorbed into the wide
   table (``candidates``), the decomposer checks whether the table factors
   exactly through one of those cones again -- i.e. whether the absorption
   can be undone.  The cone's *original* net is then restored as an input and
   reported in ``reused_nets`` so the caller can map the cone separately.

2. **Disjoint-support extraction** (bounded Ashenhurst decomposition).  A
   bound set ``A`` of inputs whose column multiplicity is at most two can be
   collapsed into a single-output subfunction ``g(A)`` on a synthetic net,
   leaving ``h(g, B)`` with ``|B| + 1`` inputs.  The bound-set search is
   deterministic and bounded -- contiguous windows of the declared input
   order, widest useful size first -- so decomposition stays fast on wide
   tables.  (Absorbed-cone supports are not searched here; they are handled
   by the exact-match un-absorption pass above.)

3. **Shannon cofactoring** on the best-scoring variable.  The two cofactors
   become (recursively decomposed) functions on synthetic nets and the
   original output turns into a 3-input multiplexer LUT.  State-holding
   functions (feedback through the PLB interconnection matrix) always split
   on their *own output variable first*: the cofactors are then purely
   combinational and the feedback pin stays on the final mux LUT, which is
   what keeps the looped-LUT memory semantics intact without rewiring.

The emitted single-function pieces can afterwards be merged onto shared
multi-output LUTs with :func:`coalesce_decomposition_les` (only functions
created by decomposition are touched, so mappings that never decompose are
bit-identical to before).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.cad.lemap import LEFunction, MappedLE
from repro.core.params import PLBParams
from repro.logic.truthtable import TruthTable

#: Role assigned to intermediate functions created by decomposition.
DECOMPOSITION_ROLE = "decomp"

#: Ceiling on bound-set attempts per disjoint-support search (keeps wide
#: tables from turning the mapper quadratic; Shannon always terminates).
MAX_BOUND_SET_ATTEMPTS = 256


class DecompositionError(RuntimeError):
    """Raised when a function cannot be decomposed to fit the budget.

    With a budget of at least 3 LUT inputs Shannon recursion always succeeds
    (the residual multiplexer needs 3 pins), so this only fires for degenerate
    architectures.
    """


@dataclass
class DecompositionStats:
    """Counters describing what decomposition did to one mapped design."""

    functions_decomposed: int = 0
    intermediate_functions: int = 0
    shannon_splits: int = 0
    disjoint_extractions: int = 0
    resubstitutions: int = 0
    max_arity_seen: int = 0

    def observe(self, arity: int) -> None:
        self.max_arity_seen = max(self.max_arity_seen, arity)

    @property
    def active(self) -> bool:
        return self.functions_decomposed > 0

    def as_dict(self) -> dict[str, int]:
        return {
            "functions_decomposed": self.functions_decomposed,
            "intermediate_functions": self.intermediate_functions,
            "shannon_splits": self.shannon_splits,
            "disjoint_extractions": self.disjoint_extractions,
            "resubstitutions": self.resubstitutions,
            "max_arity_seen": self.max_arity_seen,
        }

    def merge(self, other: "DecompositionStats") -> None:
        self.functions_decomposed += other.functions_decomposed
        self.intermediate_functions += other.intermediate_functions
        self.shannon_splits += other.shannon_splits
        self.disjoint_extractions += other.disjoint_extractions
        self.resubstitutions += other.resubstitutions
        self.max_arity_seen = max(self.max_arity_seen, other.max_arity_seen)


class NetNamer:
    """Deterministic fresh-net naming that avoids every existing net name."""

    def __init__(self, existing: Iterable[str] = ()) -> None:
        self._taken = set(existing)
        self._counters: dict[str, int] = {}

    def reserve(self, names: Iterable[str]) -> None:
        self._taken.update(names)

    def fresh(self, base: str) -> str:
        index = self._counters.get(base, 0)
        while True:
            name = f"{base}__d{index}"
            index += 1
            if name not in self._taken:
                self._counters[base] = index
                self._taken.add(name)
                return name


@dataclass
class DecompositionResult:
    """What :func:`decompose_function` produced for one wide function.

    ``functions`` lists every emitted LUT function with the one driving the
    original output net *last*; the others drive fresh synthetic nets (role
    ``"decomp"``).  ``reused_nets`` names existing nets whose cones were
    un-absorbed -- the caller must ensure they are mapped in their own right.
    """

    functions: list[LEFunction] = field(default_factory=list)
    reused_nets: list[str] = field(default_factory=list)

    @property
    def final(self) -> LEFunction:
        return self.functions[-1]

    @property
    def intermediates(self) -> list[LEFunction]:
        return self.functions[:-1]


# ----------------------------------------------------------------------
# Bound-set analysis (shared by un-absorption and disjoint extraction)
# ----------------------------------------------------------------------
def _column_classes(
    table: TruthTable, bound: tuple[str, ...]
) -> tuple[dict[tuple[int, ...], int], list[tuple[int, ...]]] | None:
    """Partition the bound-set assignments by their column pattern.

    Returns ``(class_of_assignment, class_columns)`` when the column
    multiplicity is at most two (the condition for a single-output
    extraction), ``None`` otherwise.  Assignments are keyed by the bound
    variables' values in ``bound`` order.
    """
    free = tuple(name for name in table.inputs if name not in bound)
    positions = {name: table.inputs.index(name) for name in table.inputs}
    bound_positions = [positions[name] for name in bound]
    # free_rows[free_index] is the row offset of one free-variable assignment.
    free_rows = [0]
    for name in free:
        free_rows += [row | (1 << positions[name]) for row in free_rows]

    bits = table.bits
    class_of: dict[tuple[int, ...], int] = {}
    columns: list[tuple[int, ...]] = []
    for bound_index in range(1 << len(bound)):
        base = 0
        values = []
        for offset, position in enumerate(bound_positions):
            bit = (bound_index >> offset) & 1
            values.append(bit)
            base |= bit << position
        column_t = tuple(bits[base | row] for row in free_rows)
        if column_t not in columns:
            if len(columns) == 2:
                return None
            columns.append(column_t)
        class_of[tuple(values)] = columns.index(column_t)
    return class_of, columns


def _extract_bound_set(
    table: TruthTable, bound: tuple[str, ...], inner_net: str
) -> tuple[TruthTable, TruthTable] | None:
    """Factor *table* as ``h(inner_net, free)`` with ``g = f(bound)``.

    Returns ``(g, h)`` or ``None`` when the bound set does not admit a
    single-output extraction.  ``g`` is normalised so class 1 means "the
    second distinct column": callers matching against a known cone table must
    also try the complement.
    """
    analysis = _column_classes(table, bound)
    if analysis is None:
        return None
    class_of, columns = analysis
    if len(columns) < 2:
        return None  # table does not depend on the bound set at all

    g = TruthTable.from_function(
        bound, lambda *values: class_of[tuple(values)], name=f"g_{inner_net}"
    )
    free = tuple(name for name in table.inputs if name not in bound)
    h_inputs = (inner_net,) + free

    def h_function(*values: int) -> int:
        selector = values[0]
        free_index = 0
        for offset in range(len(free)):
            free_index |= values[1 + offset] << offset
        return columns[selector][free_index]

    h = TruthTable.from_function(h_inputs, h_function, name=table.name)
    return g, h


def _try_unabsorb(
    table: TruthTable,
    candidates: Mapping[str, TruthTable],
) -> tuple[str, TruthTable] | None:
    """Undo one greedy cone absorption if the table still factors through it.

    Tries every candidate cone whose support is contained in the table (widest
    first, so the biggest arity reduction wins) and whose restoration leaves
    ``h`` strictly narrower.  Returns ``(net, h)`` on success.
    """
    ordered = sorted(
        candidates.items(), key=lambda item: (-item[1].arity, item[0])
    )
    for net, cone in ordered:
        support = tuple(name for name in table.inputs if name in cone.inputs)
        if len(support) != cone.arity or net in table.inputs:
            continue
        new_arity = table.arity - cone.arity + 1
        if new_arity >= table.arity:
            continue
        extracted = _extract_bound_set(table, support, net)
        if extracted is None:
            continue
        g, h = extracted
        cone_aligned = cone.reorder(support) if cone.inputs != support else cone
        if g.bits == cone_aligned.bits:
            return net, h
        if g.bits == tuple(1 - bit for bit in cone_aligned.bits):
            # g is the complement of the cone; flip the selector inside h so
            # the real cone output can drive the restored input unchanged.
            flipped = h.compose(
                {net: TruthTable((net,), (1, 0), name=f"not_{net}")}
            )
            return net, flipped.reorder(h.inputs)
    return None


def _disjoint_bound_sets(
    inputs: tuple[str, ...], budget: int
) -> Iterable[tuple[str, ...]]:
    """Deterministic bounded stream of candidate bound sets.

    Contiguous windows of the declared input order, widest useful size first:
    wide windows shrink ``h`` the most, and the generators that produce wide
    tables (DIMS channel expansions, datapath slices) list related wires
    adjacently, so windows catch the natural structure without a combinatorial
    subset search.
    """
    arity = len(inputs)
    emitted = 0
    largest = min(budget, arity - 1)
    smallest = max(2, arity - budget + 1)
    for size in range(largest, smallest - 1, -1):
        for start in range(0, arity - size + 1):
            if emitted >= MAX_BOUND_SET_ATTEMPTS:
                return
            emitted += 1
            yield tuple(inputs[start : start + size])


def _try_disjoint_extraction(
    table: TruthTable, budget: int, inner_net: str
) -> tuple[TruthTable, TruthTable] | None:
    """Find a bound set that collapses into one synthetic net, if any."""
    # _disjoint_bound_sets only yields sizes in [arity-budget+1, budget], so
    # every candidate already leaves both g and h within the budget.
    for bound in _disjoint_bound_sets(table.inputs, budget):
        extracted = _extract_bound_set(table, bound, inner_net)
        if extracted is not None:
            return extracted
    return None


# ----------------------------------------------------------------------
# Shannon cofactoring
# ----------------------------------------------------------------------
def _best_split_variable(table: TruthTable) -> str:
    """The variable whose cofactors have the smallest combined support."""
    best_name = table.inputs[0]
    best_score: tuple[int, int] | None = None
    for name in table.inputs:
        low = table.cofactor(name, 0).support()
        high = table.cofactor(name, 1).support()
        score = (len(low) + len(high), max(len(low), len(high)))
        if best_score is None or score < best_score:
            best_score = score
            best_name = name
    return best_name


def _mux_table(selector: str, low: object, high: object, name: str) -> TruthTable:
    """``selector ? high : low`` where each branch is a net name or a 0/1."""
    inputs: list[str] = [selector]
    for branch in (low, high):
        if isinstance(branch, str) and branch not in inputs:
            inputs.append(branch)

    def evaluate(*values: int) -> int:
        assignment = dict(zip(inputs, values))
        branch = high if assignment[selector] else low
        if isinstance(branch, str):
            return assignment[branch]
        return int(branch)

    return TruthTable.from_function(tuple(inputs), evaluate, name=name)


class _Decomposer:
    """One decomposition run: carries the namer, stats and candidate cones."""

    def __init__(
        self,
        budget: int,
        namer: NetNamer,
        stats: DecompositionStats,
        candidates: Mapping[str, TruthTable],
    ) -> None:
        self.budget = budget
        self.namer = namer
        self.stats = stats
        self.candidates = candidates
        self.emitted: list[LEFunction] = []
        self.reused: list[str] = []

    def reduce(self, table: TruthTable, output_net: str) -> TruthTable:
        """Emit helper functions until the returned table fits the budget."""
        table = table.remove_redundant_inputs()
        if table.arity <= self.budget:
            return table

        # Feedback first: keep the memory loop on the final LUT.
        if output_net in table.inputs:
            return self._split(table, output_net, output_net)

        unabsorbed = _try_unabsorb(table, self.candidates)
        if unabsorbed is not None:
            net, narrowed = unabsorbed
            self.stats.resubstitutions += 1
            if net not in self.reused:
                self.reused.append(net)
            return self.reduce(narrowed, output_net)

        inner_net = self.namer.fresh(output_net)
        extracted = _try_disjoint_extraction(table, self.budget, inner_net)
        if extracted is not None:
            g, h = extracted
            self.stats.disjoint_extractions += 1
            inner = self.reduce(g, inner_net)  # g fits by construction
            self.emitted.append(
                LEFunction(output_net=inner_net, table=inner, role=DECOMPOSITION_ROLE)
            )
            return self.reduce(h, output_net)

        return self._split(table, _best_split_variable(table), output_net)

    def _split(self, table: TruthTable, variable: str, output_net: str) -> TruthTable:
        if self.budget < 3:
            raise DecompositionError(
                f"function for net {output_net!r} needs {table.arity} inputs and the "
                f"residual multiplexer needs 3, but the LUT budget is {self.budget}"
            )
        self.stats.shannon_splits += 1
        branches: list[object] = []
        for value in (0, 1):
            cofactor = table.cofactor(variable, value).remove_redundant_inputs()
            if cofactor.is_constant():
                branches.append(cofactor.bits[0])
                continue
            branch_net = self.namer.fresh(output_net)
            reduced = self.reduce(cofactor, branch_net)
            self.emitted.append(
                LEFunction(output_net=branch_net, table=reduced, role=DECOMPOSITION_ROLE)
            )
            branches.append(branch_net)
        name = table.name or output_net
        # At most 3 inputs (selector + two branch nets), which the budget
        # check above guarantees fits; a feedback split leaves the output
        # variable as the selector, keeping the memory loop on this LUT.
        return _mux_table(variable, branches[0], branches[1], name=f"{name}_mux")


def decompose_function(
    function: LEFunction,
    budget: int,
    namer: NetNamer | None = None,
    stats: DecompositionStats | None = None,
    candidates: Mapping[str, TruthTable] | None = None,
) -> DecompositionResult:
    """Split *function* until every emitted function fits *budget* inputs.

    The returned :class:`DecompositionResult` lists intermediates first and
    the (possibly rewritten) function on the original output net last; when
    the input already fits, it is returned unchanged as the only entry.
    ``candidates`` maps inner-cone output nets to their truth tables and
    enables the un-absorption pass (see the module docstring).
    """
    namer = namer if namer is not None else NetNamer(function.table.inputs)
    stats = stats if stats is not None else DecompositionStats()
    stats.observe(function.arity)
    if function.arity <= budget:
        return DecompositionResult(functions=[function])

    stats.functions_decomposed += 1
    worker = _Decomposer(budget, namer, stats, candidates or {})
    final_table = worker.reduce(function.table, function.output_net)
    stats.intermediate_functions += len(worker.emitted)
    final = LEFunction(
        output_net=function.output_net, table=final_table, role=function.role
    )
    return DecompositionResult(
        functions=worker.emitted + [final], reused_nets=worker.reused
    )


# ----------------------------------------------------------------------
# Post-pass: merge synthetic single-function LEs onto shared LUTs
# ----------------------------------------------------------------------
def build_mapped_les(
    functions: Iterable[LEFunction], params: PLBParams
) -> list[MappedLE]:
    """Wrap functions one-per-LE, then coalesce the decomposition pieces.

    The one call every mapper makes to turn a flat function list (decomposer
    intermediates, or a whole generic mapping) into packable LEs.
    """
    return coalesce_decomposition_les(
        [
            MappedLE(name=f"le_{function.output_net}", functions=[function])
            for function in functions
        ],
        params,
    )


def coalesce_decomposition_les(
    les: list[MappedLE], params: PLBParams
) -> list[MappedLE]:
    """Merge decomposition-generated LEs onto shared multi-output LUTs.

    Only LEs whose functions are all role-``"decomp"`` and that carry no
    validity function are merged (most-shared-inputs first), so designs that
    never decomposed come back untouched.  Order of the surviving LEs follows
    the input order, which keeps packing and placement deterministic.
    """
    def mergeable(le: MappedLE) -> bool:
        return (
            le.validity is None
            and bool(le.functions)
            and all(f.role == DECOMPOSITION_ROLE for f in le.functions)
        )

    # Greedy first-fit-decreasing-by-affinity binning: each mergeable LE joins
    # the open bin it shares the most input nets with (ties: earliest bin),
    # or opens a new bin.  Bins land at their first member's position.
    slots: list[MappedLE | None] = []
    bins: list[tuple[int, MappedLE]] = []  # (slot index, accumulated LE)
    for le in les:
        if not mergeable(le):
            slots.append(le)
            continue
        best_index = -1
        best_shared = -1
        for index, (_slot, bin_le) in enumerate(bins):
            candidate = MappedLE(
                name=bin_le.name, functions=bin_le.functions + le.functions
            )
            if not candidate.fits(params):
                continue
            shared = len(set(bin_le.lut_input_nets) & set(le.lut_input_nets))
            if shared > best_shared:
                best_shared = shared
                best_index = index
        if best_index < 0:
            bins.append((len(slots), MappedLE(name=le.name, functions=list(le.functions))))
            slots.append(None)
        else:
            slot, bin_le = bins[best_index]
            bins[best_index] = (
                slot,
                MappedLE(name=bin_le.name, functions=bin_le.functions + le.functions),
            )
    for slot, bin_le in bins:
        slots[slot] = bin_le
    return [le for le in slots if le is not None]

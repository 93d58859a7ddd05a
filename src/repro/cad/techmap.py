"""Technology mapping onto the LE-level IR.

Two mappers are provided:

* :func:`template_map` -- *style-aware* mapping.  Because the style generators
  know the semantics of the circuit they produced (which Boolean function each
  dual-rail pair computes, where the latch controller sits, which request wire
  needs a matched delay), the mapper can build the LE functions directly:

  - QDI blocks: one state-holding LUT function per output rail (rise on the
    rail's ON-set, fall when all inputs are neutral, hold otherwise -- the
    classic looped-LUT realisation of DIMS logic), a LUT2-1 validity function
    per output digit, and a C-element LUT for the acknowledge;
  - micropipeline stages: the output latches absorb their datapath function
    (one looped LUT per output bit), one looped LUT for the latch controller,
    and the matched delay maps onto the PLB's programmable delay element.

  This is the mapping the paper's Figure 3 sketches with dashed boxes, and it
  is what the filling-ratio experiment measures.  The micropipeline stage
  template (ports, latch controller, PDE) is :func:`_micropipeline_template`;
  the composed micropipeline builders in :mod:`repro.circuits` frame their
  LUT networks with it too.

* :func:`generic_map` -- a style-oblivious cone-based mapper for arbitrary
  gate netlists: every sequential cell and every primary output becomes a LUT
  function; combinational fan-in cones are absorbed greedily while the
  support stays within the LUT input budget.  It is used for the baselines
  and for the "naive mapping" ablation.

Functions whose support exceeds the LUT input budget are no longer a hard
feasibility wall: both mappers hand them to
:mod:`repro.cad.decompose`, which splits them across synthetic nets until
every emitted function fits (see that module's docstring for the strategy).
A :class:`MappingError` now only means the architecture is degenerate (LUT
budget below 3) or the circuit carries no mappable description at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Mapping, Sequence

from repro.asynclogic.channels import Channel
from repro.cad.decompose import (
    DecompositionError,
    DecompositionResult,
    DecompositionStats,
    NetNamer,
    build_mapped_les,
    decompose_function,
)
from repro.cad.lemap import LEFunction, MappedDesign, MappedLE, MappedPDE
from repro.core.params import PLBParams
from repro.logic.functions import c_element_table
from repro.logic.truthtable import TruthTable
from repro.netlist.celltypes import STATE_VARIABLE
from repro.netlist.netlist import Netlist
from repro.styles.base import LogicStyle, StyledCircuit


class MappingError(RuntimeError):
    """Raised when a circuit cannot be mapped onto the architecture."""


def _fit_function(
    function: LEFunction,
    budget: int,
    namer: NetNamer,
    stats: DecompositionStats,
    candidates: Mapping[str, TruthTable] | None = None,
) -> DecompositionResult:
    """Decompose *function* to fit *budget*, folding failures into MappingError."""
    try:
        return decompose_function(
            function, budget, namer=namer, stats=stats, candidates=candidates
        )
    except DecompositionError as exc:
        raise MappingError(str(exc)) from exc


def _stamp_decomposition(design: MappedDesign, stats: DecompositionStats) -> None:
    """Record decomposition counters on the design (only when it happened)."""
    if stats.active:
        design.metadata["decomposition"] = stats.as_dict()


# ----------------------------------------------------------------------
# Template mapping: QDI
# ----------------------------------------------------------------------
def _qdi_rail_tables(
    input_channels: list[Channel],
    output_channels: list[Channel],
    circuit: StyledCircuit,
) -> dict[str, TruthTable]:
    """The looped-LUT next-state function of every output rail of a QDI block.

    A rail rises when every input digit is valid and the reference function
    asserts it; it falls when every input digit is neutral; it holds its value
    otherwise (partial input code words during transitions).  Each table is
    over ``input_wires + (rail,)``, so one pass over the input assignments
    fills the feedback-low and feedback-high halves of every rail at once.
    """
    function = circuit.metadata.get("reference_function")
    if function is None:
        raise MappingError(
            f"circuit {circuit.name!r} carries no reference function; "
            "template QDI mapping needs it"
        )
    input_wires = tuple(wire for channel in input_channels for wire in channel.data_wires())
    rails = [wire for channel in output_channels for wire in channel.data_wires()]
    low: dict[str, list[int]] = {rail: [] for rail in rails}
    high: dict[str, list[int]] = {rail: [] for rail in rails}
    for index in range(1 << len(input_wires)):
        values = {wire: (index >> position) & 1 for position, wire in enumerate(input_wires)}
        if all(channel.is_valid(values) for channel in input_channels):
            outputs = function({channel.name: channel.decode(values) for channel in input_channels})
            encoded: dict[str, int] = {}
            for channel in output_channels:
                encoded.update(channel.encode(outputs[channel.name]))
            for rail in rails:
                low[rail].append(encoded[rail])
                high[rail].append(encoded[rail])
            continue
        hold = 0 if all(channel.is_neutral(values) for channel in input_channels) else 1
        for rail in rails:
            low[rail].append(0)
            high[rail].append(hold)
    return {
        rail: TruthTable(input_wires + (rail,), tuple(low[rail] + high[rail]), name=f"rail_{rail}")
        for rail in rails
    }


def _map_qdi(circuit: StyledCircuit, params: PLBParams) -> MappedDesign:
    """Template mapping of a DIMS QDI function block."""
    design = MappedDesign(name=circuit.name, params=params, style=circuit.style)
    input_channels = list(circuit.input_channels)
    output_channels = list(circuit.output_channels)

    for channel in input_channels:
        design.primary_inputs.extend(channel.data_wires())
    for channel in output_channels:
        design.primary_outputs.extend(channel.data_wires())

    # A DIMS block acknowledges every input channel on one net.
    ack_net = circuit.ack_nets[input_channels[0].name]
    design.primary_outputs.append(ack_net)

    le_params = params.le
    # Fresh-net naming for decomposition: reserve every name the template
    # itself will create so synthetic nets can never collide.
    reserved: list[str] = list(design.primary_inputs) + list(design.primary_outputs)
    for out_channel in output_channels:
        reserved.extend(
            f"{out_channel.name}_v{digit}" for digit in range(out_channel.digits)
        )
    namer = NetNamer(reserved)
    stats = DecompositionStats()

    rail_tables = _qdi_rail_tables(input_channels, output_channels, circuit)
    rail_functions: list[tuple[Channel, str, LEFunction]] = []
    decomposition_functions: list[LEFunction] = []
    for out_channel in output_channels:
        for rail_wire in out_channel.data_wires():
            fitted = _fit_function(
                LEFunction(output_net=rail_wire, table=rail_tables[rail_wire], role="logic"),
                le_params.lut_inputs,
                namer,
                stats,
            )
            decomposition_functions.extend(fitted.intermediates)
            rail_functions.append((out_channel, rail_wire, fitted.final))

    # One LE per rail (the rail functions of one digit cannot share a LUT7-3
    # because each needs its own feedback pin on top of the shared data rails).
    validity_assigned: set[str] = set()
    les: list[MappedLE] = []
    digit_validity_nets: list[str] = []
    for out_channel, rail_wire, function in rail_functions:
        le = MappedLE(name=f"le_{rail_wire}", functions=[function])
        # Attach the digit's validity function to the first LE of each digit.
        digit_index = None
        for index in range(out_channel.digits):
            if rail_wire in out_channel.digit_wires(index):
                digit_index = index
                break
        digit_key = f"{out_channel.name}:{digit_index}"
        if digit_key not in validity_assigned and le_params.validity_lut_inputs >= 2:
            rails = out_channel.digit_wires(digit_index or 0)
            if len(rails) == 2:
                validity_net = f"{out_channel.name}_v{digit_index}"
                validity_table = TruthTable.from_function(
                    rails, lambda a, b: a or b, name=f"valid_{digit_key}"
                )
                le.validity = LEFunction(output_net=validity_net, table=validity_table, role="validity")
                digit_validity_nets.append(validity_net)
                validity_assigned.add(digit_key)
        les.append(le)

    # Wider (1-of-N, N>2) digits get their validity from a dedicated OR LE
    # function because the LUT2-1 only has two inputs; digits wider than the
    # LUT budget decompose like any other function.
    for out_channel in output_channels:
        for digit_index in range(out_channel.digits):
            digit_key = f"{out_channel.name}:{digit_index}"
            if digit_key in validity_assigned:
                continue
            rails = out_channel.digit_wires(digit_index)
            validity_net = f"{out_channel.name}_v{digit_index}"
            table = TruthTable.from_function(rails, lambda *r: any(r), name=f"valid_{digit_key}")
            fitted = _fit_function(
                LEFunction(output_net=validity_net, table=table, role="validity"),
                le_params.lut_inputs,
                namer,
                stats,
            )
            decomposition_functions.extend(fitted.intermediates)
            les.append(
                MappedLE(
                    name=f"le_valid_{out_channel.name}_{digit_index}",
                    functions=[fitted.final],
                )
            )
            digit_validity_nets.append(validity_net)
            validity_assigned.add(digit_key)

    # Acknowledge: Muller C-element over the digit validities (looped LUT).
    ack_table = replace(c_element_table(digit_validity_nets, state=ack_net), name="ack")
    fitted_ack = _fit_function(
        LEFunction(output_net=ack_net, table=ack_table, role="ack"),
        le_params.lut_inputs,
        namer,
        stats,
    )
    decomposition_functions.extend(fitted_ack.intermediates)
    les.append(MappedLE(name=f"le_{ack_net}", functions=[fitted_ack.final]))

    design.les = les + build_mapped_les(decomposition_functions, params)
    _stamp_decomposition(design, stats)
    return design


# ----------------------------------------------------------------------
# Template mapping: micropipeline
# ----------------------------------------------------------------------
def _pack_functions(
    prefix: str, functions: Sequence[LEFunction], params: PLBParams
) -> list[MappedLE]:
    """Greedily pack LUT functions into LEs in order (first-fit, no reorder)."""
    les: list[MappedLE] = []
    current: list[LEFunction] = []
    for function in functions:
        trial = MappedLE(name=f"le_{prefix}{len(les)}", functions=current + [function])
        if not current:
            if not trial.fits(params):
                raise ValueError(
                    f"function {function.output_net!r} ({function.arity} inputs) "
                    "exceeds the LE budget on its own"
                )
            current = trial.functions
        elif trial.fits(params):
            current = trial.functions
        else:
            les.append(MappedLE(name=f"le_{prefix}{len(les)}", functions=current))
            current = [function]
    if current:
        les.append(MappedLE(name=f"le_{prefix}{len(les)}", functions=current))
    return les


def _micropipeline_template(
    name: str,
    input_channel: Channel,
    output_channel: Channel,
    les: Sequence[MappedLE],
    matched_delay: int,
    params: PLBParams,
) -> MappedDesign:
    """The micropipeline stage template around a stage's datapath LEs.

    Every bundled-data stage shares this frame: the two channels' ports, one
    latch-controller LE and one PDE.  The PDE delays the input request by
    *matched_delay* onto ``{name}_req_delayed``.  The controller computes
    ``enable = C(req_delayed, !out_ack)`` (held otherwise) onto the output
    request, which is the enable the datapath's latches read, and mirrors it
    onto the input acknowledge as its second LUT output.
    """
    design = MappedDesign(name=name, params=params, style=LogicStyle.MICROPIPELINE)
    design.primary_inputs = [
        *input_channel.data_wires(),
        input_channel.req_wire,
        output_channel.ack_wire,
    ]
    design.primary_outputs = [
        *output_channel.data_wires(),
        input_channel.ack_wire,
        output_channel.req_wire,
    ]

    enable_net = output_channel.req_wire  # enable == out_req == in_ack
    req_delayed_net = f"{name}_req_delayed"

    def controller_next(req_delayed: int, out_ack: int, enable: int) -> int:
        not_ack = 1 - out_ack
        if req_delayed and not_ack:
            return 1
        if not req_delayed and not not_ack:
            return 0
        return enable

    controller_table = TruthTable.from_function(
        (req_delayed_net, output_channel.ack_wire, enable_net), controller_next, name="controller"
    )
    controller_le = MappedLE(
        name=f"le_{name}_ctrl",
        functions=[
            LEFunction(output_net=enable_net, table=controller_table, role="controller"),
            LEFunction(
                output_net=input_channel.ack_wire,
                table=replace(controller_table, name="in_ack"),
                role="controller",
            ),
        ],
    )
    design.les = [*les, controller_le]
    design.pdes = [
        MappedPDE(
            name=f"pde_{name}",
            input_net=input_channel.req_wire,
            output_net=req_delayed_net,
            delay_ps=matched_delay,
        )
    ]
    return design


def _map_micropipeline(circuit: StyledCircuit, params: PLBParams) -> MappedDesign:
    """Template mapping of a bundled-data micropipeline stage."""
    if len(circuit.input_channels) != 1 or len(circuit.output_channels) != 1:
        raise MappingError("micropipeline template mapping expects one input and one output channel")
    input_channel = circuit.input_channels[0]
    output_channel = circuit.output_channels[0]

    datapath_tables = circuit.metadata.get("datapath_tables")
    if datapath_tables is None:
        raise MappingError(
            f"circuit {circuit.name!r} carries no datapath tables; template mapping needs them"
        )
    matched_delay = int(circuit.metadata.get("matched_delay", 0)) or 1

    le_params = params.le
    enable_net = output_channel.req_wire  # the stage template's latch enable
    # Decomposition names its fresh nets ``<net>__d<n>``, which only a port
    # name can clash with.
    namer = NetNamer(input_channel.all_wires() + output_channel.all_wires())
    stats = DecompositionStats()

    # Output latches, each absorbing its datapath function:
    #   q' = f(data inputs)        when enable == 0 (transparent)
    #   q' = q                     when enable == 1 (hold)
    latch_functions: list[LEFunction] = []
    decomposition_functions: list[LEFunction] = []
    for out_wire in output_channel.data_wires():
        datapath_table: TruthTable = datapath_tables[out_wire]
        table_inputs = tuple(datapath_table.inputs) + (enable_net, out_wire)

        def latch_next(*values: int, _table: TruthTable = datapath_table, _inputs=table_inputs) -> int:
            assignment = dict(zip(_inputs, values))
            if assignment[enable_net]:
                return assignment[_inputs[-1]]
            return _table.evaluate({name: assignment[name] for name in _table.inputs})

        table = TruthTable.from_function(table_inputs, latch_next, name=f"latch_{out_wire}")
        fitted = _fit_function(
            LEFunction(output_net=out_wire, table=table, role="latch"),
            le_params.lut_inputs,
            namer,
            stats,
        )
        decomposition_functions.extend(fitted.intermediates)
        latch_functions.append(fitted.final)

    # The latches share the data inputs and the enable, so pack them together.
    design = _micropipeline_template(
        circuit.name,
        input_channel,
        output_channel,
        _pack_functions(f"{circuit.name}_latch", latch_functions, params),
        matched_delay,
        params,
    )
    design.les += build_mapped_les(decomposition_functions, params)
    _stamp_decomposition(design, stats)
    return design


# ----------------------------------------------------------------------
# Template mapping dispatch
# ----------------------------------------------------------------------
def template_map(circuit: StyledCircuit, params: PLBParams | None = None) -> MappedDesign:
    """Map a styled circuit onto LEs using its style template."""
    params = params if params is not None else PLBParams()
    if circuit.style in (LogicStyle.QDI_DUAL_RAIL, LogicStyle.QDI_ONE_OF_FOUR):
        return _map_qdi(circuit, params)
    if circuit.style is LogicStyle.MICROPIPELINE:
        return _map_micropipeline(circuit, params)
    if circuit.style is LogicStyle.WCHB:
        # WCHB stages are regular gate structures; the generic mapper handles
        # them well (each C-element pair becomes a looped LUT).
        return generic_map(circuit.netlist, params, style=circuit.style)
    raise MappingError(f"no template mapping for style {circuit.style}")


# ----------------------------------------------------------------------
# Generic cone-based mapping
# ----------------------------------------------------------------------
def _cell_output_table(netlist: Netlist, cell_name: str) -> TruthTable:
    """The truth table of a cell's (single) output over its input *net* names,
    with the state variable renamed to the output net for sequential cells."""
    cell = netlist.cell(cell_name)
    if len(cell.cell_type.outputs) != 1:
        raise MappingError(f"generic mapping only supports single-output cells ({cell_name})")
    output_pin = cell.cell_type.outputs[0]
    output_net = cell.connections[output_pin]
    table = cell.cell_type.table_for(output_pin)
    rename = {pin: cell.connections[pin] for pin in cell.cell_type.inputs if pin in table.inputs}
    if STATE_VARIABLE in table.inputs:
        rename[STATE_VARIABLE] = output_net
    targets = [rename.get(pin, pin) for pin in table.inputs]
    if len(set(targets)) != len(targets):
        # Several pins tied to the same net: collapse the duplicate columns
        # into one variable (XOR(a, a) is the constant 0, not a 2-input
        # function) instead of building a table with repeated input names.
        distinct = list(dict.fromkeys(targets))
        source = table

        def tied(*values: int) -> int:
            by_net = dict(zip(distinct, values))
            return source.evaluate(
                {pin: by_net[net] for pin, net in zip(source.inputs, targets)}
            )

        return TruthTable.from_function(distinct, tied, name=source.name)
    return table.rename(rename)


def generic_map(
    netlist: Netlist,
    params: PLBParams | None = None,
    style: LogicStyle | None = None,
    max_lut_inputs: int | None = None,
) -> MappedDesign:
    """Cone-based mapping of an arbitrary gate netlist onto LUT functions.

    Every primary output and every sequential-cell output becomes a LUT
    function; combinational fan-in is collapsed greedily while the support
    fits the LUT input budget.  Nets that remain on a cone frontier become
    LUT functions themselves.  The resulting single-function LEs are then
    combined by the packer.
    """
    params = params if params is not None else PLBParams()
    budget = max_lut_inputs if max_lut_inputs is not None else params.le.lut_inputs

    design = MappedDesign(name=netlist.name, params=params, style=style)
    design.primary_inputs = list(netlist.primary_inputs)
    design.primary_outputs = list(netlist.primary_outputs)

    # Delay cells become PDE assignments instead of LUT functions.
    delay_outputs: dict[str, MappedPDE] = {}
    for cell in netlist.iter_cells():
        if cell.type_name == "DELAY":
            output_net = cell.connections["z"]
            delay_outputs[output_net] = MappedPDE(
                name=f"pde_{cell.name}",
                input_net=cell.connections["a"],
                output_net=output_net,
                delay_ps=int(cell.attributes.get("delay", cell.cell_type.delay)),
            )
    design.pdes = list(delay_outputs.values())

    sequential_outputs = {
        cell.connections[cell.cell_type.outputs[0]]
        for cell in netlist.sequential_cells()
    }

    required: list[str] = []
    for net in netlist.primary_outputs:
        if net not in required:
            required.append(net)
    for net in sorted(sequential_outputs):
        if net not in required:
            required.append(net)
    for pde in design.pdes:
        if pde.input_net not in required and netlist.net(pde.input_net).driver is not None:
            required.append(pde.input_net)

    primary_inputs = set(design.primary_inputs)
    namer = NetNamer(netlist.nets)
    stats = DecompositionStats()

    mapped: dict[str, LEFunction] = {}
    # The worklist is a deque with a companion seen-set: list.pop(0) plus
    # `net not in queue` membership scans were O(n^2) on large netlists.
    queue: deque[str] = deque(required)
    queued: set[str] = set(required)

    def enqueue(net: str) -> None:
        if (
            net not in mapped
            and net not in primary_inputs
            and net not in delay_outputs
            and net not in queued
        ):
            queue.append(net)
            queued.add(net)

    while queue:
        target = queue.popleft()
        queued.discard(target)
        if target in mapped or target in primary_inputs or target in delay_outputs:
            continue
        driver = netlist.driver_of(target)
        if driver is None:
            continue  # undriven (will be caught by validation)
        driver_cell, _pin = driver
        table = _cell_output_table(netlist, driver_cell.name)

        # Greedy cone absorption; absorbed cones are remembered so the
        # decomposer can un-absorb them if the table ends up too wide.
        absorbed: dict[str, TruthTable] = {}
        progress = True
        while progress:
            progress = False
            for net in list(table.inputs):
                if net == target or net in primary_inputs:
                    continue
                if net in sequential_outputs or net in delay_outputs:
                    continue
                inner_driver = netlist.driver_of(net)
                if inner_driver is None:
                    continue
                inner_cell, _ = inner_driver
                if inner_cell.cell_type.is_sequential:
                    continue
                inner_table = _cell_output_table(netlist, inner_cell.name)
                candidate = table.compose({net: inner_table})
                if candidate.arity <= budget:
                    table = candidate
                    absorbed[net] = inner_table
                    progress = True

        fitted = _fit_function(
            LEFunction(output_net=target, table=table, role="logic"),
            budget,
            namer,
            stats,
            candidates=absorbed,
        )
        for function in fitted.intermediates:
            mapped[function.output_net] = function
        mapped[target] = fitted.final
        for net in fitted.reused_nets:
            enqueue(net)
        for function in fitted.functions:
            for net in function.input_nets:
                if net != function.output_net:
                    enqueue(net)

    design.les = build_mapped_les(mapped.values(), params)
    _stamp_decomposition(design, stats)
    return design

"""The PLB region layout and the flat bitstream.

:class:`repro.core.layout.PLBLayout` encodes every placed PLB, and the
bitstream audit decodes through it.  The oracle of its encoding is the
generator it replaced, kept here as :func:`reference_region`: a scratch
behavioural :class:`~repro.core.plb.PLB` configured the same way, its
components' ``config_vector()`` outputs concatenated and zero-padded to the
region.  A hypothesis property runs both over random configurations on the
default and on a non-default :class:`~repro.core.params.PLBParams`.
Another checks that the behavioural statistics, the area model, the
bitstream budget and the layout count the same bits per PLB.

:class:`~repro.core.bitstream.Bitstream` keeps one byte per bit in budget
order and packs the whole array at once; :func:`reference_to_bytes` and
:func:`reference_from_bytes` are the per-bit loops it replaced.  Budgets and
layouts are built once per parameter set and shared, also between threads.
"""

import copy
import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.area import plb_area_estimate
from repro.cad.bitgen import configure_plbs, generate_bitstream
from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.registry import build_circuit
from repro.core.bitstream import Bitstream, BitstreamBudget
from repro.core.fabric import Fabric
from repro.core.im import IMConfig
from repro.core.layout import PLBLayout
from repro.core.le import (
    VALIDITY_SOURCE_INPUT,
    VALIDITY_SOURCE_LUT_OUTPUT,
    LEConfig,
    ValiditySource,
)
from repro.core.lut import pin_names
from repro.core.params import ArchitectureParams, LEParams, PLBParams
from repro.core.pde import PDEConfig
from repro.core.plb import PLB, PLBConfig
from repro.core.stats import plb_statistics
from repro.logic.truthtable import TruthTable

#: A PLB unlike the paper's in every dimension but the LE's one validity
#: output.
ODD_PLB = PLBParams(
    les_per_plb=3,
    plb_inputs=10,
    plb_outputs=5,
    pde_taps=5,
    pde_step_ps=70,
    le=LEParams(lut_inputs=4, lut_outputs=2, validity_lut_inputs=3, validity_lut_outputs=1),
)


# ----------------------------------------------------------------------
# The oracles: the generator and the serialisers the layout replaced
# ----------------------------------------------------------------------
def reference_region(params: PLBParams, config: PLBConfig) -> list[int]:
    hardware = PLB(params)
    hardware.configure(config)
    bits: list[int] = []
    for le in hardware.les:
        bits.extend(le.config_vector())
    bits.extend(hardware.pde.config_vector())
    bits.extend(hardware.im.config_vector())
    return bits + [0] * (params.config_bits - len(bits))


def reference_to_bytes(budget: BitstreamBudget, regions: dict[str, list[int]]) -> bytes:
    all_bits: list[int] = []
    for region in budget.regions:
        all_bits.extend(regions[region.name])
    out = bytearray((len(all_bits) + 7) // 8)
    for index, bit in enumerate(all_bits):
        if bit:
            out[index // 8] |= 1 << (index % 8)
    return bytes(out)


def reference_from_bytes(budget: BitstreamBudget, data: bytes) -> dict[str, list[int]]:
    regions: dict[str, list[int]] = {}
    cursor = 0
    for region in budget.regions:
        bits = []
        for _ in range(region.bits):
            bits.append((data[cursor // 8] >> (cursor % 8)) & 1)
            cursor += 1
        regions[region.name] = bits
    return regions


def reference_bytes(design, placement, arch: ArchitectureParams) -> bytes:
    """The whole bitstream as the replaced generator serialised it."""
    budget = BitstreamBudget.for_architecture(arch)
    contents = {region.name: [0] * region.bits for region in budget.regions}
    for name, configured in configure_plbs(design, arch).items():
        x, y = placement.site_of(name)
        contents[f"plb_{x}_{y}"] = reference_region(arch.plb, configured.config)
    return reference_to_bytes(budget, contents)


# ----------------------------------------------------------------------
# Random PLB configurations
# ----------------------------------------------------------------------
@st.composite
def tables(draw, pins):
    """A truth table over a random subset of *pins* in a random order."""
    inputs = draw(st.permutations(pins).map(tuple))
    inputs = inputs[: draw(st.integers(0, len(pins)))]
    bits = draw(st.lists(st.integers(0, 1), min_size=1 << len(inputs), max_size=1 << len(inputs)))
    return TruthTable(inputs=inputs, bits=tuple(bits))


@st.composite
def le_configs(draw, le: LEParams):
    lut_pins = pin_names(le.lut_inputs)
    lut_tables = draw(
        st.lists(st.none() | tables(lut_pins), max_size=le.lut_outputs)
    )
    validity = draw(st.none() | tables(pin_names(le.validity_lut_inputs, prefix="v")))
    source = st.one_of(
        st.builds(ValiditySource, st.just(VALIDITY_SOURCE_INPUT), st.integers(0, le.lut_inputs - 1)),
        st.builds(ValiditySource, st.just(VALIDITY_SOURCE_LUT_OUTPUT), st.integers(0, le.lut_outputs - 1)),
    )
    sources = draw(
        st.just(()) | st.lists(source, min_size=le.validity_lut_inputs, max_size=le.validity_lut_inputs).map(tuple)
    )
    return LEConfig(lut_tables=lut_tables, validity_table=validity, validity_sources=sources)


@st.composite
def plb_configs(draw, params: PLBParams):
    reference = PLB(params)
    routes = draw(
        st.dictionaries(
            st.sampled_from(reference.im_destination_names()),
            st.sampled_from(reference.im_source_names()),
        )
    )
    return PLBConfig(
        le_configs=draw(st.lists(le_configs(params.le), max_size=params.les_per_plb)),
        pde_config=PDEConfig(tap=draw(st.integers(0, params.pde_taps - 1))),
        im_config=IMConfig(routes=routes),
    )


@pytest.mark.parametrize("params", [PLBParams(), ODD_PLB], ids=["paper", "odd"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_layout_encodes_like_the_behavioural_plb(params, data):
    config = data.draw(plb_configs(params))
    layout = PLBLayout.for_params(params)
    encoded = layout.encode(config)
    assert list(encoded) == reference_region(params, config)
    assert layout.decode_tap(encoded) == config.pde_config.tap
    assert layout.decode_routes(encoded) == config.im_config.routes


def test_layout_rejects_what_the_plb_rejects():
    layout = PLBLayout.for_params(PLBParams())
    wide = TruthTable.constant(1, ("i0", "x"))
    with pytest.raises(ValueError):
        layout.encode(PLBConfig(le_configs=[LEConfig(lut_tables=[wide])]))
    with pytest.raises(ValueError):
        layout.encode(PLBConfig(pde_config=PDEConfig(tap=PLBParams().pde_taps)))
    with pytest.raises(ValueError):
        layout.encode(PLBConfig(le_configs=[LEConfig()] * 3))
    with pytest.raises(KeyError):
        layout.encode(PLBConfig(im_config=IMConfig(routes={"le0_i0": "nowhere"})))
    corrupt = bytearray(layout.width)
    offset, width = layout.destination_offsets["pde_in"], layout.im_selector_width
    corrupt[offset : offset + width] = b"\x01" * width  # beyond the 25 sources
    with pytest.raises(ValueError):
        layout.decode_routes(corrupt)


# ----------------------------------------------------------------------
# One PLB bit count
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    les_per_plb=st.integers(1, 4),
    plb_inputs=st.integers(1, 24),
    plb_outputs=st.integers(1, 12),
    pde_taps=st.integers(1, 40),
    lut_inputs=st.integers(1, 7),
    lut_outputs=st.integers(1, 4),
    validity_lut_inputs=st.integers(1, 3),
)
def test_every_plb_bit_count_agrees(
    les_per_plb, plb_inputs, plb_outputs, pde_taps, lut_inputs, lut_outputs, validity_lut_inputs
):
    params = PLBParams(
        les_per_plb=les_per_plb,
        plb_inputs=plb_inputs,
        plb_outputs=plb_outputs,
        pde_taps=pde_taps,
        le=LEParams(
            lut_inputs=lut_inputs,
            lut_outputs=lut_outputs,
            validity_lut_inputs=validity_lut_inputs,
        ),
    )
    arch = ArchitectureParams(width=1, height=1, plb=params)
    layout = PLBLayout.for_params(params)
    counts = {
        "plb_statistics": plb_statistics(arch)["plb_config_bits"],
        "plb_area_estimate": plb_area_estimate(params)["plb_config_bits"],
        "budget": BitstreamBudget.for_architecture(arch).region("plb_0_0").bits,
        "layout": layout.destination_offsets[layout.im_destinations[-1]] + layout.im_selector_width,
    }
    assert set(counts.values()) == {params.config_bits}, counts


def test_an_le_has_one_validity_output():
    with pytest.raises(ValueError, match="single validity output, ov"):
        LEParams(validity_lut_outputs=2)
    with pytest.raises(ValueError, match="single validity output, ov"):
        LEParams(validity_lut_outputs=0)


# ----------------------------------------------------------------------
# The flat bitstream against the per-bit loops
# ----------------------------------------------------------------------
SMALL = ArchitectureParams(width=2, height=2)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bulk_serialisation_matches_the_per_bit_loops(data):
    budget = BitstreamBudget.for_architecture(SMALL)
    contents = {region.name: [0] * region.bits for region in budget.regions}
    bitstream = Bitstream(budget)
    names = data.draw(
        st.lists(st.sampled_from([region.name for region in budget.regions]), max_size=6, unique=True)
    )
    for name in names:
        size = budget.region(name).bits
        bits = data.draw(st.lists(st.integers(0, 1), max_size=size))
        contents[name] = bits + [0] * (size - len(bits))
        bitstream.set_region(name, bits)
    data_bytes = bitstream.to_bytes()
    assert data_bytes == reference_to_bytes(budget, contents)
    assert bitstream.used_bits() == sum(map(sum, contents.values()))

    # A payload longer than the budget: the tail beyond it is ignored.
    payload = data.draw(
        st.binary(min_size=len(data_bytes), max_size=len(data_bytes) + 8)
    )
    decoded = Bitstream.from_bytes(budget, payload)
    expected = reference_from_bytes(budget, payload)
    for region in budget.regions:
        assert list(decoded.region_bits(region.name)) == expected[region.name]
    assert Bitstream.from_bytes(budget, decoded.to_bytes()) == decoded


# ----------------------------------------------------------------------
# One budget and one layout per parameter set
# ----------------------------------------------------------------------
def _placed(name: str, arch: ArchitectureParams, seed: int = 1):
    flow = CadFlow(arch, FlowOptions(placement_seed=seed, generate_bitstream=False))
    result = flow.run(build_circuit(name))
    return result.mapped, result.placement


def test_warm_bitgen_builds_no_plb_and_no_fabric(monkeypatch):
    arch = ArchitectureParams(width=4, height=4)
    design, placement = _placed("micropipeline_full_adder", arch)
    first, _ = generate_bitstream(design, placement, arch)

    built: list[str] = []
    for cls in (PLB, Fabric):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    again, _ = generate_bitstream(design, placement, ArchitectureParams(width=4, height=4))
    assert built == []
    assert again.to_bytes() == first.to_bytes()


def test_budget_and_layout_are_shared_and_immutable():
    budget = BitstreamBudget.for_architecture(ArchitectureParams(width=3, height=3))
    assert BitstreamBudget.for_architecture(ArchitectureParams(width=3, height=3)) is budget
    layout = PLBLayout.for_params(PLBParams())
    assert PLBLayout.for_params(PLBParams(le=LEParams())) is layout
    offset = 0
    for region in budget.regions:
        assert region.offset == offset and budget.region(region.name) is region
        offset += region.bits
    assert offset == budget.total_bits
    with pytest.raises(dataclasses.FrozenInstanceError):
        budget.regions = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.width = 0
    with pytest.raises(TypeError):
        layout.source_codes["in0"] = 0
    # A pickled or copied bitstream comes back over the same shared budget.
    bitstream = Bitstream(budget)
    bitstream.set_bit("plb_1_2", 5, 1)
    for again in (pickle.loads(pickle.dumps(bitstream)), copy.deepcopy(bitstream)):
        assert again == bitstream and again.budget is budget


def test_threads_encoding_one_cold_architecture_match_the_serial_run():
    # Parameters no other test builds a budget or a layout for, so the
    # threads race to build both.
    arch = ArchitectureParams(
        width=4, height=4, plb=PLBParams(pde_taps=13, pde_step_ps=90), name="bitgen-stress"
    )
    placed = [_placed("micropipeline_full_adder", arch, 1), _placed("qdi_full_adder", arch, 2)]
    threads_count, repeats = 6, 3
    results: list[list[bytes]] = [[] for _ in range(threads_count)]
    errors: list[BaseException] = []

    def work(index):
        try:
            design, placement = placed[index % len(placed)]
            for _ in range(repeats):
                bitstream, _configured = generate_bitstream(design, placement, arch)
                results[index].append(bitstream.to_bytes())
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    serial = [generate_bitstream(design, placement, arch)[0].to_bytes() for design, placement in placed]
    assert serial == [reference_bytes(design, placement, arch) for design, placement in placed]
    assert results == [[serial[index % len(placed)]] * repeats for index in range(threads_count)]

"""Tests for the architecture parameters, LUT models and the Logic Element."""

import pytest

from repro.core.le import LEConfig, LogicElement, ValiditySource, VALIDITY_SOURCE_INPUT, VALIDITY_SOURCE_LUT_OUTPUT
from repro.core.lut import LUT, MultiOutputLUT, pin_names
from repro.core.params import ArchitectureParams, LEParams, PLBParams, RoutingParams
from repro.logic.functions import and_table, c_element_table, or_table, xor_table


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def test_default_le_matches_paper():
    le = LEParams()
    assert le.lut_inputs == 7
    assert le.lut_outputs == 3
    assert le.validity_lut_inputs == 2
    assert le.lut_config_bits == 3 * 128
    assert le.validity_lut_config_bits == 4
    assert le.total_inputs == 9 and le.total_outputs == 4
    assert le.config_bits == le.lut_config_bits + le.validity_lut_config_bits + le.validity_selector_bits


def test_default_plb_matches_paper():
    plb = PLBParams()
    assert plb.les_per_plb == 2
    assert plb.pde_taps >= 2
    assert plb.im_sources == plb.plb_inputs + 2 * 4 + 1
    assert plb.im_destinations == 2 * 9 + 1 + plb.plb_outputs
    assert plb.config_bits == 2 * plb.le.config_bits + plb.pde_config_bits + plb.im_config_bits


def test_architecture_counts_and_scaling():
    params = ArchitectureParams(width=4, height=5)
    assert params.plb_count == 20
    assert params.le_count == 40
    assert params.io_pad_count == 2 * (4 + 5) * params.routing.io_pads_per_side
    scaled = params.scaled(8, 8)
    assert scaled.plb_count == 64
    assert scaled.plb is params.plb


def test_parameter_validation():
    with pytest.raises(ValueError):
        LEParams(lut_inputs=0)
    with pytest.raises(ValueError):
        PLBParams(les_per_plb=0)
    with pytest.raises(ValueError):
        ArchitectureParams(width=0)
    with pytest.raises(ValueError):
        RoutingParams(fc_in=0.0)
    with pytest.raises(ValueError):
        RoutingParams(switchbox="magic")


def test_routing_tracks_per_pin():
    routing = RoutingParams(channel_width=8, fc_in=0.5)
    assert routing.tracks_per_pin(routing.fc_in) == 4
    assert routing.tracks_per_pin(0.01) == 1


# ----------------------------------------------------------------------
# LUT models
# ----------------------------------------------------------------------
def test_lut_configure_and_evaluate():
    lut = LUT(4)
    assert lut.pins == pin_names(4)
    assert lut.config_bits == 16
    table = and_table(inputs=("i0", "i1"))
    lut.configure(table)
    assert lut.configured
    assert lut.evaluate({"i0": 1, "i1": 1}) == 1
    assert lut.evaluate({"i0": 1, "i1": 0, "i2": 1, "i3": 1}) == 0
    assert lut.used_pins() == ("i0", "i1")
    assert len(lut.config_vector()) == 16
    lut.clear()
    assert lut.evaluate({"i0": 1, "i1": 1}) == 0
    assert lut.config_vector() == tuple([0] * 16)


def test_lut_rejects_foreign_pins():
    lut = LUT(3)
    with pytest.raises(ValueError):
        lut.configure(and_table(inputs=("a", "b")))


def test_lut_pin_prefix():
    lut = LUT(2, pin_prefix="v")
    assert lut.pins == ("v0", "v1")
    lut.configure(or_table(inputs=("v0", "v1")))
    assert lut.evaluate({"v0": 0, "v1": 1}) == 1


def test_multi_output_lut():
    mlut = MultiOutputLUT(7, 3)
    assert mlut.config_bits == 3 * 128
    assert mlut.output_names == ("o0", "o1", "o2")
    mlut.configure([xor_table(inputs=("i0", "i1", "i2")), and_table(inputs=("i0", "i3"))])
    values = {f"i{index}": 1 for index in range(7)}
    assert mlut.evaluate(values) == (1, 1, 0)
    assert mlut.used_outputs() == 2
    assert set(mlut.used_pins()) == {"i0", "i1", "i2", "i3"}
    assert len(mlut.config_vector()) == 3 * 128
    with pytest.raises(IndexError):
        mlut.configure_output(5, and_table(inputs=("i0", "i1")))
    with pytest.raises(ValueError):
        mlut.configure([None] * 4)


# ----------------------------------------------------------------------
# Logic Element
# ----------------------------------------------------------------------
def test_le_figure2_structure():
    le = LogicElement()
    assert le.input_pins == tuple(f"i{index}" for index in range(7))
    assert le.validity_pins == ("v0", "v1")
    assert le.output_names == ("o0", "o1", "o2", "ov")
    assert le.config_bits == LEParams().config_bits


def test_le_configure_and_evaluate_with_validity_from_lut_outputs():
    le = LogicElement()
    config = LEConfig(
        lut_tables=[
            xor_table(inputs=("i0", "i1", "i2")),
            and_table(inputs=("i0", "i1")),
            None,
        ],
        validity_table=or_table(inputs=("v0", "v1")),
        validity_sources=(
            ValiditySource(VALIDITY_SOURCE_LUT_OUTPUT, 0),
            ValiditySource(VALIDITY_SOURCE_LUT_OUTPUT, 1),
        ),
    )
    le.configure(config)
    outputs = le.evaluate({"i0": 1, "i1": 0, "i2": 0})
    assert outputs["o0"] == 1 and outputs["o1"] == 0
    assert outputs["ov"] == 1  # o0 | o1
    outputs = le.evaluate({"i0": 0, "i1": 0, "i2": 0})
    assert outputs["ov"] == 0


def test_le_validity_from_le_inputs():
    le = LogicElement()
    config = LEConfig(
        lut_tables=[and_table(inputs=("i0", "i1")), None, None],
        validity_table=or_table(inputs=("v0", "v1")),
        validity_sources=(
            ValiditySource(VALIDITY_SOURCE_INPUT, 3),
            ValiditySource(VALIDITY_SOURCE_INPUT, 4),
        ),
    )
    le.configure(config)
    outputs = le.evaluate({"i0": 0, "i1": 0, "i3": 1, "i4": 0})
    assert outputs["ov"] == 1


def test_le_validity_pins_driven_directly():
    le = LogicElement()
    le.configure(LEConfig(lut_tables=[None, None, None], validity_table=or_table(inputs=("v0", "v1"))))
    outputs = le.evaluate({"v0": 1, "v1": 0})
    assert outputs["ov"] == 1


def test_le_utilisation_counts():
    le = LogicElement()
    le.configure(
        LEConfig(
            lut_tables=[c_element_table(("i0", "i1"), state="i2"), None, None],
            validity_table=or_table(inputs=("v0", "v1")),
        )
    )
    usage = le.utilisation()
    assert usage["lut_inputs_used"] == 3
    assert usage["lut_outputs_used"] == 1
    assert usage["validity_outputs_used"] == 1
    assert len(le.config_vector()) == le.config_bits


def test_le_config_rejects_wrong_source_count():
    le = LogicElement()
    with pytest.raises(ValueError):
        le.configure(
            LEConfig(
                lut_tables=[None, None, None],
                validity_sources=(ValiditySource(VALIDITY_SOURCE_INPUT, 0),),
            )
        )


def test_validity_source_validation():
    with pytest.raises(ValueError):
        ValiditySource("bogus", 0)
    with pytest.raises(ValueError):
        ValiditySource(VALIDITY_SOURCE_INPUT, -1)

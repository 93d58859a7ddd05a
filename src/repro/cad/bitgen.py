"""Configuration generation: from packed PLBs to PLB configurations and a
full fabric bitstream.

For every packed PLB the generator:

1. assigns the LE's logical input nets to physical LUT pins (``i0..``) and the
   validity inputs to ``v0``/``v1``;
2. rewrites the mapped truth tables over those physical pins;
3. routes the PLB's interconnection matrix: LE inputs are fed either from
   another LE output inside the PLB, from the PDE output, or from the PLB
   input pin the design's pin binding (:func:`repro.cad.pack.bind_pins`)
   gives the net; each exported output is routed to its bound output pin.
   The router connects the routed nets to the same pins;
4. programs the PDE tap from the mapped matched delay.

Each PLB configuration is then encoded through the architecture's one
:class:`~repro.core.layout.PLBLayout` into its region of the fabric-level
:class:`~repro.core.bitstream.Bitstream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cad.lemap import MappedDesign, MappedPLB
from repro.cad.pack import bind_pins
from repro.cad.place import Placement
from repro.core.bitstream import Bitstream, BitstreamBudget
from repro.core.im import IMConfig
from repro.core.layout import PLBLayout
from repro.core.le import LEConfig
from repro.core.params import ArchitectureParams
from repro.core.pde import PDEConfig, tap_for_delay
from repro.core.plb import PLBConfig


class ConfigurationError(RuntimeError):
    """Raised when a packed PLB cannot be expressed as a legal configuration."""


@dataclass
class ConfiguredPLB:
    """One PLB's configuration plus the net <-> pin binding it was built from."""

    config: PLBConfig
    input_pin_of_net: Mapping[str, str]
    output_pin_of_net: Mapping[str, str]


def configure_plbs(design: MappedDesign, params: ArchitectureParams) -> dict[str, ConfiguredPLB]:
    """Build the :class:`PLBConfig` realising every packed PLB, by PLB name."""
    binding = bind_pins(design)
    return {
        plb.name: _configure_plb(
            plb, binding.inputs[plb.name], binding.outputs[plb.name], params
        )
        for plb in design.plbs
    }


def _configure_plb(
    plb: MappedPLB,
    input_pin_of_net: Mapping[str, str],
    output_pin_of_net: Mapping[str, str],
    params: ArchitectureParams,
) -> ConfiguredPLB:
    plb_params = params.plb
    le_params = plb_params.le

    internal_signal_of_net: dict[str, str] = {}
    for le_index, le in enumerate(plb.les):
        for function_index, function in enumerate(le.functions):
            internal_signal_of_net[function.output_net] = f"le{le_index}_o{function_index}"
        if le.validity is not None:
            internal_signal_of_net[le.validity.output_net] = f"le{le_index}_ov"
    if plb.pde is not None:
        internal_signal_of_net[plb.pde.output_net] = "pde_out"

    def input_signal_for(net: str) -> str:
        return internal_signal_of_net.get(net) or input_pin_of_net[net]

    im_routes: dict[str, str] = {}
    le_configs: list[LEConfig] = []

    for le_index, le in enumerate(plb.les):
        # Assign logical nets to physical LUT pins.
        pin_of_net: dict[str, str] = {}
        for net in le.lut_input_nets:
            if net not in pin_of_net:
                pin_index = len(pin_of_net)
                if pin_index >= le_params.lut_inputs:
                    raise ConfigurationError(
                        f"LE {le.name} needs more than {le_params.lut_inputs} LUT inputs"
                    )
                pin_of_net[net] = f"i{pin_index}"

        lut_tables = []
        for function in le.functions:
            lut_tables.append(function.table.rename(pin_of_net))
        while len(lut_tables) < le_params.lut_outputs:
            lut_tables.append(None)

        validity_table = None
        validity_pin_of_net: dict[str, str] = {}
        if le.validity is not None:
            for net in le.validity.input_nets:
                if net not in validity_pin_of_net:
                    pin_index = len(validity_pin_of_net)
                    if pin_index >= le_params.validity_lut_inputs:
                        raise ConfigurationError(
                            f"LE {le.name} validity function needs more than "
                            f"{le_params.validity_lut_inputs} inputs"
                        )
                    validity_pin_of_net[net] = f"v{pin_index}"
            validity_table = le.validity.table.rename(validity_pin_of_net)

        le_configs.append(LEConfig(lut_tables=lut_tables, validity_table=validity_table))

        # IM routes feeding this LE's pins.
        for net, pin in pin_of_net.items():
            im_routes[f"le{le_index}_{pin}"] = input_signal_for(net)
        for net, pin in validity_pin_of_net.items():
            im_routes[f"le{le_index}_{pin}"] = input_signal_for(net)

    # PDE configuration and feed.
    pde_config = PDEConfig()
    if plb.pde is not None:
        try:
            tap = tap_for_delay(plb.pde.delay_ps, plb_params.pde_taps, plb_params.pde_step_ps)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        pde_config = PDEConfig(tap=tap, used=True)
        im_routes["pde_in"] = input_signal_for(plb.pde.input_net)

    # PLB outputs: each exported net leaves on its bound output pin.
    for net, pin in output_pin_of_net.items():
        im_routes[pin] = internal_signal_of_net[net]

    config = PLBConfig(le_configs=le_configs, pde_config=pde_config, im_config=IMConfig(routes=im_routes))
    return ConfiguredPLB(
        config=config, input_pin_of_net=input_pin_of_net, output_pin_of_net=output_pin_of_net
    )


def generate_bitstream(
    design: MappedDesign,
    placement: Placement,
    params: ArchitectureParams,
) -> tuple[Bitstream, dict[str, ConfiguredPLB]]:
    """Produce the full fabric bitstream for a packed & placed design."""
    budget = BitstreamBudget.for_architecture(params)
    layout = PLBLayout.for_params(params.plb)
    bitstream = Bitstream(budget)
    configured = configure_plbs(design, params)
    for name, configured_plb in configured.items():
        x, y = placement.site_of(name)
        bitstream.set_region(f"plb_{x}_{y}", layout.encode(configured_plb.config))
    return bitstream, configured

"""Golden digests of complete flow outputs.

Each entry pins one flow bit for bit: a sha256 over the JSON-rendered
``summary()`` (sorted keys), the bitstream bytes and every routed net's node
list.  Any change to placement, routing, timing or bitgen output shows up as
a digest mismatch, so a refactor of the placer's cost cache or the router's
search must keep all of them green.  A deliberate output change updates the
table and says why in CHANGES.md.

The matrix covers both logic styles, both encodings, fifos, adders and the
decomposed multiplier under default options, plus four timing-driven flows
(the ``crit * delay + (1 - crit) * congestion`` router blend and the
criticality-polished placement) on fabrics from 4x4 to 6x6.
"""

import hashlib
import json

import pytest

from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams, RoutingParams

#: The standard routable fabric (the golden multiplier test's geometry).
ROUTABLE = ArchitectureParams(routing=RoutingParams(channel_width=10))

PARITY_CIRCUITS = (
    "qdi_full_adder",
    "qdi_full_adder_1of4",
    "micropipeline_full_adder",
    "qdi_multiplier_2x2",
    "wchb_fifo_4",
    "wchb_fifo_8",
    "qdi_ripple_adder_2",
    "qdi_ripple_adder_4",
)
PARITY_SEEDS = (1, 7)


def _fabric(size: int) -> ArchitectureParams:
    return ArchitectureParams(
        width=size,
        height=size,
        routing=RoutingParams(channel_width=10, io_pads_per_side=6),
    )


#: (circuit, seed, architecture) of the timing-driven flows.
TIMING_FLOWS = (
    ("qdi_multiplier_2x2", 5, ROUTABLE),
    ("wchb_fifo_8", 5, ROUTABLE),
    ("qdi_ripple_adder_2", 5, _fabric(4)),
    ("qdi_ripple_adder_4", 8, _fabric(5)),
)

GOLDEN_DEFAULT = {
    "qdi_full_adder@1": "00b4114390d408a6526075ed80b0919d1a68b9d9157b8367bbdab5996a9adabe",
    "qdi_full_adder@7": "095260c3bc0628fb0f4a2b88c7f7222f6903587f967d5a21eed3a3bef47ab8a6",
    "qdi_full_adder_1of4@1": "d5bb55f320ee27abb75f867933f6a9b881e39164465b557b8264dd482dd2b01e",
    "qdi_full_adder_1of4@7": "398b866b48151e017b7caefed809537c8a7efa24b5dfee1a1e4b055fdee6c573",
    "micropipeline_full_adder@1": "b11553ed6960da49f7c41a83e804499dea8f9a7e794683ba169f5d09fa9dc06d",
    "micropipeline_full_adder@7": "7095f00d11a3c3454af0dd1ebd82c7b6cbb4f92addfdee0b1351ac49c467fffd",
    "qdi_multiplier_2x2@1": "f19810d9fff6746a6ec30950226ded6ec55e6346f62461f531c7e1bbafc6b9cb",
    "qdi_multiplier_2x2@7": "6d2d7e55412d5f58cb4bff8572319470ac54bc24e37490b964074b46eab89b84",
    "wchb_fifo_4@1": "f8b43994ae5a7754117a6931d54968ef31682f35b003c1d8985da1e332fbf2e8",
    "wchb_fifo_4@7": "8306eda70f849fbe666ab38f31d20a363399271abafc071eb9f3935d32b85802",
    "wchb_fifo_8@1": "8b45dfafcf70b2ce37d09594217bd26553ad24bc8e368a3218320fe792750dc5",
    "wchb_fifo_8@7": "1dc7f2219596716db5bb1e163308455d974ef3c5f50382627974370ef597cd26",
    "qdi_ripple_adder_2@1": "b4f9674682104e63f3e0248c7a5f72001b13c8ea3811fa060e6d993e177389ff",
    "qdi_ripple_adder_2@7": "93dfc1b1f22ec3a791e71712f18f5f9e58f88d22790b55055a1ab6946c1379ca",
    "qdi_ripple_adder_4@1": "fb8bebc37de3f128fc27ad3f0edda5c8a5e875fa9ce2cbaa208ae027317c18e4",
    "qdi_ripple_adder_4@7": "0674e3aaabca1ec60af1e494c4e9f5432909ba8dcecde479bf8fa3b5ba656e1c",
}

GOLDEN_TIMING = {
    "qdi_multiplier_2x2@5": "947fd825f1a73b3e8902f1a1c8f327312998f108b901d0414ab438c64af3fff3",
    "wchb_fifo_8@5": "40f9fcf2becd96715d0d05a6efe6d63f50be8478bd43b5677a8ab722e0eb7e2f",
    "qdi_ripple_adder_2@5": "a1ad5f75bf5d4ad612c4c86be2e42b7662ecc54b7d87c0d4ebb5ffa5d5dc0825",
    "qdi_ripple_adder_4@8": "fdc2b51b46b71aa8cf192cf9ff699657db9fe1e19bbd9ae6a114d1cd2878521c",
}


def flow_digest(result) -> str:
    """sha256 over the summary JSON, the bitstream and the routed trees."""
    digest = hashlib.sha256()
    digest.update(json.dumps(result.summary(), sort_keys=True, default=str).encode())
    digest.update(b"\0bitstream\0")
    if result.bitstream is not None:
        digest.update(result.bitstream.to_bytes())
    digest.update(b"\0routing\0")
    if result.routing is not None:
        trees = {net: tree.nodes for net, tree in result.routing.routed.items()}
        digest.update(json.dumps(trees, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", PARITY_CIRCUITS)
@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_default_flow_matches_golden_digest(name, seed):
    result = CadFlow(ROUTABLE, FlowOptions(placement_seed=seed)).run(build_circuit(name))
    assert flow_digest(result) == GOLDEN_DEFAULT[f"{name}@{seed}"]


@pytest.mark.parametrize(("name", "seed", "architecture"), TIMING_FLOWS)
def test_timing_driven_flow_matches_golden_digest(name, seed, architecture):
    options = FlowOptions(placement_seed=seed, timing_driven=True)
    result = CadFlow(architecture, options).run(build_circuit(name))
    assert result.timing_driven
    assert flow_digest(result) == GOLDEN_TIMING[f"{name}@{seed}"]

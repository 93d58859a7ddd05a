"""Golden digests of complete flow outputs.

Each entry pins one flow bit for bit: a sha256 over the JSON-rendered
``summary()`` (sorted keys), the bitstream bytes and every routed net's node
list.  Any change to placement, routing, timing or bitgen output shows up as
a digest mismatch, so a refactor of the placer's cost cache or the router's
search must keep all of them green.  A deliberate output change updates the
table and says why in CHANGES.md.

The matrix covers both logic styles, both encodings, fifos, adders and the
decomposed multiplier under default options, plus six timing-driven flows
(the ``crit * delay + (1 - crit) * congestion`` router blend and the
criticality-polished placement) on fabrics from 4x4 to 6x6.  Two of those
(:data:`REFINING_FLOWS`) re-route critical nets in the post-negotiation
refinement pass, so its accepted, displaced and rolled-back trees are pinned
too, not only its searches.  Every golden flow also checks that each routed
net reaches and leaves its PLBs on the pins their interconnection matrices
bind it to.

:data:`GOLDEN_MAPPED` pins the mapped design of every registry circuit on
the paper-default architecture, one sha256 over its ``to_dict()`` JSON.  The
flow digests reach only eight circuits; this table also covers the ``gen:``
specs, the wider adders and the 4x4 multiplier, so a mapping or
decomposition edit that changes any LE function fails here first.

:data:`GOLDEN_COMPOSED` pins compositions the registry misses the same way:
the single-acknowledge and 1-of-4 QDI ripple adders and two ``gen:`` sizes
off the default ladders.

:data:`GOLDEN_PLACEMENTS` pins every placement those flows anneal, one
sha256 over each ``Placement.to_dict()`` JSON: the default anneal of every
default flow, and both the baseline anneal and the criticality polish of
every timing-driven flow.  The summary sees only the final placement and
none of the annealer's ``bbox_updates``, so a cost-cache edit that drifts a
counter, or the baseline the polish replaces, fails here and nowhere else.
"""

import hashlib
import json
import sys

import pytest

import repro.cad.flow as flow_module
from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.adders import qdi_ripple_adder
from repro.circuits.registry import build_circuit, circuit_registry
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
    ("qdi_multiplier_2x2", 1, ArchitectureParams()),
    ("qdi_multiplier_2x2", 2, ROUTABLE),
)

#: Timing-driven flows whose refinement pass accepts re-routed critical nets:
#: seed 1 on the paper-default 6x6/cw8 fabric takes hard-capacity trees, one
#: displacement whose victims find homes and rolls back failed relocations;
#: seed 2 on the routable fabric re-routes three nets.
REFINING_FLOWS = {"qdi_multiplier_2x2@1", "qdi_multiplier_2x2@2"}

GOLDEN_DEFAULT = {
    "qdi_full_adder@1": "b1c9b08bd698f15c93decea95eef6de822488c67173a862a4c956707155c4109",
    "qdi_full_adder@7": "1491223476961ae787170e9ff3257f1bda9c161896a9efc612f7b67797e92902",
    "qdi_full_adder_1of4@1": "b707f7331498b9235fba4e4f859223fb7535be8c45f89952f0ef2ccb6bdf5028",
    "qdi_full_adder_1of4@7": "9015e5fa3d221c7586aa2977852ed7aa4f410b9a87a37713e9f5d5de03f2d911",
    "micropipeline_full_adder@1": "019d1a7fcbcb6083ffb64262db16c5ff9497eaba18856c2dd31aa2d5ffade7ff",
    "micropipeline_full_adder@7": "80e861ea5c71086e04a0563ea5f1fb63c4e648a42e139c1397e3c8338e850375",
    "qdi_multiplier_2x2@1": "f85562b5d91ce09ab436ff04d4268cab834ceb62104a8c52a72a5fec2991eba1",
    "qdi_multiplier_2x2@7": "9bf8024352fafc41af32c280ee07a9717f0aa61d5627dcd086338cbbb0c8dfd9",
    "wchb_fifo_4@1": "f59c6e16e1d28e48dbf167d9d34599eb8bc1158567edfdc72ce486f0d57522fc",
    "wchb_fifo_4@7": "ec463861b8f1465984119a32a181779f9283e83519e045ba05a9f05754fddc58",
    "wchb_fifo_8@1": "7c559ec1a46da5967f79a5ef1ddfcf32daf45a844a8db355e52e82afe9e6a553",
    "wchb_fifo_8@7": "f91cd3baf71850386051fd47f26223e53473797bd638041417b33df7226ed11c",
    "qdi_ripple_adder_2@1": "cabcc80b41c2c3ba97d4a9696077384866d8e19886119f1d5bcf599f658b1550",
    "qdi_ripple_adder_2@7": "06b8d8760fbdf606dab67734c8910ddca6a1cd1e9cecab8a1496e3f935b0a4dc",
    "qdi_ripple_adder_4@1": "494cadbdaa3b7912af01477bf98f47af934c1b81776ea14ecf97650660b858d4",
    "qdi_ripple_adder_4@7": "66afb5adcc3c0f4f9ad01181e0c55edcac4b6423dfc8dbd87482310743f28e9f",
}

GOLDEN_TIMING = {
    "qdi_multiplier_2x2@5": "7cfb4896ea41dee8719b1de814c6daacecf5d68aa7239cb3374b04f3bee2b3ae",
    "wchb_fifo_8@5": "41438b142b271ce2aa3085048c837ccccf54932a10c95e09a24ada2fef6bceed",
    "qdi_ripple_adder_2@5": "8a819725f21fa08424d1595009c0ac6f8e1b157b6ad7059f294049b46b97a467",
    "qdi_ripple_adder_4@8": "ed237c28535857019db47b577686abebb083b415e8007b75fc5bd75e53cea897",
    "qdi_multiplier_2x2@1": "f0821981f1b6d88df81f601c8688937b97806b201837bf4b218212ae74b338ef",
    "qdi_multiplier_2x2@2": "006fa781a439a58480f45ff9f5b413343761093a1be90c2bd7858ef72e000fd0",
}


#: sha256 of ``json.dumps(mapped.to_dict(), sort_keys=True)`` per registry
#: circuit on ``ArchitectureParams()``.
GOLDEN_MAPPED = {
    "qdi_full_adder": "370ffe199a9f7d016fac23cb8ff78e4895354136ce13520b72661e832fca1838",
    "qdi_full_adder_1of4": "b39ebdf0e34705b09fca8c6b7f584eeeeb709674c79e964a5ffbf727c0838763",
    "micropipeline_full_adder": "f401e4dce433dd02efe0ec9937036c57c56e319dcfca86dcf350a046d7b72405",
    "qdi_multiplier_2x2": "660428de739c5a7d2ffae900262456a2c0005fe750d8c0f63c45379866958658",
    "qdi_multiplier_4x4": "0139f3a5da3ad938cef40652b4c41934bf9b64404b3e415b9d78ffce51831524",
    "wchb_fifo_4": "6991bbf5677dc72287212e269c561115b2365abed7f63ca56d4ce09898c0a6e5",
    "wchb_fifo_8": "1250fe4ea57e4ad591dffe11720876ae98b10665bd73d1ea6ecde3607dc68918",
    "qdi_ripple_adder_2": "19d7578dbe7d3f639b9168d3aee6c63ef28d5aecedb661a5bb89f940571157fc",
    "micropipeline_ripple_adder_2": "8909f15c0255ad1298f7bf13dd3c493ab6d6b52cf98fa51d404b7a855bbb8c70",
    "qdi_ripple_adder_4": "4a629cc383538c3ff52d3845a4ee3d1294e508fb6cf177b320af753f843eb15d",
    "micropipeline_ripple_adder_4": "2e1906ee2cd7b13950eb6cd44fe8ba528e6818946d007cb9aecf93f9d1755af8",
    "qdi_ripple_adder_8": "f5d396edb53f2ef3afb184d93a0f66f1def17f6303f19d07c932e975eb00b57d",
    "micropipeline_ripple_adder_8": "cf5c141bd0d952d9479c00f6717bef6d30944759b56ec42ea2cd1422ba67a08d",
    "qdi_ripple_adder_16": "2955a04f4ec2225d22280a28a523c0d744b420d8865b64c2ca30f688652fabf3",
    "micropipeline_ripple_adder_16": "6710efbe849bc71187a269bcd38592ff17dc451d60840428624429b5506cea7e",
    "gen:mult2x2@qdi": "76a417c9db1765a4ffc0968777a02f5ca9bb9bdeec18418d7f636572c7cef110",
    "gen:mult2x2@micropipeline": "300862ad4444fdb8ef86bf22a16fee1cf44c9613b817b8b7813da8727ffcd51c",
    "gen:mult4x4@qdi": "46c4622c290865f488a8f1d60c44d11f18d4cc2d4fa93141df8db7b3f58faf31",
    "gen:mult4x4@micropipeline": "78e595e43ef9f259a8bb2afe54ef11eb4e8dbb38384147789b31b09ebe56cb55",
    "gen:alu2@qdi": "4c6a2bbe9fa98d59e452af82b081dd3716e2d743dfbb947af59549fcd91d7b3d",
    "gen:alu2@micropipeline": "d71b0a5a1e72748ec307622ba2ac58b44cba4e0de2142204ec37de073c2555de",
    "gen:alu4@qdi": "b0637626dfe7b9d7b229b55b701c69cc62d9b6dee2afb6b0da53df560edd1600",
    "gen:alu4@micropipeline": "85ec17c153d67753f2f8672c63da82d42a6cd51dc38774bf72e8a904b1906d30",
    "gen:crc4@qdi": "437b5804af2091546ac1b200bfaca984e005facb1374588044e547d8333b2eb2",
    "gen:crc4@micropipeline": "4b4e9f99f3dd36a99576db1ed914bdc69af85e72bd1519cb5386d2b02c122fad",
    "gen:crc8@qdi": "ccc0c27bba2e8c78ec4e80465ab1a8fc6be998ba99b5b1a47d5f30c5ad71f687",
    "gen:crc8@micropipeline": "3d756f03a50faa02ad50c895b848e629f7642a133e4b8e523899040f81fc97b3",
    "gen:mac2@qdi": "3eedd9487b5c607b9602eca1e02f97cac7fb15681227f6888ff14f9871497848",
    "gen:mac2@micropipeline": "e32599000f5f02311d51edd704bf15b460db075371dd43e3d4d15b54f1a4a1b6",
    "gen:mac4@qdi": "cb07f89dfed667bfa355f0a8c7583f9368f534cb478c09c8c80d1aa7c4901e1a",
    "gen:mac4@micropipeline": "3ed19fd7bc0cadd7ebd288e1042dfb49e8d8cd52e10f889713901d006caa1ddb",
}

#: Compositions outside the registry, built on ``PLBParams()``.
COMPOSED = {
    "qdi_ripple_adder(1)": lambda: qdi_ripple_adder(1),
    "qdi_ripple_adder(4, 1-of-4)": lambda: qdi_ripple_adder(4, encoding="1-of-4"),
    "gen:mult3x3@qdi": lambda: build_circuit("gen:mult3x3@qdi"),
    "gen:mult8x8@micropipeline": lambda: build_circuit("gen:mult8x8@micropipeline"),
}

#: sha256 of ``json.dumps(circuit.mapped.to_dict(), sort_keys=True)`` per
#: :data:`COMPOSED` entry.
GOLDEN_COMPOSED = {
    "qdi_ripple_adder(1)": "737b3c6aabfef0e07a18c84e9dd884c492e154404b02fab3288a128d11838d3b",
    "qdi_ripple_adder(4, 1-of-4)": "e2f8ca285e9da0865914a2eddfab1d856f5feb4ff06cabe18ab418afdeab1875",
    "gen:mult3x3@qdi": "4f19560859bc22a6ffceec1aa423b7256783d0f81d4d44dab18418017e30b45a",
    "gen:mult8x8@micropipeline": "da1c8a5bd992713b9e8c67ca75dac31d331c0fcdb8373187bdaa1d9146ad12a1",
}


#: sha256 of ``json.dumps(placement.to_dict(), sort_keys=True)`` for every
#: ``place_design`` call of each golden flow, in call order: one anneal per
#: default flow, the baseline anneal then the polish per timing-driven flow.
GOLDEN_PLACEMENTS = {
    "qdi_full_adder@1": [
        "2adcb1d957e0347ab445892403b2630f8e041a20576832b1f684b6dd615ac641",
    ],
    "qdi_full_adder@7": [
        "405f5293ee37f0a81de19be73b7abd33a2c6ad4c00faa15a65276e9ba1c2abb0",
    ],
    "qdi_full_adder_1of4@1": [
        "9810f1c8b1e3d1fd7d11d5a4e6e78c88f85b9a248613d1bbb79bf3506df1898e",
    ],
    "qdi_full_adder_1of4@7": [
        "f731a59d1ddbfdf360678a5af4607fd37ea24348667e8acbb7b570b5c0dd1647",
    ],
    "micropipeline_full_adder@1": [
        "7502bd1340f89fbbf65ccca77b5b4abad10571d174fe7abb5c45f47000bdf88e",
    ],
    "micropipeline_full_adder@7": [
        "3b9d9e68c796002f754ec6a8c92bd8463de73b10e45708cd2e161d97ec8d3716",
    ],
    "qdi_multiplier_2x2@1": [
        "4bfd2601e61743fc225f070264bcb2d6db778cc6f56711f9b4f8458b455ede4a",
    ],
    "qdi_multiplier_2x2@7": [
        "2073e5d4304c227a057b8e27dfbc1bf3208d71ee554c8b09423075b192c9d3e2",
    ],
    "wchb_fifo_4@1": [
        "48b164b5f5478c6e2da8177c8634b3b2b3eab15007e9b711aeea44a501b7ee89",
    ],
    "wchb_fifo_4@7": [
        "3ad3733f0603a0c549721810e00e16b25a3d2080af1dd5e499b1d60eaf193514",
    ],
    "wchb_fifo_8@1": [
        "bbd59ac1fdbfb517ed54b1245ed2ae6c914ed90cae3e06c1b58d14d85e084cf5",
    ],
    "wchb_fifo_8@7": [
        "8be95169ef76f812f501ddc87b8cdbabc6e4414dd7362d6846cccdab3d023dc0",
    ],
    "qdi_ripple_adder_2@1": [
        "88da4b96087a2862f37f0b6d680d7ce224c3603800c3372352a86e02439de014",
    ],
    "qdi_ripple_adder_2@7": [
        "438e0a58dcb0cd4af028a63649cfb6674fa83703472222743e49a5edecd2d4eb",
    ],
    "qdi_ripple_adder_4@1": [
        "3febb06f9cc1103e2f18031c55d4d068a7f45f74dabde76979565ac997b2397c",
    ],
    "qdi_ripple_adder_4@7": [
        "84667f91d45fd56141a6a1bd4a3d9a4014b6a240d411f161c9a49b171b8dd547",
    ],
    "timing:qdi_multiplier_2x2@5": [
        "9211bd1930aca754e5dfb857ead37551abf424f3129104fb5449e043338f7f0b",
        "17e6b6dec18bbf125d2f9dda1a606568019db4adef418f85109499f452285c95",
    ],
    "timing:wchb_fifo_8@5": [
        "654ea38213da1164fad0b2899b56175934dacf174b1c40642d0a50dc98458cd4",
        "f06456fce2390dfa52decce42dc1e31bd8fe596ad290e2bc742761373d8148e7",
    ],
    "timing:qdi_ripple_adder_2@5": [
        "e501cd1bc4021d8e5092e90a189f6902f8a35e30cc61a772850549e228f54b1e",
        "e60b20eaa66eb1696354db731cff07bfea147868a0e9e654607bab4f4c173162",
    ],
    "timing:qdi_ripple_adder_4@8": [
        "60eb6d4f6389f1e090697630485bb9b8e9e5acc24dae12c216362a5a6faf3481",
        "3a2e44bdcfb5147762d68c6a0f66dc567cb59d1140542e497b1bd5c076809451",
    ],
    "timing:qdi_multiplier_2x2@1": [
        "4bfd2601e61743fc225f070264bcb2d6db778cc6f56711f9b4f8458b455ede4a",
        "65d7dfde15122c8f79cf6ad3f9b0a13fb333c2406b62fd183e19796ad5ce52da",
    ],
    "timing:qdi_multiplier_2x2@2": [
        "a2f53be1f9969ab490420cfa7a00b2053df34dd816fefe2c3bdd53866ed6a9c5",
        "dc92a8723a52bcdb8b8d07792378a27a795dfe5476bec17511f9d825a2d8be57",
    ],
}

#: Python 3.12's ``sum()`` is compensated and 3.11's is not, so the blended
#: ``cost`` and ``initial_cost`` of two polishes differ in their last bits
#: between the interpreters.  Their sites, pads and counters do not.
if sys.version_info >= (3, 12):
    GOLDEN_PLACEMENTS["timing:qdi_multiplier_2x2@5"][1] = (
        "01c4a403f20a03e23bdd999c5dc3be674fbb452f4855e60630619af0b6fc53b7"
    )
    GOLDEN_PLACEMENTS["timing:qdi_multiplier_2x2@1"][1] = (
        "3e785514e4d30ac33738eec19c99303a9aefe3fad7541503742b09b84dead692"
    )


def placement_digest(placement) -> str:
    payload = json.dumps(placement.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def capture_placements(monkeypatch) -> list:
    """Wrap the flow's ``place_design``; the list fills with its placements."""
    captured: list = []
    original = flow_module.place_design

    def place_and_capture(*args, **kwargs):
        placement = original(*args, **kwargs)
        captured.append(placement)
        return placement

    monkeypatch.setattr(flow_module, "place_design", place_and_capture)
    return captured


def mapped_digest(mapped) -> str:
    payload = json.dumps(mapped.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


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


def assert_routes_meet_bound_pins(result) -> None:
    """Every routed net reaches and leaves each PLB on the pin its IM binds."""
    checked = 0
    for assignment in result.routing.pin_assignments:
        configured = result.configured_plbs.get(assignment.block)
        if configured is None:
            continue  # an IO pad
        bound = configured.output_pin_of_net if assignment.is_driver else configured.input_pin_of_net
        assert bound.get(assignment.net) == assignment.pin, assignment
        checked += 1
    assert checked == sum(
        len(plb.input_pin_of_net) + len(plb.output_pin_of_net)
        for plb in result.configured_plbs.values()
    )


@pytest.mark.parametrize("name", PARITY_CIRCUITS)
@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_default_flow_matches_golden_digest(name, seed, monkeypatch):
    placements = capture_placements(monkeypatch)
    result = CadFlow(ROUTABLE, FlowOptions(placement_seed=seed)).run(build_circuit(name))
    key = f"{name}@{seed}"
    assert_routes_meet_bound_pins(result)
    assert flow_digest(result) == GOLDEN_DEFAULT[key]
    assert [placement_digest(p) for p in placements] == GOLDEN_PLACEMENTS[key]


@pytest.mark.parametrize(("name", "seed", "architecture"), TIMING_FLOWS)
def test_timing_driven_flow_matches_golden_digest(name, seed, architecture, monkeypatch):
    placements = capture_placements(monkeypatch)
    options = FlowOptions(placement_seed=seed, timing_driven=True)
    result = CadFlow(architecture, options).run(build_circuit(name))
    assert result.timing_driven
    key = f"{name}@{seed}"
    if key in REFINING_FLOWS:
        assert result.summary()["critical_nets_rerouted"] > 0
    assert_routes_meet_bound_pins(result)
    assert flow_digest(result) == GOLDEN_TIMING[key]
    # Baseline anneal, then the polish under the blended objective.
    assert [placement_digest(p) for p in placements] == GOLDEN_PLACEMENTS[f"timing:{key}"]


def test_golden_placement_table_covers_every_flow():
    flows = list(GOLDEN_DEFAULT) + [f"timing:{key}" for key in GOLDEN_TIMING]
    assert sorted(GOLDEN_PLACEMENTS) == sorted(flows)


def test_golden_mapping_table_covers_the_registry():
    assert list(GOLDEN_MAPPED) == list(circuit_registry())


@pytest.mark.parametrize("name", list(GOLDEN_MAPPED))
def test_mapped_design_matches_golden_digest(name):
    circuit = build_circuit(name)
    # Composed circuits (ripple adders, the 4x4 multiplier, the gen: specs)
    # carry a design mapped at build time; the others map through the flow.
    mapped = getattr(circuit, "mapped", None)
    if mapped is None:
        mapped = CadFlow(ArchitectureParams()).map(circuit)
    assert mapped_digest(mapped) == GOLDEN_MAPPED[name]


def test_golden_composition_table_covers_its_builders():
    assert list(GOLDEN_COMPOSED) == list(COMPOSED)


@pytest.mark.parametrize("name", list(GOLDEN_COMPOSED))
def test_composed_design_matches_golden_digest(name):
    assert mapped_digest(COMPOSED[name]().mapped) == GOLDEN_COMPOSED[name]

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
    "qdi_full_adder@1": "ccc1cffde57d7b42124b6c29aac83b81985efc6335a9af3d1b98e4d0b40a9abf",
    "qdi_full_adder@7": "43f2868dbb9cec354153cd760e8fd4f5ccfd2388946decc6d77241b5cb212b6f",
    "qdi_full_adder_1of4@1": "be0babbc050f2a6f4eb0b91019e132c08f8264bb793c0be4aca86f9fa73fa70c",
    "qdi_full_adder_1of4@7": "f07e44ddd96547d2314f2fd70efa72de293e894dc7203790681ca0d5f577c85c",
    "micropipeline_full_adder@1": "1c6a1767141305b3c468ac1efa6b818408e874715ad950c711f855c7d4d556a3",
    "micropipeline_full_adder@7": "32746a3dcc4cf8554014cf8861d82597b2c191a057e1c1b48932d6b64f527995",
    "qdi_multiplier_2x2@1": "ea6b3781afe7d81dd0f7d2abc63537cbb2b627ba465a76f4218faebc7ac6e502",
    "qdi_multiplier_2x2@7": "8f372fbd33f295b4b0db5f5c5c4587fc4c1e5ebee82ffad3218a3c1cdf0964e2",
    "wchb_fifo_4@1": "2facb05429baa3ef0dcf3881585ccfaf330522c25ccff8d5c852048bf6e634e9",
    "wchb_fifo_4@7": "a2cea447e7bd567f6e6816da8ddec21be9c1f179c1cbd51b5cfacfc2787326a7",
    "wchb_fifo_8@1": "83d2c0669803daea427d9545b3c7b70f36a634aac58f4cf4d5ddea2b1de06b4d",
    "wchb_fifo_8@7": "b7342c5288b18f572c3c6de8eeed4128c647628b36ed15daf7ec71c5df6feb10",
    "qdi_ripple_adder_2@1": "80aa0f0c3cae48c06d944a9647c8316ad14180363c525e2f0a7ff0d74a8cffa1",
    "qdi_ripple_adder_2@7": "e416887a98b4c796397736b196929459a4238811692af59123533f06ee5c234b",
    "qdi_ripple_adder_4@1": "a31df7253a33c1bfbc000832d63403d146e7a357cb707d0f9af78123f853a27b",
    "qdi_ripple_adder_4@7": "46053f3bbd3ab866cde038abf7d3bacf527fbfae0d02c8c7fb380c0375f65d75",
}

GOLDEN_TIMING = {
    "qdi_multiplier_2x2@5": "f976f5ed00839b6ad35511c6513658e09c3fef6d909aeb7dc8702399047956f4",
    "wchb_fifo_8@5": "b19a8864ec24bbd1503a75d0f4514efa21edf934c5f11e03ae3487af769eca18",
    "qdi_ripple_adder_2@5": "f6c140693c0eba8490bd59115832d5543a3c1bc5328c975e3ae0dc84bd974179",
    "qdi_ripple_adder_4@8": "e10eb4e34fb074db1297b038517460c39975092776a0356afb0024c238c0f588",
    "qdi_multiplier_2x2@1": "238ea98a961ca37b5da9e75d0f928b694c8ebc88054f83d2b25e459ab0f71dc4",
    "qdi_multiplier_2x2@2": "5345ed025f9b125b78a21f3aabd8c30a0c44b50b4f6b349726541637b0f06bd6",
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
        "f38ce3411b68c2b2c012db91bb88ac3b9c86193a4c932a90e9a3b6f0c6564cde",
    ],
    "qdi_full_adder@7": [
        "457f577a8f5233a2e526c31d83447234c52f3f585559279619136147ceb2e7f1",
    ],
    "qdi_full_adder_1of4@1": [
        "701767593d5befaa69a9db93426a3d2c0d950863c3825531615de850f26c7c64",
    ],
    "qdi_full_adder_1of4@7": [
        "b23566567e6baf2e4eca9db47fb90d6a99bb1cda9fe09708d3916e8934fd9c36",
    ],
    "micropipeline_full_adder@1": [
        "ab46153b91697dc9e6a1b2e38d8986a3572bd0528b4c19d804ff96a57bcf8ee8",
    ],
    "micropipeline_full_adder@7": [
        "b33970f442f9e0faaf9f93c1e48f2400c447950cb8973b51b8dc69dae1036ca8",
    ],
    "qdi_multiplier_2x2@1": [
        "677eec9461936db1c3b4d625879897fe64210f276d706adbf57d17187438736e",
    ],
    "qdi_multiplier_2x2@7": [
        "921626e3fa692a85fec0b0221ec10b02232d96543708acbbc96a6822015c652a",
    ],
    "wchb_fifo_4@1": [
        "e0fb3062d219aa5dee4e5355fb87066141a4efdb03b78ed626234be9bd03abf3",
    ],
    "wchb_fifo_4@7": [
        "de34e7e8317915c129f1da775444996314ec2ac9013f05e66275739b98cdd9dc",
    ],
    "wchb_fifo_8@1": [
        "efebdc6d0012750388a2102d77908e4888d335f079e75570be4776b468c03a24",
    ],
    "wchb_fifo_8@7": [
        "a069a5c23b3127a46ed7447ffa6db1733041f675207094a803735813100fb1ae",
    ],
    "qdi_ripple_adder_2@1": [
        "f187acf0f024dabb2f8e7ba45bb3e01e39cb1c6acd3c058ec21adc4e78ea291e",
    ],
    "qdi_ripple_adder_2@7": [
        "2ecbd3299622c6715a32dc6f1a08bb69ef8192e84f1a5c40dc46398fd0b1e0c7",
    ],
    "qdi_ripple_adder_4@1": [
        "d939b6547f652d8b987a0ad829f34dd61de2b28582ae332b290415fc8006a042",
    ],
    "qdi_ripple_adder_4@7": [
        "06019be164391d4a1ddcf4397af986d5515bd105da9f95430891768c73614ca9",
    ],
    "timing:qdi_multiplier_2x2@5": [
        "d8f865e44ec522754b2d87ca8e954f38a780bc1aae8cd736d06012797946c5db",
        "303e6fc4556027a6a37316f9ca0f3511057a68c4962780e702bb41929d67b648",
    ],
    "timing:wchb_fifo_8@5": [
        "1380ee148d07baa58894b84b966a65483e9d69212cedb6eeac87397c5a7a7881",
        "e40550377a2d2a50091d057aec626fe7de03e7267de31362509a9d1ce4722c26",
    ],
    "timing:qdi_ripple_adder_2@5": [
        "23d42d9e39b88d12237463d71179c2415db13a1f3cf409c0148738e594037fe3",
        "725bdac7c66a4d107aa3264eab12371ea5c56f74faf1dfa369aba11980122982",
    ],
    "timing:qdi_ripple_adder_4@8": [
        "98d27b0671dc598a3bf5af3a54e8f92e94547eb587f8143093c711004e51da7d",
        "f2973af88b9bd45633bfb7af1c4d2a8f5f5efb1389f04b38256eb552d29057cd",
    ],
    "timing:qdi_multiplier_2x2@1": [
        "677eec9461936db1c3b4d625879897fe64210f276d706adbf57d17187438736e",
        "2b2e177bab2985c2e2970fd6753e70e89981be9c75661bb5d076ad998776130d",
    ],
    "timing:qdi_multiplier_2x2@2": [
        "34a1b08af534d46b0c7c64d1524d20963e232b757fe2ea962bcbdc8346126b77",
        "842d2457a6aa4f4d25b964cf7536aac19f2e05fa61be8ae6a059287cd5518395",
    ],
}

#: Python 3.12's ``sum()`` is compensated and 3.11's is not, so the blended
#: ``cost`` and ``initial_cost`` of two polishes differ in their last bits
#: between the interpreters.  Their sites, pads and counters do not.
if sys.version_info >= (3, 12):
    GOLDEN_PLACEMENTS["timing:qdi_multiplier_2x2@5"][1] = (
        "c88bfd8233b20f35c704484d95d834ffaf434c6286b20a416e167c6ac085e3a3"
    )
    GOLDEN_PLACEMENTS["timing:qdi_multiplier_2x2@1"][1] = (
        "5b02cff6826737bf48f3e96474b5a1288f011084a3434312c0bfb7caf62b1742"
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

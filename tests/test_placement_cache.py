"""Tests of the incremental re-route path: the placement cache.

Acceptance criterion of the sweep subsystem: an options-only change (e.g.
routing channel width) re-runs a sweep point **without re-building,
re-mapping or re-placing** its circuit — the summary reports
``placement_cache_hit=True`` and the routed result is bit-for-bit identical
to a cold run of the same point.
"""

import pytest

import repro.circuits.registry as registry
from repro.artifacts import STAGES, ArtifactStore, load_flow_artifacts
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.place import Placement, place_design
from repro.circuits.fulladder import qdi_full_adder
from repro.circuits.registry import build_circuit
from repro.cad.techmap import template_map
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, RoutingParams
from repro.core.schema import CorruptArtifactError
from repro.cad.pack import pack_design
from repro.styles.base import StyledCircuit
from repro.sweep import RunnerConfig, SweepPoint, SweepResultStore, SweepRunner, SweepSpec

ARCH_CW8 = ArchitectureParams()
ARCH_CW10 = ArchitectureParams(routing=RoutingParams(channel_width=10))
FULL = FlowOptions()


def _placed_design(arch=ARCH_CW8, seed=1):
    mapped = template_map(qdi_full_adder(), arch.plb)
    pack_design(mapped, arch.plb)
    fabric = Fabric(arch)
    return mapped, fabric, place_design(mapped, fabric, seed=seed)


# ----------------------------------------------------------------------
# Placement serialization
# ----------------------------------------------------------------------
def test_placement_round_trips_through_dict():
    mapped, fabric, placement = _placed_design()
    rebuilt = Placement.from_dict(placement.to_dict())
    assert rebuilt.plb_sites == placement.plb_sites
    assert rebuilt.io_sites == placement.io_sites
    assert rebuilt.cost == placement.cost
    assert rebuilt.matches_design(mapped, fabric)


@pytest.mark.parametrize(
    "counter",
    [
        "cost",
        "iterations",
        "initial_cost",
        "moves_accepted",
        "net_evaluations",
        "net_count",
        "wirelength",
        "bbox_updates",
    ],
)
def test_placement_missing_counter_is_corrupt(counter):
    # A truncated record must not decode with the counter read as zero.
    _, _, placement = _placed_design()
    payload = placement.to_dict()
    del payload[counter]
    with pytest.raises(CorruptArtifactError, match=counter):
        Placement.from_dict(payload)


def test_placement_match_rejects_overlapping_sites_and_pads():
    # A parseable-but-corrupt record mapping two PLBs to one tile (or two
    # nets to one pad) must not be routed.
    mapped, fabric, placement = _placed_design()
    overlapping = Placement.from_dict(placement.to_dict())
    names = list(overlapping.plb_sites)
    overlapping.plb_sites[names[0]] = overlapping.plb_sites[names[1]]
    assert not overlapping.matches_design(mapped, fabric)

    double_pad = Placement.from_dict(placement.to_dict())
    nets = list(double_pad.io_sites)
    double_pad.io_sites[nets[0]] = double_pad.io_sites[nets[1]]
    assert not double_pad.matches_design(mapped, fabric)


def test_placement_match_rejects_other_design():
    mapped, fabric, placement = _placed_design()
    from repro.circuits.fulladder import micropipeline_full_adder

    other = template_map(micropipeline_full_adder(), ARCH_CW8.plb)
    pack_design(other, ARCH_CW8.plb)
    assert not placement.matches_design(other, fabric)


# ----------------------------------------------------------------------
# Placement key: what placement depends on, nothing more
# ----------------------------------------------------------------------
def test_placement_key_ignores_routing_only_knobs():
    base = SweepPoint("qdi_full_adder", ARCH_CW8, FULL)
    rerouted = SweepPoint("qdi_full_adder", ARCH_CW10, FULL)
    no_bitstream = SweepPoint(
        "qdi_full_adder", ARCH_CW8, FlowOptions(generate_bitstream=False)
    )
    assert base.placement_key() == rerouted.placement_key()
    assert base.placement_key() == no_bitstream.placement_key()
    assert base.key() != rerouted.key()  # the *flow* keys still differ


def test_placement_key_tracks_placement_inputs():
    base = SweepPoint("qdi_full_adder", ARCH_CW8, FULL)
    other_seed = SweepPoint("qdi_full_adder", ARCH_CW8, FlowOptions(placement_seed=2))
    other_grid = SweepPoint("qdi_full_adder", ARCH_CW8.scaled(8, 8), FULL)
    other_circuit = SweepPoint("micropipeline_full_adder", ARCH_CW8, FULL)
    other_pads = SweepPoint(
        "qdi_full_adder",
        ArchitectureParams(routing=RoutingParams(io_pads_per_side=6)),
        FULL,
    )
    keys = {
        base.placement_key(),
        other_seed.placement_key(),
        other_grid.placement_key(),
        other_circuit.placement_key(),
        other_pads.placement_key(),
    }
    assert len(keys) == 5


def test_placement_key_ignores_timing_knobs():
    # The cache holds the wirelength anneal, which no timing knob shapes:
    # a timing-driven point polishes the cached anneal itself, so timing
    # and default points with the same seed share one placement record.
    base = SweepPoint("qdi_full_adder", ARCH_CW8, FULL)
    timed = SweepPoint("qdi_full_adder", ARCH_CW8, FlowOptions(timing_driven=True))
    other_lambda = SweepPoint(
        "qdi_full_adder",
        ARCH_CW8,
        FlowOptions(timing_driven=True, timing_tradeoff=0.3),
    )
    assert base.placement_key() == timed.placement_key() == other_lambda.placement_key()


# ----------------------------------------------------------------------
# CadFlow placement injection
# ----------------------------------------------------------------------
def test_flow_uses_injected_placement_and_reports_hit():
    flow = CadFlow(ARCH_CW8, FULL)
    cold = flow.run(qdi_full_adder())
    assert cold.placement_cache_hit is None  # no cache involved
    warm = CadFlow(ARCH_CW8, FULL).run(qdi_full_adder(), placement=cold.placement)
    assert warm.placement_cache_hit is True
    assert warm.placement is cold.placement
    assert warm.summary()["placement_cache_hit"] is True
    assert "placement_cache_hit" not in cold.summary()


def test_injected_anneal_is_polished_like_a_cold_timing_run():
    # A cache hit must equal a cold run: a timing-driven flow handed the
    # wirelength anneal still runs the polish on it.
    timed = FlowOptions(timing_driven=True)
    anneal = CadFlow(ARCH_CW8, FULL).run(qdi_full_adder()).placement
    cold = CadFlow(ARCH_CW8, timed).run(qdi_full_adder())
    warm = CadFlow(ARCH_CW8, timed).run(qdi_full_adder(), placement=anneal)
    assert warm.placement_cache_hit is True
    warm_summary = warm.summary()
    warm_summary.pop("placement_cache_hit")
    assert warm_summary == cold.summary()
    assert warm.bitstream.to_bytes() == cold.bitstream.to_bytes()


def test_flow_discards_mismatched_injected_placement():
    bogus = Placement(plb_sites={"nonexistent_plb": (0, 0)})
    result = CadFlow(ARCH_CW8, FULL).run(qdi_full_adder(), placement=bogus)
    assert result.placement_cache_hit is False  # fell back to placing
    assert result.placement is not bogus
    assert result.routing is not None and result.routing.success


# ----------------------------------------------------------------------
# The acceptance criterion, end to end through the runner
# ----------------------------------------------------------------------
def test_options_only_change_reroutes_without_replacing(tmp_path):
    spec_cw8 = SweepSpec.build(["qdi_full_adder"], ARCH_CW8, FULL)
    spec_cw10 = SweepSpec.build(["qdi_full_adder"], ARCH_CW10, FULL)

    cold = SweepRunner(store=tmp_path / "store").run(spec_cw8)
    assert cold.outcomes[0].summary["placement_cache_hit"] is False

    warm = SweepRunner(store=tmp_path / "store").run(spec_cw10)
    assert warm.cache_misses == 1  # different flow key: the flow re-ran ...
    warm_summary = dict(warm.outcomes[0].summary)
    assert warm_summary.pop("placement_cache_hit") is True  # ... without re-placing

    control = SweepRunner(store=tmp_path / "control").run(spec_cw10)
    control_summary = dict(control.outcomes[0].summary)
    assert control_summary.pop("placement_cache_hit") is False
    assert warm_summary == control_summary  # bit-for-bit identical


def test_parallel_run_matches_serial_placement_cache_behaviour(tmp_path):
    # Points sharing a placement key must not race in a pool: the runner
    # schedules one leader per key first, so followers deterministically
    # reuse its placement and parallel runs cache the same records as
    # serial ones (executor choice never changes what is computed).
    architectures = (
        ARCH_CW8,
        ARCH_CW10,
        ArchitectureParams(routing=RoutingParams(channel_width=12)),
    )
    spec = SweepSpec.build(["qdi_full_adder"], architectures, FULL)
    serial = SweepRunner(store=tmp_path / "serial").run(spec)
    parallel = SweepRunner(
        store=tmp_path / "parallel", config=RunnerConfig(executor="process", workers=3)
    ).run(spec)
    hits = [outcome.summary["placement_cache_hit"] for outcome in parallel.outcomes]
    assert hits == [False, True, True]  # leader placed, followers reused
    assert parallel.summaries() == serial.summaries()


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends its arguments to the list returned."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _ladder(circuit, options, widths=(10, 11)):
    return [
        SweepPoint(
            circuit,
            ArchitectureParams(width=6, height=6, routing=RoutingParams(channel_width=width)),
            options,
        )
        for width in widths
    ]


def _assert_matches_cold_flows(points, report):
    for point, outcome in zip(points, report.outcomes):
        summary = dict(outcome.summary)
        summary.pop("placement_cache_hit")
        cold = CadFlow(point.architecture, point.options).run(build_circuit(point.circuit))
        assert summary == cold.summary(), point.label()


#: One circuit per construction path: styled QDI, styled micropipeline,
#: wide-function decomposition, a composed ripple adder and a generator spec.
LADDER_CIRCUITS = (
    "qdi_full_adder",
    "micropipeline_full_adder",
    "qdi_multiplier_2x2",
    "qdi_ripple_adder_2",
    "gen:mult2x2@qdi",
)


def test_timing_driven_ladder_sweep_matches_cold_flows(tmp_path, monkeypatch):
    # Every hit equals its cold flow, in default and timing-driven mode, and
    # runs from the cached packed design: only the ladder's first width
    # builds (and, for a styled circuit, maps) the circuit.  On the
    # timing-driven multiplier, seed 5 falls back to the baseline placement
    # at width 10; the cached record must still let width 11 route what a
    # cold run routes.
    builds = _count_calls(monkeypatch, registry, "build_circuit")
    maps = _count_calls(monkeypatch, CadFlow, "map")
    for circuit in LADDER_CIRCUITS:
        styled = isinstance(build_circuit(circuit), StyledCircuit)
        for timing_driven in (False, True):
            case = f"{circuit}/{'timing' if timing_driven else 'default'}"
            points = _ladder(circuit, FlowOptions(timing_driven=timing_driven, placement_seed=5))
            builds.clear()
            maps.clear()
            report = SweepRunner(store=tmp_path / case.replace(":", "_")).run(points)
            assert [o.summary["placement_cache_hit"] for o in report.outcomes] == [
                False,
                True,
            ], case
            assert builds == [(circuit,)], case
            assert len(maps) == (1 if styled else 0), case
            _assert_matches_cold_flows(points, report)


def test_stored_design_is_the_packed_artifact(tmp_path):
    # The record's design is the one the pack stage wrote: no later stage
    # (polish, routing ladder, refinement, timing, bitgen) may change it, or
    # one width's hit would carry what another width's flow did to it.
    point = _ladder("qdi_multiplier_2x2", FlowOptions(timing_driven=True, placement_seed=5))[0]
    SweepRunner(store=tmp_path / "store", artifacts=str(tmp_path / "artifacts")).run([point])
    (view,) = load_flow_artifacts(ArtifactStore(tmp_path / "artifacts"))
    record = SweepResultStore(tmp_path / "store").get(point.placement_key())
    assert record["design"] == view.payloads["packed"]


def test_hit_writes_the_stage_artifacts_of_a_cold_run(tmp_path):
    points = _ladder("qdi_multiplier_2x2", FULL)
    SweepRunner(store=tmp_path / "hit", artifacts=str(tmp_path / "hit-artifacts")).run(points)
    SweepRunner(
        store=tmp_path / "cold",
        artifacts=str(tmp_path / "cold-artifacts"),
        placement_cache=False,
    ).run(points)
    hit = dict(ArtifactStore(tmp_path / "hit-artifacts").records())
    cold = dict(ArtifactStore(tmp_path / "cold-artifacts").records())
    assert len(hit) == 2 * len(STAGES)
    assert hit == cold


def test_timing_mode_change_also_hits_placement_cache(tmp_path):
    runner = SweepRunner(store=tmp_path)
    runner.run(SweepSpec.build(["qdi_full_adder"], ARCH_CW8, FULL))
    tweaked = SweepSpec.build(
        ["qdi_full_adder"], ARCH_CW8, FlowOptions(timing_driven=True)
    )
    report = runner.run(tweaked)
    assert report.cache_misses == 1
    assert report.outcomes[0].summary["placement_cache_hit"] is True


def test_different_seed_misses_placement_cache(tmp_path):
    runner = SweepRunner(store=tmp_path)
    runner.run(SweepSpec.build(["qdi_full_adder"], ARCH_CW8, FULL))
    report = runner.run(
        SweepSpec.build(["qdi_full_adder"], ARCH_CW8, FlowOptions(placement_seed=9))
    )
    assert report.outcomes[0].summary["placement_cache_hit"] is False


def test_corrupt_placement_record_falls_back_to_placing(tmp_path):
    store = SweepResultStore(tmp_path)
    point = SweepPoint("qdi_full_adder", ARCH_CW8, FULL)
    store.put(
        point.placement_key(),
        {"kind": "placement", "placement": {"plb_sites": "garbage", "io_sites": {}}},
    )
    report = SweepRunner(store=store).run([point])
    summary = report.outcomes[0].summary
    assert summary["placement_cache_hit"] is False
    assert summary["routing_success"] is True


def test_placement_cache_disabled_keeps_historical_summary(tmp_path):
    report = SweepRunner(store=tmp_path, placement_cache=False).run(
        SweepSpec.build(["qdi_full_adder"], ARCH_CW8, FULL)
    )
    summary = report.outcomes[0].summary
    assert "placement_cache_hit" not in summary
    assert SweepResultStore(tmp_path).stats()["placement_records"] == 0


def test_analysis_only_sweeps_never_touch_placement_cache(tmp_path):
    analysis = FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
    report = SweepRunner(store=tmp_path).run(
        SweepSpec.build(["qdi_full_adder"], ARCH_CW8, analysis)
    )
    assert "placement_cache_hit" not in report.outcomes[0].summary
    assert SweepResultStore(tmp_path).stats()["placement_records"] == 0

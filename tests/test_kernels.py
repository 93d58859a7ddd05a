"""The CAD hot paths: the placer's flat cost cache and default-option routing.

The annealer always runs :class:`repro.cad.place.FlatNetCostCache`, a
flat-list layout of the reference :class:`~repro.cad.place.NetCostCache`.
A hypothesis-driven random anneal protocol (mutate → propose →
commit/reject) compares the two move by move, and both against the full
:func:`repro.cad.place._hpwl` recompute.  The acceptance benches
(``qdi_multiplier_2x2``, ``gen:mult8x8@micropipeline``) must route under
default options, and a flow and a one-point sweep must route in a
process where numpy cannot be imported.  Exact flow outputs are pinned by
``tests/test_golden_digests.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.place import FlatNetCostCache, NetCostCache, _hpwl
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams, RoutingParams

#: The standard routable fabric (the golden multiplier test's geometry).
ROUTABLE = ArchitectureParams(routing=RoutingParams(channel_width=10))

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Blocks numpy from import, then routes a flow and a one-point sweep.
_NO_NUMPY_SCRIPT = """
import sys

sys.modules["numpy"] = None
import repro.api
from repro.cad.flow import CadFlow
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams
from repro.sweep import SweepRunner, SweepSpec

result = CadFlow(ArchitectureParams()).run(build_circuit("qdi_full_adder"))
assert result.summary()["routing_success"] is True
report = SweepRunner().run(SweepSpec.build(["qdi_full_adder"], ArchitectureParams()))
assert report.ok_count == 1, report.rows()
assert report.outcomes[0].summary["routing_success"] is True
print("routed")
"""


def test_flow_and_sweep_route_with_numpy_blocked():
    # The package needs nothing outside the standard library.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "routed"


# ----------------------------------------------------------------------
# Acceptance benches: default options route
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["qdi_multiplier_2x2", "gen:mult8x8@micropipeline"]
)
def test_acceptance_benches_route_under_default_options(name):
    if name.startswith("gen:mult8x8"):
        from repro.circuits.generate import recommended_fabric
        from repro.circuits.specs import build_from_spec

        bench = build_from_spec(name)
        params = recommended_fabric(bench)
    else:
        bench = build_circuit(name)
        params = ROUTABLE
    summary = CadFlow(params, FlowOptions()).run(bench).summary()
    assert summary["routing_success"] is True


# ----------------------------------------------------------------------
# Placement cache parity, property-based
# ----------------------------------------------------------------------
@st.composite
def _anneal_protocol(draw):
    """A random net structure plus a random mutate/propose/commit protocol."""
    coord = st.integers(min_value=0, max_value=6)
    n_plbs = draw(st.integers(min_value=2, max_value=5))
    plb_names = [f"plb{i}" for i in range(n_plbs)]
    io_names = ["in0", "out0"]
    terminals = plb_names + [f"io:{name}" for name in io_names]
    n_nets = draw(st.integers(min_value=1, max_value=6))
    nets = {
        f"net{i}": draw(
            st.lists(st.sampled_from(terminals), min_size=1, max_size=4, unique=True)
        )
        for i in range(n_nets)
    }
    plb_sites = {name: (draw(coord), draw(coord)) for name in plb_names}
    io_positions = {name: (float(draw(coord)), float(draw(coord))) for name in io_names}
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(plb_names),  # terminal to move
                coord,  # new x
                coord,  # new y
                st.booleans(),  # commit?
            ),
            min_size=1,
            max_size=12,
        )
    )
    return nets, plb_sites, io_positions, steps


@settings(max_examples=60, deadline=None)
@given(_anneal_protocol())
def test_flat_cache_matches_reference_and_full_hpwl(protocol):
    nets, plb_sites, io_positions, steps = protocol
    caches = [
        NetCostCache(nets, dict(plb_sites), dict(io_positions)),
        FlatNetCostCache(nets, dict(plb_sites), dict(io_positions)),
    ]
    assert caches[1].total == caches[0].total
    assert caches[0].total == _hpwl(nets, plb_sites, io_positions)
    live = dict(plb_sites)
    for terminal, new_x, new_y, commit in steps:
        old = live[terminal]
        new = (new_x, new_y)
        deltas = []
        for cache in caches:
            # The place_design protocol: mutate the live dict, then propose
            # the move with old/new coordinates.
            cache.plb_sites[terminal] = new
            deltas.append(
                cache.propose_moves(
                    [(terminal, (float(old[0]), float(old[1])), (float(new_x), float(new_y)))]
                )
            )
        assert deltas[1] == deltas[0]
        if commit:
            live[terminal] = new
            for cache in caches:
                cache.commit()
        else:
            for cache in caches:
                cache.plb_sites[terminal] = old
                cache.reject()
        reference = _hpwl(nets, live, io_positions)
        for cache in caches:
            assert cache.total == reference
    # Counter parity: evaluations and bbox fast-path hits are part of the
    # pinned summary contract, so the flat cache must count identically.
    assert caches[1].evaluations == caches[0].evaluations
    assert caches[1].bbox_updates == caches[0].bbox_updates

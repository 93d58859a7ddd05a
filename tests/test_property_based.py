"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import BundledDataEncoding, DualRailEncoding, OneOfNEncoding
from repro.core.bitstream import Bitstream, BitstreamBudget
from repro.core.im import InterconnectionMatrix
from repro.core.params import ArchitectureParams
from repro.logic.minimise import minimise_sop, prime_implicants
from repro.logic.truthtable import TruthTable


# ----------------------------------------------------------------------
# Truth tables
# ----------------------------------------------------------------------
@st.composite
def truth_tables(draw, max_inputs: int = 4):
    arity = draw(st.integers(min_value=1, max_value=max_inputs))
    names = tuple(f"v{i}" for i in range(arity))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=1 << arity, max_size=1 << arity)))
    return TruthTable(inputs=names, bits=bits)


@given(truth_tables())
@settings(max_examples=60, deadline=None)
def test_cofactor_shannon_expansion(table):
    """f = x ? f_x1 : f_x0 for every input x (Shannon expansion)."""
    for variable in table.inputs:
        positive = table.cofactor(variable, 1)
        negative = table.cofactor(variable, 0)
        for row in range(1 << table.arity):
            assignment = {
                name: (row >> index) & 1 for index, name in enumerate(table.inputs)
            }
            expected = table.evaluate(assignment)
            sub = {k: v for k, v in assignment.items() if k != variable}
            chosen = positive if assignment[variable] else negative
            assert chosen.evaluate(sub) == expected


@given(truth_tables())
@settings(max_examples=60, deadline=None)
def test_extend_inputs_preserves_function(table):
    # Appended extras, and a target order that reverses the table's own
    # inputs and interleaves the extras among them.
    reversed_inputs = tuple(reversed(table.inputs))
    middle = len(reversed_inputs) // 2
    interleaved = (
        ("extra0",) + reversed_inputs[:middle] + ("extra1",) + reversed_inputs[middle:]
    )
    for target in (tuple(table.inputs) + ("extra0", "extra1"), interleaved):
        extended = table.extend_inputs(target)
        assert extended.inputs == target
        for row in range(1 << table.arity):
            assignment = {name: (row >> index) & 1 for index, name in enumerate(table.inputs)}
            for extras in ((0, 0), (1, 0), (0, 1), (1, 1)):
                full = {**assignment, "extra0": extras[0], "extra1": extras[1]}
                assert extended.evaluate(full) == table.evaluate(assignment)


@given(truth_tables())
@settings(max_examples=60, deadline=None)
def test_double_negation_and_de_morgan(table):
    assert (~(~table)).bits == table.bits
    other = TruthTable(inputs=table.inputs, bits=tuple(reversed(table.bits)))
    left = ~(table & other)
    right = (~table) | (~other)
    assert left.equivalent(right)


@given(truth_tables(max_inputs=4))
@settings(max_examples=40, deadline=None)
def test_minimised_cover_equals_function(table):
    cover = minimise_sop(table)
    primes = prime_implicants(table)
    for minterm in range(1 << table.arity):
        value = table.bits[minterm]
        covered = any(cube.covers(minterm) for cube in cover)
        assert covered == bool(value)
        # every chosen cube is a prime implicant
    for cube in cover:
        assert cube in primes


@given(truth_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_compose_matches_direct_substitution(table, data):
    if table.arity < 1:
        return
    target = table.inputs[0]
    inner = data.draw(truth_tables(max_inputs=3))
    inner = inner.rename({name: f"in_{name}" for name in inner.inputs})
    composed = table.compose({target: inner})
    for row in range(1 << len(composed.inputs)):
        assignment = {
            name: (row >> index) & 1 for index, name in enumerate(composed.inputs)
        }
        inner_value = inner.evaluate({name: assignment[name] for name in inner.inputs})
        outer_assignment = {name: assignment.get(name, 0) for name in table.inputs}
        outer_assignment[target] = inner_value
        assert composed.evaluate(assignment) == table.evaluate(outer_assignment)


# ----------------------------------------------------------------------
# Encodings
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=80, deadline=None)
def test_dual_rail_word_roundtrip_property(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    enc = DualRailEncoding()
    rails = enc.encode_word(value, width)
    assert enc.decode_word(rails, width) == value
    assert enc.word_is_valid(rails, width)
    # exactly one rail per digit is high
    assert sum(rails) == enc.digits_for_bits(width)


@given(st.sampled_from([2, 3, 4, 8]), st.data())
@settings(max_examples=80, deadline=None)
def test_one_of_n_roundtrip_property(n, data):
    enc = OneOfNEncoding(n)
    value = data.draw(st.integers(min_value=0, max_value=n - 1))
    rails = enc.encode_digit(value)
    assert rails.count(1) == 1
    assert enc.decode_digit(rails) == value


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=50, deadline=None)
def test_channel_encode_decode_property(width, data):
    encoding = data.draw(st.sampled_from([DualRailEncoding(), OneOfNEncoding(4), BundledDataEncoding()]))
    channel = Channel("c", width, encoding)
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    encoded = channel.encode(value)
    assert set(encoded) == set(channel.data_wires())
    assert channel.decode(encoded) == value
    if encoding.is_delay_insensitive:
        assert channel.decode(channel.neutral()) is None


# ----------------------------------------------------------------------
# Architecture models
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_im_config_vector_roundtrip_property(n_sources, n_destinations, data):
    sources = tuple(f"s{i}" for i in range(n_sources))
    destinations = tuple(f"d{i}" for i in range(n_destinations))
    im = InterconnectionMatrix(sources, destinations)
    routes = data.draw(
        st.dictionaries(st.sampled_from(destinations), st.sampled_from(sources), max_size=n_destinations)
    )
    for destination, source in routes.items():
        im.connect(destination, source)
    bits = im.config_vector()
    decoded = InterconnectionMatrix.decode_config_vector(sources, destinations, bits)
    assert decoded.routes == routes


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_bitstream_roundtrip_property(data):
    params = ArchitectureParams(width=2, height=2)
    budget = BitstreamBudget.for_architecture(params)
    bitstream = Bitstream(budget)
    regions = data.draw(
        st.lists(st.sampled_from([region.name for region in budget.regions]), max_size=5, unique=True)
    )
    for name in regions:
        region = budget.region(name)
        count = data.draw(st.integers(min_value=0, max_value=min(region.bits, 16)))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        bitstream.set_region(name, bits)
    again = Bitstream.from_bytes(budget, bitstream.to_bytes())
    assert again == bitstream
    assert again.used_bits() == bitstream.used_bits()

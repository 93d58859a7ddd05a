"""Unit tests for repro.logic.truthtable."""

import pytest

from repro.logic.truthtable import TruthTable


def test_from_function_and_evaluate():
    table = TruthTable.from_function(("a", "b"), lambda a, b: a and b, name="and2")
    assert table.bits == (0, 0, 0, 1)
    assert table.evaluate({"a": 1, "b": 1}) == 1
    assert table.evaluate({"a": 1, "b": 0}) == 0
    assert table(a=0, b=1) == 0


def test_bit_order_lsb_first():
    # inputs[0] is the least significant bit of the row index.
    table = TruthTable.from_function(("a", "b"), lambda a, b: a, name="proj_a")
    # rows: (a,b) = (0,0), (1,0), (0,1), (1,1)
    assert table.bits == (0, 1, 0, 1)


def test_from_minterms_and_minterms_roundtrip():
    table = TruthTable.from_minterms(("x", "y", "z"), [1, 4, 7])
    assert table.minterms() == [1, 4, 7]


def test_from_minterms_out_of_range():
    with pytest.raises(ValueError):
        TruthTable.from_minterms(("x",), [3])


def test_wrong_bit_count_rejected():
    with pytest.raises(ValueError):
        TruthTable(inputs=("a",), bits=(0, 1, 1))


def test_duplicate_inputs_rejected():
    with pytest.raises(ValueError):
        TruthTable(inputs=("a", "a"), bits=(0, 0, 0, 0))


def test_non_binary_bits_rejected():
    with pytest.raises(ValueError):
        TruthTable(inputs=("a",), bits=(0, 2))


@pytest.mark.parametrize("bit", [0, 1, True, False, 1.0, 2, "1", None])
def test_bit_check_agrees_with_the_per_bit_rule(bit):
    # The table checks its bits in one counting pass; it must accept and
    # reject exactly what ``bit in (0, 1)`` does, and name the bad bit.
    bits = (1, 0, bit, 0)
    if bit in (0, 1):
        assert TruthTable(inputs=("a", "b"), bits=bits).bits == bits
    else:
        with pytest.raises(ValueError, match=f"must be 0/1, got {bit!r}$"):
            TruthTable(inputs=("a", "b"), bits=bits)


def test_constant():
    one = TruthTable.constant(1)
    assert one.bits == (1,)
    zero = TruthTable.constant(0, inputs=("a", "b"))
    assert zero.is_constant()
    assert len(zero.bits) == 4


def test_depends_on_and_support():
    table = TruthTable.from_function(("a", "b", "c"), lambda a, b, c: a ^ b)
    assert table.depends_on("a")
    assert table.depends_on("b")
    assert not table.depends_on("c")
    assert table.support() == ("a", "b")


def test_cofactor():
    table = TruthTable.from_function(("a", "b"), lambda a, b: a and b)
    positive = table.cofactor("a", 1)
    assert positive.inputs == ("b",)
    assert positive.bits == (0, 1)
    negative = table.cofactor("a", 0)
    assert negative.is_constant() and negative.bits[0] == 0


def test_restrict_multiple():
    table = TruthTable.from_function(("a", "b", "c"), lambda a, b, c: (a and b) or c)
    restricted = table.restrict({"a": 1, "b": 1})
    assert restricted.inputs == ("c",)
    assert restricted.bits == (1, 1)


def test_remove_redundant_inputs():
    table = TruthTable.from_function(("a", "b", "c"), lambda a, b, c: a)
    reduced = table.remove_redundant_inputs()
    assert set(reduced.inputs) == {"a"}


def test_rename_and_reorder():
    table = TruthTable.from_function(("a", "b"), lambda a, b: a and not b)
    renamed = table.rename({"a": "x"})
    assert renamed.inputs == ("x", "b")
    assert renamed.evaluate({"x": 1, "b": 0}) == 1
    reordered = table.reorder(("b", "a"))
    for a in (0, 1):
        for b in (0, 1):
            assert reordered.evaluate({"a": a, "b": b}) == table.evaluate({"a": a, "b": b})


def test_reorder_requires_permutation():
    table = TruthTable.from_function(("a", "b"), lambda a, b: a)
    with pytest.raises(ValueError):
        table.reorder(("a", "c"))


def test_extend_inputs():
    table = TruthTable.from_function(("a",), lambda a: 1 - a)
    extended = table.extend_inputs(("b", "a", "c"))
    assert extended.inputs == ("b", "a", "c")
    assert extended.evaluate({"a": 0, "b": 1, "c": 1}) == 1
    assert extended.evaluate({"a": 1, "b": 0, "c": 0}) == 0


def test_compose():
    xor = TruthTable.from_function(("p", "q"), lambda p, q: p ^ q)
    inner = TruthTable.from_function(("a", "b"), lambda a, b: a and b)
    composed = xor.compose({"p": inner})
    assert set(composed.inputs) == {"a", "b", "q"}
    for a in (0, 1):
        for b in (0, 1):
            for q in (0, 1):
                assert composed.evaluate({"a": a, "b": b, "q": q}) == ((a and b) ^ q)


def test_operators_and_equivalence():
    a = TruthTable.from_function(("a",), lambda a: a)
    b = TruthTable.from_function(("b",), lambda b: b)
    both = a & b
    assert both.evaluate({"a": 1, "b": 1}) == 1
    assert both.evaluate({"a": 1, "b": 0}) == 0
    either = a | b
    assert either.evaluate({"a": 0, "b": 1}) == 1
    exclusive = a ^ b
    assert exclusive.evaluate({"a": 1, "b": 1}) == 0
    inverted = ~a
    assert inverted.evaluate({"a": 1}) == 0
    assert (a & b).equivalent(b & a)
    assert not (a & b).equivalent(a | b)


def test_serialisation_roundtrip():
    table = TruthTable.from_function(("a", "b", "c"), lambda a, b, c: a ^ b ^ c, name="xor3")
    data = table.to_dict()
    again = TruthTable.from_dict(data)
    assert again == table
    assert again.to_config_bits() == table.bits
    # Decoding converts every bit to an int.
    loose = TruthTable.from_dict({"inputs": ["a"], "bits": [True, 0.0]})
    assert [type(bit) for bit in loose.bits] == [int, int]
    assert loose.bits == (1, 0)


def test_missing_assignment_raises():
    table = TruthTable.from_function(("a", "b"), lambda a, b: a)
    with pytest.raises(KeyError):
        table.evaluate({"a": 1})

"""Two-level logic: table building, minimization, MCX conversion."""

import hashlib
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_cover
from qdotplot import (
    DNA_ALPHABET,
    Cube,
    PlaTable,
    build_pla,
    cubes_to_mcx,
    d1merge,
    evaluate_all,
    functional_equal,
    map_alphabet,
)
from qdotplot import logic
from qdotplot.logic import _merge_pass, _subsume_pass

# The worked example used throughout: an 8-element sequence over a 4-symbol
# alphabet whose nonzero table rows and minimized cover are known by hand.
SEQ8 = (0, 1, 3, 2, 1, 2, 3, 0)


def test_build_pla_rows_frozen():
    table = build_pla(SEQ8, 2)
    assert table.n_inputs == 3
    assert table.n_outputs == 2
    assert [(c.inputs, c.outputs) for c in table.cubes] == [
        ("001", "01"),
        ("010", "11"),
        ("011", "10"),
        ("100", "01"),
        ("101", "10"),
        ("110", "11"),
    ]


def test_build_pla_drops_zero_rows():
    table = build_pla(SEQ8, 2)
    assert len(table.cubes) == 6  # indices 0 and 7 hold code 0


def test_build_pla_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_pla((0, 1, 2), 2)  # not a power of two
    with pytest.raises(ValueError):
        build_pla((0, 4), 2)  # code does not fit in d bits
    with pytest.raises(ValueError):
        build_pla((0, 1), 0)


def test_brute_force_count_is_popcount_sum():
    table = build_pla(SEQ8, 2)
    gates = cubes_to_mcx(table)
    want = sum(c.outputs.count("1") for c in table.cubes)
    assert len(gates) == want == 8
    assert all(len(g.controls) == 3 for g in gates)


def test_cubes_to_mcx_bit_numbering():
    # MSB-first strings map to LSB-numbered bits: position p -> bit n-1-p.
    table = PlaTable(3, 2, (Cube("01-", "10"),))
    (g,) = cubes_to_mcx(table)
    assert g.controls == ((2, False), (1, True))
    assert g.output_bit == 1


def test_cubes_to_mcx_dashed_cube_is_unconditional():
    table = PlaTable(2, 2, (Cube("--", "11"),))
    gates = cubes_to_mcx(table)
    assert [g.controls for g in gates] == [(), ()]
    assert sorted(g.output_bit for g in gates) == [0, 1]


def test_d1merge_worked_example_equivalent_and_smaller():
    table = build_pla(SEQ8, 2)
    merged = d1merge(table)
    assert functional_equal(table, merged)
    assert len(merged.cubes) < len(table.cubes)
    assert len(cubes_to_mcx(merged)) < len(cubes_to_mcx(table))


def test_d1merge_merges_distance_one_equal_outputs():
    table = PlaTable(3, 1, (Cube("010", "1"), Cube("011", "1")))
    merged = d1merge(table)
    assert [(c.inputs, c.outputs) for c in merged.cubes] == [("01-", "1")]


def test_d1merge_keeps_unequal_outputs_apart():
    table = PlaTable(2, 2, (Cube("00", "01"), Cube("01", "10")))
    merged = d1merge(table)
    assert len(merged.cubes) == 2
    assert functional_equal(table, merged)


def test_d1merge_subsumption():
    table = PlaTable(2, 1, (Cube("0-", "1"), Cube("00", "1")))
    merged = d1merge(table)
    assert [(c.inputs, c.outputs) for c in merged.cubes] == [("0-", "1")]


def _random_table(draw, max_inputs=6):
    n = draw(st.integers(min_value=1, max_value=max_inputs))
    d = draw(st.integers(min_value=1, max_value=3))
    n_cubes = draw(st.integers(min_value=1, max_value=12))
    cubes = []
    for _ in range(n_cubes):
        ins = "".join(draw(st.sampled_from("01-")) for _ in range(n))
        out = draw(st.integers(min_value=1, max_value=(1 << d) - 1))
        cubes.append(Cube(ins, format(out, f"0{d}b")))
    return PlaTable(n, d, tuple(cubes))


@st.composite
def pla_tables(draw):
    return _random_table(draw)


@given(pla_tables())
@settings(max_examples=150, deadline=None)
def test_d1merge_preserves_function(table):
    merged = d1merge(table)
    # Independent oracle: evaluate both covers literally at every input.
    mine = [(c.inputs, c.outputs) for c in table.cubes]
    theirs = [(c.inputs, c.outputs) for c in merged.cubes]
    for value in range(1 << table.n_inputs):
        assert eval_cover(mine, table.n_inputs, value) == eval_cover(
            theirs, table.n_inputs, value
        )
    assert len(merged.cubes) <= len(table.cubes)


@given(pla_tables())
@settings(max_examples=100, deadline=None)
def test_d1merge_idempotent(table):
    once = d1merge(table)
    twice = d1merge(once)
    assert once.cubes == twice.cubes


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_d1merge_strictly_shrinks_distance_one_pairs(n, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    pos = data.draw(st.integers(min_value=0, max_value=n - 1))
    a = format(value, f"0{n}b")
    flipped = value ^ (1 << (n - 1 - pos))
    b = format(flipped, f"0{n}b")
    table = PlaTable(n, 1, (Cube(a, "1"), Cube(b, "1")))
    assert len(d1merge(table).cubes) == 1


def test_d1merge_matches_exhaustive_evaluation_against_sequence():
    rng = np.random.default_rng(5)
    for _ in range(10):
        length = 1 << int(rng.integers(2, 6))
        codes = rng.integers(0, 4, size=length)
        table = build_pla(tuple(int(c) for c in codes), 2)
        if not table.cubes:
            continue
        merged = d1merge(table)
        assert np.array_equal(evaluate_all(table), evaluate_all(merged))
        want = np.asarray(codes, dtype=np.int64)
        assert np.array_equal(evaluate_all(merged), want)


def test_cube_validation():
    with pytest.raises(ValueError):
        Cube("01", "00")  # no output bit set
    with pytest.raises(ValueError):
        Cube("0x", "1")
    with pytest.raises(ValueError, match="^cube outputs must be over '01', got '02'$"):
        Cube("01", "02")


def test_table_guards():
    with pytest.raises(ValueError, match="^need n_inputs >= 0 and n_outputs >= 1$"):
        PlaTable(-1, 1, ())
    with pytest.raises(ValueError, match="does not match table shape"):
        PlaTable(2, 1, (Cube("011", "1"),))
    # The cap is checked before the 2^n output array is allocated.
    with pytest.raises(ValueError, match="^exhaustive evaluation capped at 22 inputs$"):
        evaluate_all(PlaTable(23, 1, ()))
    table = build_pla(SEQ8, 2)
    assert not functional_equal(table, PlaTable(3, 1, ()))
    assert not functional_equal(table, PlaTable(2, 2, ()))
    assert functional_equal(table, d1merge(table))


# -- care-mask subsumption against the literal all-pairs rule ------------------


def _covers_literally(big: str, small: str) -> bool:
    return all(b == "-" or b == s for b, s in zip(big, small))


def _subsume_all_pairs(cubes):
    """Drop every cube that another, different cube with equal outputs covers,
    comparing literal strings one character at a time over all pairs."""
    keep = [
        (ins, outs) for ins, outs in cubes
        if not any(o == outs and other != ins and _covers_literally(other, ins)
                   for other, o in cubes)
    ]
    return keep, len(keep) < len(cubes)


@given(pla_tables())
@settings(max_examples=300, deadline=None)
def test_subsume_pass_matches_all_pairs_rule(table):
    cubes = sorted(set((c.inputs, c.outputs) for c in table.cubes))
    assert _subsume_pass(cubes) == _subsume_all_pairs(cubes)


def _long_dna_table():
    # A seeded 4096-element sequence over four codes, as a DNA pair compiles.
    codes = np.random.default_rng(4096).integers(0, 4, size=4096)
    return build_pla(tuple(int(c) for c in codes), 2)


def test_d1merge_long_sequence_golden():
    # Digest of the minimized cover as the all-pairs subsumption produced it;
    # the emitted circuits depend on every byte of it.
    table = d1merge(_long_dna_table())
    rows = [f".i {table.n_inputs}", f".o {table.n_outputs}", f".p {len(table.cubes)}"]
    rows += [f"{c.inputs} {c.outputs}" for c in table.cubes]
    text = "\n".join(rows + [".e"]) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "025cd42c2b2ab83db03693d98ede2462d70325c76bc00a35fdaccc13a9d184c1"
    )


def test_d1merge_long_sequence_budget():
    table = _long_dna_table()
    start = time.perf_counter()
    d1merge(table)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"d1merge of 4096 rows took {elapsed:.3f}s, budget 1.5s"


# -- integer-keyed merge sweep against the string-keyed sweep ------------------


def _merge_pass_by_strings(cubes):
    """The merge sweep keyed on sliced strings: each unconsumed cube, in
    order, merges with the first unconsumed cube that has equal outputs and
    the opposite literal at one of its cared positions (MSB first), and
    equal literals everywhere else."""
    index = {}
    for i, (ins, outs) in enumerate(cubes):
        for p, lit in enumerate(ins):
            if lit != "-":
                index.setdefault((outs, p, ins[:p], ins[p + 1:]), []).append(i)
    consumed = [False] * len(cubes)
    out = []
    changed = False
    for i, (ins, outs) in enumerate(cubes):
        if consumed[i]:
            continue
        hit = None
        for p, lit in enumerate(ins):
            if lit == "-":
                continue
            for j in index.get((outs, p, ins[:p], ins[p + 1:]), ()):
                if j != i and not consumed[j] and cubes[j][0][p] not in ("-", lit):
                    hit = (j, p)
                    break
            if hit:
                break
        consumed[i] = True
        if hit:
            j, p = hit
            consumed[j] = True
            out.append((ins[:p] + "-" + ins[p + 1:], outs))
            changed = True
        else:
            out.append((ins, outs))
    deduped = sorted(set(out))
    return deduped, changed or len(deduped) < len(cubes)


def _assert_merge_passes_agree(table):
    # Walk d1merge's fixpoint loop and compare every merge pass on its input.
    cubes = sorted(set((c.inputs, c.outputs) for c in table.cubes))
    passes = 0
    while True:
        any_change = False
        while True:
            got = _merge_pass(cubes)
            assert got == _merge_pass_by_strings(cubes)
            passes += 1
            cubes, changed = got
            any_change |= changed
            if not changed:
                break
        cubes, changed = _subsume_pass(cubes)
        if not (any_change or changed):
            return passes


@given(pla_tables())
@settings(max_examples=300, deadline=None)
def test_merge_pass_matches_string_keyed_sweep(table):
    _assert_merge_passes_agree(table)


def test_merge_pass_matches_string_keyed_sweep_on_long_sequence():
    assert _assert_merge_passes_agree(_long_dna_table()) > 1


def test_d1merge_of_a_table_without_inputs():
    table = PlaTable(0, 2, (Cube("", "01"), Cube("", "11")))
    assert d1merge(table) == table


# -- the fixpoint loop ----------------------------------------------------------


def _fixpoint_by_comparison(table):
    # Reference loop: merge passes until the list stops changing, then a
    # subsume pass; repeat until a whole round leaves the list as it was.
    # Change is seen by comparing lists, not by the passes' flags.
    cubes = sorted(set((c.inputs, c.outputs) for c in table.cubes))
    while True:
        before = cubes
        while True:
            merged = _merge_pass(cubes)[0]
            if merged == cubes:
                break
            cubes = merged
        cubes = _subsume_pass(cubes)[0]
        if cubes == before:
            return tuple(Cube(i, o) for i, o in sorted(cubes))


@given(pla_tables())
@settings(max_examples=200, deadline=None)
def test_d1merge_equals_the_two_loop_fixpoint(table):
    assert d1merge(table).cubes == _fixpoint_by_comparison(table)


def test_d1merge_equals_the_two_loop_fixpoint_on_long_sequence():
    table = _long_dna_table()
    assert d1merge(table).cubes == _fixpoint_by_comparison(table)


def test_d1merge_stops_after_the_subsume_pass_that_changes_nothing(monkeypatch):
    # The 4096 bp DNA sequence of the build-long-self benchmark at seed 1:
    # three merge passes (the last merges nothing) and one subsume pass that
    # removes nothing; no confirming round follows.
    rng = random.Random("build-long-self/1")
    seq = map_alphabet("".join(rng.choice("ACGT") for _ in range(4096)), DNA_ALPHABET)
    passes = []
    for name in ("_merge_pass", "_subsume_pass"):
        def counted(cubes, run=getattr(logic, name), name=name):
            passes.append(name)
            return run(cubes)
        monkeypatch.setattr(logic, name, counted)
    table = d1merge(build_pla(seq.codes, seq.d))
    assert len(table.cubes) == 1733
    assert passes == ["_merge_pass"] * 3 + ["_subsume_pass"]

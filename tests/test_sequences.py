"""Sequence ingestion, alphabet coding, and power-of-two padding."""

import pytest

from conftest import brute_dot_plot
from qdotplot import (
    ALPHABET_PRESETS,
    DNA_ALPHABET,
    SymbolSequence,
    classical_dotplot,
    map_alphabet,
    pad_pair,
    read_sequence_file,
)


def test_dna_alphabet_assignment():
    assert DNA_ALPHABET == {"A": 0, "C": 1, "G": 2, "T": 3}
    assert "dna" in ALPHABET_PRESETS
    s = map_alphabet("GATTACA", DNA_ALPHABET)
    assert s.codes == (2, 0, 3, 3, 0, 1, 0)
    assert s.d == 2
    assert s.original_length == 7


def test_auto_alphabet_first_appearance():
    s = map_alphabet("BANANA")
    assert s.codes == (0, 1, 2, 1, 2, 1)
    assert s.alphabet == {"B": 0, "A": 1, "N": 2}
    assert s.d == 2


def test_precoded_integer_input():
    s = map_alphabet([0, 1, 3, 2])
    assert s.codes == (0, 1, 3, 2)
    assert s.d == 2
    with pytest.raises(ValueError):
        map_alphabet([0, 1], DNA_ALPHABET)
    with pytest.raises(ValueError):
        map_alphabet([-1, 0])


@pytest.mark.parametrize("fields, message", [
    (((), 1, 0), "^sequence must be non-empty$"),
    (((0,), 0, 1), "^d must be >= 1$"),
])
def test_symbol_sequence_guards(fields, message):
    with pytest.raises(ValueError, match=message):
        SymbolSequence(*fields)


def test_fixed_alphabet_rejects_unknown_symbol():
    with pytest.raises(ValueError, match="position 3"):
        map_alphabet("GATXACA", DNA_ALPHABET)


def test_pad_pair_reaches_power_of_two_with_fresh_codes():
    r = map_alphabet("GATTA", DNA_ALPHABET)   # length 5 -> 8
    q = map_alphabet("CAT", DNA_ALPHABET)     # length 3 -> 4
    pr, pq = pad_pair(r, q)
    assert len(pr.codes) == 8 and len(pq.codes) == 4
    assert pr.pad_code not in r.codes and pr.pad_code not in q.codes
    assert pq.pad_code not in r.codes and pq.pad_code not in q.codes
    assert pr.pad_code != pq.pad_code
    assert pr.d == pq.d
    assert max(pr.pad_code, pq.pad_code) < (1 << pr.d)
    assert pr.codes[: len(r.codes)] == r.codes
    assert pr.index_bits == 3 and pq.index_bits == 2


def test_pad_pair_no_padding_when_already_power_of_two():
    r = map_alphabet("GATT", DNA_ALPHABET)
    q = map_alphabet("ACGTACGT", DNA_ALPHABET)
    pr, pq = pad_pair(r, q)
    assert pr.codes == r.codes and pq.codes == q.codes
    assert pr.pad_code is None and pq.pad_code is None
    assert pr.d == pq.d == 2  # no fresh code allocated, d stays minimal


def test_pad_pair_single_sided_padding_keeps_d_small():
    r = map_alphabet("ACG", DNA_ALPHABET)    # needs one pad code
    q = map_alphabet("ACGT", DNA_ALPHABET)   # none
    pr, pq = pad_pair(r, q)
    assert pr.pad_code == 4 and pq.pad_code is None
    assert pr.d == pq.d == 3


def test_pad_pair_pads_one_symbol_to_two():
    # One index qubit addresses two elements, so a length-1 sequence pads.
    a = map_alphabet("A", DNA_ALPHABET)
    pr, pq = pad_pair(a, a)
    assert pr.codes == (0, pr.pad_code) and pq.codes == (0, pq.pad_code)
    assert len({0, pr.pad_code, pq.pad_code}) == 3
    assert pr.index_bits == pq.index_bits == 1
    r = map_alphabet("ACGTACGT", DNA_ALPHABET)
    pr, pq = pad_pair(r, a)
    assert pr.codes == r.codes and pr.pad_code is None
    assert pq.codes == (0, pq.pad_code) and pq.pad_code not in r.codes
    assert classical_dotplot(pr, pq)[1].sum() == 0


def test_padding_neutrality():
    # Inside the original window the plot is unchanged; outside it is zero.
    r = map_alphabet("GATTA", DNA_ALPHABET)
    q = map_alphabet("CATTAG", DNA_ALPHABET)
    pr, pq = pad_pair(r, q)
    before = brute_dot_plot(r.codes, q.codes)
    after = classical_dotplot(pr, pq)
    assert (after[: len(q.codes), : len(r.codes)] == before).all()
    assert after[len(q.codes):, :].sum() == 0
    assert after[:, len(r.codes):].sum() == 0


def test_sequence_validation():
    with pytest.raises(ValueError):
        map_alphabet("")
    from qdotplot import SymbolSequence

    with pytest.raises(ValueError):
        SymbolSequence((4,), 2, 1)
    s = SymbolSequence((0, 1, 2), 2, 3)
    with pytest.raises(ValueError):
        s.index_bits  # not a power of two yet


def test_read_sequence_file_raw_and_fasta(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("acg t\nta\n")
    assert read_sequence_file(raw) == "ACGTTA"

    fasta = tmp_path / "two.fa"
    fasta.write_text(">first record\nACGT\nAC\n>second\nGGGG\n")
    assert read_sequence_file(fasta) == "ACGTAC"  # only the first record


def test_read_sequence_file_validates_against_alphabet(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("ACGX")
    with pytest.raises(ValueError):
        read_sequence_file(f, DNA_ALPHABET)
    missing = tmp_path / "nope.txt"
    with pytest.raises(ValueError):
        read_sequence_file(missing)

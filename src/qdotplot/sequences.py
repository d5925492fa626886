"""Symbol sequences: alphabet coding, power-of-two padding, file ingestion.

Two sequences that will be aligned must share one code space. The helpers
here code symbols either through a fixed alphabet (e.g. the DNA preset) or
in first-appearance order, and pad each sequence to its next power of two
with a fresh code that appears in neither sequence, so padding can never
create a spurious dot-plot match.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError

DNA_ALPHABET = {"A": 0, "C": 1, "G": 2, "T": 3}

ALPHABET_PRESETS = {"dna": DNA_ALPHABET}


def _padded_length(n: int) -> int:
    # the next power of two, at least 2: an index register has >= 1 qubit
    return max(2, 1 << (n - 1).bit_length())


def _bits_for(n_codes: int) -> int:
    # d = ceil(log2(alphabet size)), floor 1
    return max(1, (n_codes - 1).bit_length())


@dataclass(frozen=True)
class SymbolSequence:
    """A coded sequence. codes are ints < 2^d; alphabet maps symbol -> code.

    len(codes) is 2^ceil(log2(original_length)), at least 2, once pad_pair
    has run. pad_code is None when no padding was added.
    """

    codes: tuple[int, ...]
    d: int
    original_length: int
    alphabet: dict | None = None
    pad_code: int | None = None

    def __post_init__(self):
        if not self.codes:
            raise ValueError("sequence must be non-empty")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for i, c in enumerate(self.codes):
            if not 0 <= c < (1 << self.d):
                raise ValueError(f"code {c} at position {i} does not fit in {self.d} bits")

    @property
    def index_bits(self) -> int:
        n = len(self.codes)  # > 0, checked above
        if n & (n - 1):
            raise ValueError("sequence length is not a power of two; pad first")
        return max(1, (n - 1).bit_length())


def map_alphabet(raw, alphabet: dict | None = None) -> SymbolSequence:
    """Code raw symbols into a SymbolSequence.

    With alphabet=None, codes are assigned in first-appearance order. With a
    fixed alphabet (e.g. DNA_ALPHABET), unknown symbols are an error naming
    the offending position. Integer input is taken as pre-coded.
    """
    raw = list(raw)
    if not raw:
        raise ValueError("empty sequence")
    if all(isinstance(s, int) for s in raw):
        if alphabet is not None:
            raise ValueError("pre-coded integer input does not take an alphabet")
        lo, hi = min(raw), max(raw)
        if lo < 0:
            raise ValueError("integer codes must be >= 0")
        return SymbolSequence(tuple(raw), _bits_for(hi + 1), len(raw))
    if alphabet is None:
        table: dict = {}
        for s in raw:
            if s not in table:
                table[s] = len(table)
    else:
        table = dict(alphabet)
        for i, s in enumerate(raw):
            if s not in table:
                raise ValueError(f"symbol {s!r} at position {i} is not in the alphabet")
    codes = tuple(table[s] for s in raw)
    return SymbolSequence(codes, _bits_for(len(table)), len(raw), alphabet=table)


def pad_pair(r: SymbolSequence, q: SymbolSequence) -> tuple[SymbolSequence, SymbolSequence]:
    """Pad both sequences to their next power of two with fresh, distinct codes.

    The two pad codes differ from each other and appear in neither original
    sequence, so no padded position ever matches a real element or the other
    pad. d grows identically on both sides to cover the larger pad code; a
    sequence already at a power of two gets no pad symbol, except that a
    one-symbol sequence pads to two, the least one index qubit addresses.
    """
    used = set(r.codes) | set(q.codes)
    need_r = len(r.codes) != _padded_length(len(r.codes))
    need_q = len(q.codes) != _padded_length(len(q.codes))
    fresh = (c for c in range(max(used) + 3) if c not in used)
    pad_r = next(fresh) if need_r else None
    pad_q = next(fresh) if need_q else None
    d = max(r.d, q.d)
    for pad in (pad_r, pad_q):
        if pad is not None:
            d = max(d, _bits_for(pad + 1))

    def _pad(seq: SymbolSequence, pad_code: int | None) -> SymbolSequence:
        if pad_code is None:
            return replace(seq, d=d)
        return replace(
            seq,
            codes=seq.codes + (pad_code,) * (_padded_length(len(seq.codes)) - len(seq.codes)),
            d=d,
            pad_code=pad_code,
        )

    return _pad(r, pad_r), _pad(q, pad_q)


def read_sequence_file(path, alphabet: dict | None = None) -> str:
    """Read a FASTA or raw symbol file and return the uppercased symbol string.

    FASTA: only the first record is used; header lines start with '>'.
    Raw: the whole file minus whitespace. With a fixed alphabet, any symbol
    outside it is rejected, naming its position; with alphabet=None any
    letter is accepted.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")  # a leading byte-order mark is not a symbol
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read sequence file {path}: {e}") from e
    lines = text.splitlines()
    if any(ln.startswith(">") for ln in lines):
        body = []
        in_first = False
        for ln in lines:
            if ln.startswith(">"):
                if in_first:
                    break
                in_first = True
                continue
            if in_first:
                body.append(ln.strip())
        symbols = "".join(body)
    else:
        symbols = "".join(text.split())
    symbols = symbols.upper()
    if not symbols:
        raise ConfigError(f"no sequence data in {path}")
    for i, ch in enumerate(symbols):
        if alphabet is not None:
            if ch not in alphabet:
                raise ConfigError(
                    f"{path}: symbol {ch!r} at position {i} is not in the alphabet"
                )
        elif not ch.isalpha():
            raise ConfigError(f"{path}: symbol {ch!r} at position {i} is not a letter")
    return symbols

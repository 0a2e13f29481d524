"""Language/index/real codecs and the Cantor-4 packing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnnlab import (
    BINARY,
    CANTOR4,
    Alphabet,
    AlphabetError,
    EncodingError,
    ExactScalar,
    HorizonExceeded,
    Language,
    MembershipUndecided,
    OracleTable,
    UnitReal,
    cantor_decode_step,
    cantor_encode,
    decode_membership,
    encode_language,
    index_of_string,
    signal,
    string_of_index,
)

from conftest import AB, ABSTAR_EXPANSION_25, abstar_language, words_up_to

LENGTH_LEX_TABLE = {
    "": 1, "a": 2, "b": 3, "aa": 4, "ab": 5,
    "ba": 6, "bb": 7, "aaa": 8, "aab": 9, "aba": 10,
}


def test_length_lex_golden_table():
    for s, i in LENGTH_LEX_TABLE.items():
        assert index_of_string(s, AB) == i
        assert string_of_index(i, AB) == s


def test_abstar_member_indices():
    members = ["a", "ab", "abb", "abbb"]
    assert [index_of_string(s, AB) for s in members] == [2, 5, 11, 23]


def test_index_rejects_foreign_symbols():
    with pytest.raises(AlphabetError):
        index_of_string("ax", AB)


@pytest.mark.parametrize("symbols", [("ab",), ("a", "bc"), ("a", ""), ("a", 1)])
def test_alphabet_symbols_are_single_characters(symbols):
    # every consumer reads a word one character at a time
    with pytest.raises(AlphabetError, match="single characters"):
        Alphabet(symbols)


def test_bijection_exhaustive_small():
    for alphabet in (AB, Alphabet.of("abc")):
        for s in words_up_to(8, alphabet.symbols):
            assert string_of_index(index_of_string(s, alphabet), alphabet) == s
    for i in range(1, 1001):
        assert index_of_string(string_of_index(i, AB), AB) == i


def test_monotone_in_length_then_lex():
    # words_up_to yields in length-then-lex order already
    indices = [index_of_string(w, AB) for w in words_up_to(6)]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)
    assert index_of_string("bb", AB) < index_of_string("aaa", AB)


def test_unary_alphabet_indexing():
    u = Alphabet.of("a")
    assert [index_of_string("a" * n, u) for n in range(5)] == [1, 2, 3, 4, 5]
    assert string_of_index(4, u) == "aaa"


# -- languages ----------------------------------------------------------------


def test_encode_abstar_language():
    real = encode_language(abstar_language(), 25)
    assert real.digit_string(25) == ABSTAR_EXPANSION_25


def test_encode_empty_and_full():
    empty = Language.from_members(AB, [])
    assert encode_language(empty, 8).digit_string(8) == "00000000"
    full = Language.from_rule(AB, "prefix", "")
    assert encode_language(full, 8).digit_string(8) == "11111111"


def test_decode_membership_golden_cases():
    real = encode_language(abstar_language(), 25)
    assert decode_membership(real, "ab", AB) == 1
    assert decode_membership(real, "b", AB) == 0  # index 3, digit 3 is 0
    zero = UnitReal.from_digits([0] * 25)
    assert decode_membership(zero, "ab", AB) == 0


def test_decode_membership_beyond_horizon():
    real = encode_language(abstar_language(), 25)
    with pytest.raises(HorizonExceeded):
        decode_membership(real, "baba", AB)  # index 26


def test_builtin_rules():
    parity = Language.from_rule(AB, "parity", "b")
    assert "" in parity and "bb" in parity and "b" not in parity
    anbn = Language.from_rule(AB, "anbn")
    assert "" in anbn and "ab" in anbn and "aabb" in anbn
    assert "aab" not in anbn and "ba" not in anbn
    pre = Language.from_rule(AB, "prefix", "ab")
    assert "ab" in pre and "abba" in pre and "a" not in pre
    abstar = abstar_language()
    assert "a" in abstar and "abbb" in abstar
    assert "" not in abstar and "aab" not in abstar


def test_undecided_membership_test_raises():
    # a caller's own test may answer None; contains must not read it as "no"
    language = Language(AB, lambda s: None if len(s) > 2 else s == "ab")
    assert "ab" in language and "a" not in language
    with pytest.raises(MembershipUndecided):
        language.contains("abb")


@settings(max_examples=50)
@given(st.sets(st.integers(min_value=1, max_value=40), max_size=12), st.integers(min_value=1, max_value=40))
def test_roundtrip_random_finite_languages(member_indices, n):
    members = {string_of_index(i, AB) for i in member_indices}
    language = Language.from_members(AB, members)
    real = encode_language(language, n)
    for k in range(1, n + 1):
        s = string_of_index(k, AB)
        assert decode_membership(real, s, AB) == (1 if s in members else 0)


# -- oracle tables --------------------------------------------------------------


def test_oracle_table_from_language():
    table = OracleTable.from_language(abstar_language(), 25)
    assert table.horizon == 25
    view = table.digit_view(BINARY)
    assert [i for i in range(1, 26) if view.digit_at(i)] == [2, 5, 11, 23]
    with pytest.raises(HorizonExceeded):
        view.digit_at(26)


def test_oracle_table_from_entries_rejects_negative_horizon():
    assert OracleTable.from_entries({}, 0).horizon == 0
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        OracleTable.from_entries({}, -3)


def test_oracle_table_packings():
    table = OracleTable((1, 0))
    assert ExactScalar.oracle(table, "binary").exact_fraction() == Fraction(1, 2)
    assert ExactScalar.oracle(table, "cantor4").exact_fraction() == cantor_encode("10")
    view = table.digit_view("cantor4")
    assert view.prefix(2) == (3, 1)
    with pytest.raises(HorizonExceeded):
        view.digit_at(3)


def test_oracle_scalar_is_its_tables_packed_stream():
    rng = random.Random(13)
    for horizon in range(30):
        bits = "".join(rng.choice("01") for _ in range(horizon))
        table = OracleTable(tuple(int(c) for c in bits))
        for encoding, value in (
            (CANTOR4, cantor_encode(bits)),
            (BINARY, Fraction(int(bits or "0", 2), 2**horizon)),
        ):
            scalar = ExactScalar.oracle(table, encoding)
            assert scalar.exact_fraction() == value, (encoding, bits)
            assert scalar.stream.horizon == horizon
            assert scalar.stream.strict_horizon
            with pytest.raises(HorizonExceeded):
                scalar.stream.digit_at(horizon + 1)


# -- cantor -----------------------------------------------------------------------


def test_cantor_examples():
    assert cantor_encode("") == 0
    assert cantor_encode("1") == Fraction(3, 4)
    assert cantor_encode("10") == Fraction(13, 16)
    assert cantor_decode_step(Fraction(0)) is None
    assert cantor_decode_step(Fraction(13, 16)) == (1, Fraction(1, 4))
    assert cantor_decode_step(Fraction(3, 4)) == (1, Fraction(0))


def test_cantor_rejects_invalid():
    with pytest.raises(EncodingError):
        cantor_decode_step(Fraction(1, 2))  # base-4 digit 2
    with pytest.raises(EncodingError):
        cantor_decode_step(Fraction(3, 2))


def decode_all(x):
    bits = []
    while True:
        popped = cantor_decode_step(x)
        if popped is None:
            return bits
        bits.append(popped[0])
        x = popped[1]


def test_cantor_roundtrip_exhaustive():
    for length in range(13):
        for n in range(2**length):
            bits = [(n >> (length - 1 - i)) & 1 for i in range(length)]
            assert decode_all(cantor_encode(bits)) == bits


def test_cantor_roundtrip_random_long():
    rng = random.Random(2024)
    for _ in range(1000):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 32))]
        assert decode_all(cantor_encode(bits)) == bits


def test_cantor_gap():
    # nonempty encodings live in [1/4, 1) and signal(4x-2) never sees zero
    for length in range(1, 11):
        for n in range(2**length):
            bits = [(n >> i) & 1 for i in range(length)]
            x = cantor_encode(bits)
            assert Fraction(1, 4) <= x < 1
            assert 4 * x - 2 != 0
            assert signal(4 * x - 2) == bits[0]

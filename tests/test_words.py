import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordmeasure import words
from wordmeasure.words import (
    Letter,
    RankError,
    Word,
    WordSyntaxError,
    WordTuple,
    commutator,
    parse,
    parse_tuple,
    word_tuple,
)


def lets(*pairs):
    return tuple(Letter(g, s) for g, s in pairs)


class TestParse:
    def test_power_past_the_letter_limit_is_rejected_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_POWER_LETTERS", 12)
        assert len(parse("[x,y]^3", 2)) == 12
        assert len(parse("(x^3)^-4", 1)) == 12
        for text, exponent, position in (
            ("[x,y]^4", "4", 6), ("(x^3)^-5", "-5", 6), ("x^ 13", "13", 3),
            ("x^" + "9" * 5000, "9" * 5000, 2),
        ):
            with pytest.raises(WordSyntaxError) as exc:
                parse(text, None)
            assert str(exc.value) == (
                f"exponent {exponent} makes a word of more than 12 letters "
                f"(at position {position})"
            )
        # the empty word to any power is empty, at any length of exponent
        assert parse("()^" + "9" * 5000, None).is_empty

    def test_commutator_and_word_past_the_letter_limit_are_rejected(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_POWER_LETTERS", 12)
        assert len(parse("[x,[x,y]]", 2)) == 10
        assert len(parse("[x,y][x,y][x,y]", 2)) == 12
        nested = "y"
        for _ in range(30):  # 3 * 2^31 - 2 letters if built
            nested = f"[x,{nested}]"
        for text, what, position in (
            ("[x,[x,[x,y]]]", "the commutator", 0), ("[x,[x,[x,[x,y]]]]", "the commutator", 3),
            (nested, "the commutator", 81), ("[x,y][x,y][x,y][x,y]", "the term", 15),
            ("[x,y]^3 x", "the term", 8),
        ):
            with pytest.raises(WordSyntaxError) as exc:
                parse(text, None)
            assert str(exc.value) == (
                f"{what} makes a word of more than 12 letters (at position {position})"
            )

    def test_nesting_past_the_depth_limit_is_rejected(self):
        depth = words.MAX_NESTING
        assert len(parse("(" * depth + "x" + ")" * depth, 1)) == 1
        for text, position in (
            ("(" * 400 + "x" + ")" * 400, depth), ("[x," * 400 + "y" + "]" * 400, 3 * depth),
        ):
            with pytest.raises(WordSyntaxError) as exc:
                parse(text, None)
            assert str(exc.value) == (
                f"brackets nested more than {depth} deep (at position {position})"
            )

    def test_commutator_macro(self):
        w = parse("[x,y]", 2)
        assert w.letters == lets((1, 1), (2, 1), (1, -1), (2, -1))

    def test_unreduced_kept(self):
        w = parse("x1 X1", 1)
        assert w.letters == lets((1, 1), (1, -1))

    def test_commutator_square(self):
        w = parse("[x,y]^2", 2)
        assert str(w) == "x1 x2 X1 X2 x1 x2 X1 X2"

    def test_indexed_and_symbolic_agree(self):
        assert parse("x1 x2 X1 X2", 2) == parse("[x,y]", 2)
        assert parse("zT", 4) == Word(lets((3, 1), (4, -1)))

    def test_multi_digit_index(self):
        w = parse("x12 X12", 12)
        assert w.letters == lets((12, 1), (12, -1))

    def test_negative_power(self):
        assert parse("x^-2", 1) == parse("X X", 1)
        assert parse("(xy)^-1", 2) == parse("Y X", 2)

    def test_zero_power(self):
        assert parse("x^0", 1).is_empty

    def test_nested_groups(self):
        w = parse("[x y, z]^2", 3)
        assert w == (commutator(parse("xy", 2), parse("z", 3))) ** 2

    def test_empty_input_is_empty_word(self):
        assert parse("", 2).is_empty
        assert parse("   ", 2).is_empty

    def test_syntax_error_carries_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse("x ?", 2)
        assert err.value.position == 2

    def test_unclosed_bracket(self):
        with pytest.raises(WordSyntaxError):
            parse("[x,y", 2)

    def test_rank_exceeded(self):
        with pytest.raises(RankError):
            parse("z", 2)
        with pytest.raises(RankError):
            parse("x5", 4)

    def test_no_rank_accepts_every_index(self):
        assert parse("x12 t", None) == parse("x12 x4", 12)


class TestReduce:
    def test_cancellation(self):
        assert parse("x1 X1", 1).reduce().is_empty

    def test_already_reduced(self):
        w = parse("[x,y]", 2)
        assert w.reduce() == w

    def test_two_cancellations(self):
        assert parse("x y Y X x", 2).reduce() == parse("x", 2)

    def test_cyclic_reduction_strips_conjugator(self):
        # X [x,y] x frees to y X Y x after one free and one cyclic step
        w = parse("X [x,y] x", 2)
        assert w.cyclic_reduce() == parse("y X Y x", 2)

    def test_cyclic_reduction_fixed_point(self):
        w = parse("[x,y]", 2)
        assert w.cyclic_reduce() == w
        assert Word().cyclic_reduce() == Word()


class TestOperations:
    def test_invert(self):
        assert parse("[x,y]", 2).inverse() == parse("y x Y X", 2)

    def test_power(self):
        assert parse("x", 1) ** 3 == parse("xxx", 1)
        assert parse("xy", 2) ** -2 == parse("YXYX", 2)

    def test_commutator(self):
        assert commutator(parse("x", 2), parse("y", 2)) == parse("[x,y]", 2)

    def test_concat_no_reduction(self):
        w = parse("x", 1) * parse("X", 1)
        assert len(w) == 2


class TestBalance:
    def test_exponent_sums(self):
        assert parse_tuple(["[x,y]"], 2).exponent_sums() == (0, 0)
        assert parse_tuple(["x x y"], 2).exponent_sums() == (2, 1)
        assert parse_tuple(["[x,y][x,z]"], 3).exponent_sums() == (0, 0, 0)

    def test_is_balanced(self):
        assert parse_tuple(["[x,y]^2"], 2).is_balanced()
        assert not parse_tuple(["x"], 1).is_balanced()
        assert parse_tuple(["x", "X"], 1).is_balanced()

    def test_rank_validation(self):
        with pytest.raises(RankError):
            WordTuple((parse("z", 3),), 2)

    def test_word_tuple_infers_rank(self):
        assert word_tuple([parse("z", 3)]).rank == 3


words_strategy = st.builds(
    Word,
    st.lists(
        st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), max_size=10
    ).map(lambda ps: lets(*ps)),
)


@given(words_strategy)
def test_reduce_idempotent_and_shorter(w):
    r = w.reduce()
    assert r.reduce() == r
    assert len(r) <= len(w)


@given(words_strategy)
def test_reduce_kills_w_winv(w):
    assert (w * w.inverse()).reduce().is_empty


@given(words_strategy)
def test_serialization_round_trip(w):
    assert parse(str(w), 2) == w


@given(words_strategy)
def test_balance_invariant_under_reduction(w):
    t = word_tuple([w], 2)
    reduced = word_tuple([w.reduce()], 2)
    cyclic = word_tuple([w.cyclic_reduce()], 2)
    assert t.is_balanced() == reduced.is_balanced() == cyclic.is_balanced()


def _reduced_words_up_to(rank, max_len):
    """Every freely reduced word of at most max_len letters."""
    alphabet = [Letter(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    level = [()]
    for _ in range(max_len):
        yield from map(Word, level)
        level = [
            combo + (a,) for combo in level for a in alphabet
            if not combo or combo[-1] != a.inverse()
        ]
    yield from map(Word, level)


@pytest.mark.parametrize("text", ["X [x,y] x", "[x,y]^2", "x Y x y X y"])
def test_cyclic_reduction_minimizes_conjugacy_length(text):
    # brute-force oracle: conjugate by every word up to the original
    # length; u and u.reduce(), no longer than u, give the same conjugate,
    # so the reduced words suffice
    w = parse(text, 2)
    reduced = w.cyclic_reduce()
    best = min(
        len((u * w * u.inverse()).reduce())
        for u in _reduced_words_up_to(2, len(w))
    )
    assert len(reduced) == best

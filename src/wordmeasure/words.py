"""Words in a free group: parsing, reduction, and balancedness.

Words are stored exactly as written (unreduced); reduction and cyclic
reduction are explicit operations.  Generators are 1-based indices; the
text grammar accepts both symbolic names (``x y z t``, capitals for
inverses) and indexed names (``x3``, ``X3``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

SYMBOLIC_GENERATORS = "xyzt"
# the longest word the parser builds; a longer one would exhaust memory
MAX_POWER_LETTERS = 10**6
# the deepest nesting of brackets the parser descends into
MAX_NESTING = 100


class WordSyntaxError(ValueError):
    """Word text does not conform to the grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RankError(ValueError):
    """A generator index exceeds the declared rank."""


class Letter(NamedTuple):
    gen: int   # 1-based generator index
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def render(self) -> str:
        name = "x" if self.sign > 0 else "X"
        return f"{name}{self.gen}"


class Word:
    """An immutable sequence of signed letters, not implicitly reduced."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()) -> None:
        letters = tuple(Letter(g, s) for g, s in letters)
        for let in letters:
            if let.gen < 1:
                raise ValueError(f"generator index must be >= 1, got {let.gen}")
            if let.sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {let.sign}")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word, (self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, k):
        return self.letters[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        """Canonical serialized form, e.g. ``"x1 x2 X1 X2"`` ("" if empty)."""
        return " ".join(let.render() for let in self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    @property
    def max_generator(self) -> int:
        return max((let.gen for let in self.letters), default=0)

    def reduce(self) -> "Word":
        """Freely reduced form: all adjacent inverse pairs cancelled."""
        stack: list[Letter] = []
        for let in self.letters:
            if stack and stack[-1] == let.inverse():
                stack.pop()
            else:
                stack.append(let)
        return Word(stack)

    def cyclic_reduce(self) -> "Word":
        """Freely reduced form whose first letter does not invert its last."""
        letters = list(self.reduce().letters)
        while len(letters) >= 2 and letters[0] == letters[-1].inverse():
            letters = letters[1:-1]
        return Word(letters)

    def inverse(self) -> "Word":
        return Word(let.inverse() for let in reversed(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation; no implicit reduction."""
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        """k-fold concatenation; negative k means powers of the inverse."""
        base = self if k >= 0 else self.inverse()
        return Word(base.letters * abs(k))


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


class WordTuple:
    """An ordered tuple of words together with the ambient rank."""

    __slots__ = ("words", "rank")

    def __init__(self, words: Iterable[Word], rank: int) -> None:
        words = tuple(words)
        used = max((w.max_generator for w in words), default=0)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if rank < used:
            raise RankError(f"rank {rank} < largest generator index {used}")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("WordTuple is immutable")

    def __reduce__(self):
        return (WordTuple, (self.words, self.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, WordTuple) and (self.words, self.rank) == (
            other.words, other.rank
        )

    def __hash__(self) -> int:
        return hash((self.words, self.rank))

    def __repr__(self) -> str:
        return f"WordTuple(words={self.words!r}, rank={self.rank!r})"

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __str__(self) -> str:
        return "(" + ", ".join(str(w) or "1" for w in self.words) + ")"

    @property
    def total_length(self) -> int:
        return sum(len(w) for w in self.words)

    def cyclically_reduced(self) -> "WordTuple":
        return WordTuple(tuple(w.cyclic_reduce() for w in self.words), self.rank)

    def exponent_sums(self) -> tuple[int, ...]:
        """Entry i-1 is the total signed count of generator i across all words."""
        sums = [0] * self.rank
        for w in self.words:
            for let in w:
                sums[let.gen - 1] += let.sign
        return tuple(sums)

    def is_balanced(self) -> bool:
        return all(s == 0 for s in self.exponent_sums())


def word_tuple(words: Iterable[Word], rank: int | None = None) -> WordTuple:
    """The tuple at ``rank``; None infers the largest generator, at least 1."""
    words = tuple(words)
    if rank is None:
        rank = max([1, *(w.max_generator for w in words)])
    return WordTuple(words, rank)


class _Parser:
    """Recursive descent over the word grammar.

    word    := term { term }
    term    := atom [ '^' signed-int ]
    atom    := letter | '[' word ',' word ']' | '(' word ')'
    letter  := 'x'|'y'|'z'|'t' | 'X'|'Y'|'Z'|'T' | ('x'|'X') digits
    """

    def __init__(self, text: str, rank: int | None) -> None:
        self.text = text
        self.rank = rank
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> WordSyntaxError:
        return WordSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def too_long(self, what: str, position: int) -> WordSyntaxError:
        return WordSyntaxError(
            f"{what} makes a word of more than {MAX_POWER_LETTERS} letters", position
        )

    def parse_word(self, stop: str = "") -> Word:
        letters: list[Letter] = []
        while True:
            self.skip_ws()
            ch = self.peek()
            if not ch or ch in stop:
                return Word(letters)
            start = self.pos
            term = self.parse_term()
            if len(letters) + len(term) > MAX_POWER_LETTERS:
                raise self.too_long("the term", start)
            letters.extend(term.letters)

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            return self.parse_power(atom)
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch not in ("[", "("):
            return Word([self.parse_letter()])
        if self.depth == MAX_NESTING:
            raise self.error(f"brackets nested more than {MAX_NESTING} deep")
        self.depth += 1
        start = self.pos
        self.pos += 1
        if ch == "[":
            u = self.parse_word(stop=",]")
            if self.peek() != ",":
                raise self.error("expected ',' in commutator")
            self.pos += 1
            v = self.parse_word(stop="]")
            if self.peek() != "]":
                raise self.error("expected ']' to close commutator")
            if 2 * (len(u) + len(v)) > MAX_POWER_LETTERS:
                raise self.too_long("the commutator", start)
            w = commutator(u, v)
        else:
            w = self.parse_word(stop=")")
            if self.peek() != ")":
                raise self.error("expected ')'")
        self.pos += 1
        self.depth -= 1
        return w

    def parse_letter(self) -> Letter:
        ch = self.peek()
        if not ch:
            raise self.error("unexpected end of input")
        lower = ch.lower()
        if lower not in SYMBOLIC_GENERATORS:
            raise self.error(f"unexpected character {ch!r}")
        sign = 1 if ch.islower() else -1
        self.pos += 1
        if lower == "x" and self.peek().isdigit():
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            gen = int(self.text[start:self.pos])
            if gen < 1:
                raise self.error("generator index must be >= 1")
        else:
            gen = SYMBOLIC_GENERATORS.index(lower) + 1
        if self.rank is not None and gen > self.rank:
            raise RankError(
                f"generator index {gen} exceeds rank {self.rank} "
                f"(at position {self.pos})"
            )
        return Letter(gen, sign)

    def parse_power(self, atom: Word) -> Word:
        """atom to the signed integer exponent that follows.

        A power longer than ``MAX_POWER_LETTERS`` letters is rejected
        before it is built, as is an exponent too long for ``int``.
        """
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        if not self.peek().isdigit():
            raise self.error("expected integer exponent")
        while self.peek().isdigit():
            self.pos += 1
        text = self.text[start:self.pos]
        if not atom:
            return atom
        try:
            k = int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            k = None
        if k is None or len(atom) * abs(k) > MAX_POWER_LETTERS:
            raise self.too_long(f"exponent {text}", start)
        return atom ** k


def parse(text: str, rank: int | None) -> Word:
    """Parse ``text`` into the word it denotes, unreduced.

    Commutator brackets and integer powers are macros expanded at parse
    time; whitespace between terms is ignored.  Empty input denotes the
    empty word.  A power, commutator or word of more than
    ``MAX_POWER_LETTERS`` letters is a syntax error, raised before it is
    built, as are brackets nested more than ``MAX_NESTING`` deep.  A
    rank of None accepts every generator index; a negative rank is
    rejected before any generator is read.
    """
    if rank is not None and rank < 0:
        raise ValueError("rank must be nonnegative")
    parser = _Parser(text, rank)
    word = parser.parse_word()
    if parser.pos != len(text):
        raise parser.error(f"unexpected character {parser.peek()!r}")
    return word


def parse_tuple(texts: Iterable[str], rank: int) -> WordTuple:
    return WordTuple(tuple(parse(t, rank) for t in texts), rank)

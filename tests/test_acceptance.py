"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every expected value is exact (canonical-form equality);
Monte-Carlo checks use the 4-sigma statistical tolerance.
"""

import itertools
import math
import random
import time
import zlib
from contextlib import contextmanager
from fractions import Fraction

from wordmeasure.montecarlo import estimate
from wordmeasure.perm import character, partitions
from wordmeasure.ratfn import RationalFunction
from wordmeasure.solutions import solution_classes
from wordmeasure.surfaces import euler_char, occurrences, pair_statistics
from wordmeasure.trace import parity_report, scl_upper_bound, trace_exact, trace_leading
from wordmeasure.weingarten import wg
from wordmeasure.words import Letter, Word, parse, parse_tuple, word_tuple

from oracles import (
    all_permutations,
    commutator_length,
    conjugacy_class_size,
    enumerate_matchings,
    leading_via_classes,
    leq,
    mobius,
    moment,
    pair_leq,
    wg_inversion,
)

GOLDEN = {
    "[x,y]": (2, RationalFunction((1,), (0, 1))),
    "[x^2,y]": (2, RationalFunction((2,), (0, 1))),
    "[x,y]^2": (2, RationalFunction((-4,), (0, -1, 0, 1))),
    "[x,y]^3": (2, RationalFunction((36, 0, 9), (0, 4, 0, -5, 0, 1))),
    "[x,y][x,z]": (3, RationalFunction.zero()),
    "[x,y][x^2y^2,z]": (3, RationalFunction((-8, 0, 1), (0, 4, 0, -5, 0, 1))),
    "[x,y][x,z][x,t]": (4, RationalFunction.zero()),
}


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {criterion} FAIL: {exc}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= seconds:
        print(f"ACCEPTANCE {criterion} FAIL: {elapsed:.1f}s over budget {seconds:.0f}s")
        raise AssertionError(f"{criterion} took {elapsed:.1f}s (budget {seconds}s)")
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.2f}s < {seconds:.0f}s)")


def test_criterion_01_weingarten_tables():
    with budget("1 (Weingarten tables)", 5):
        assert wg((1, 1)) == RationalFunction((1,), (-1, 0, 1))
        assert wg((2,)) == RationalFunction((-1,), (0, -1, 0, 1))
        assert wg((1, 1, 1)) == RationalFunction((-2, 0, 1), (0, 4, 0, -5, 0, 1))
        assert wg((2, 1)) == RationalFunction((-1,), (4, 0, -5, 0, 1))
        assert wg((3,)) == RationalFunction((2,), (0, 4, 0, -5, 0, 1))
        for L in range(1, 7):
            oracle = wg_inversion(L)
            for mu in partitions(L):
                assert oracle[mu] == wg(mu), (L, mu)


def test_criterion_02_moment_formula():
    with budget("2 (moment formula)", 1):
        value = moment([(1, 1), (3, 3)], [(2, 4), (4, 2)])
        assert value == RationalFunction((-1,), (0, -1, 0, 1))


def test_criterion_03_golden_traces():
    with budget("3 (golden traces)", 60):
        for text, (rank, expected) in GOLDEN.items():
            result = trace_exact(parse_tuple([text], rank))
            assert result.function == expected, text


def test_criterion_04_chi_histograms():
    with budget("4 (chi histograms)", 5):
        assert pair_statistics(parse_tuple(["[x,y][x,z]"], 3)).histogram == {-3: 4}
        assert pair_statistics(parse_tuple(["[x,y]^2"], 2)).histogram == {
            -3: 12,
            -5: 4,
        }


def test_criterion_05_commutator_length():
    with budget("5 (commutator length)", 60):
        w = parse("[x,y]", 2)
        for m in range(1, 5):
            assert commutator_length(w**m) == m // 2 + 1, m


def test_criterion_06_solution_classes():
    with budget("6 (solution classes)", 120):
        (cls,) = solution_classes(parse_tuple(["[x,y][x,z]"], 3))
        assert (cls.size, cls.complex.num_edges) == (4, 4)
        assert cls.complex_euler == 0
        assert cls.pi1.num_generators == 1 and not cls.pi1.relators

        two = solution_classes(parse_tuple(["[x^2,y]"], 2))
        assert len(two) == 2 and all(c.size == 1 for c in two)

        nine = solution_classes(parse_tuple(["[x,y]^3"], 2))
        assert len(nine) == 9 and all(c.size == 1 for c in nine)

        (sq,) = solution_classes(parse_tuple(["[x,y]^2"], 2))
        assert (sq.size, sq.complex.num_edges) == (12, 16)
        assert sq.complex_euler == -4
        assert sq.pi1.num_generators == 5 and not sq.pi1.relators

        (three,) = solution_classes(parse_tuple(["[x,y][x,z][x,t]"], 4))
        assert (three.size, three.complex.num_edges, three.complex.num_triangles) == (
            30,
            102,
            72,
        )
        assert three.complex_euler == 0


def test_criterion_07_cross_identities():
    with budget("7 (cross identities)", 120):
        for text, (rank, _) in GOLDEN.items():
            t = parse_tuple([text], rank)
            classes = solution_classes(t)
            for cls in classes:
                assert cls.mobius_sum == cls.complex_euler, text
            lead = trace_leading(t)
            assert leading_via_classes(t) == (lead.exponent, lead.coefficient), text
            result = trace_exact(t)
            if lead.coefficient != 0:
                assert result.leading == (
                    lead.exponent,
                    Fraction(lead.coefficient),
                ), text
            elif not result.function.is_zero:
                assert result.leading[0] <= lead.exponent - 2, text
            assert parity_report(t), text
            scan = pair_statistics(t, collect_argmax=False)
            assert scan.diagonal_ch == scan.ch, text


def _random_balanced_words(count: int, seed: int) -> list[Word]:
    rng = random.Random(seed)
    found: list[Word] = []
    seen = set()
    while len(found) < count:
        length = rng.choice([4, 6, 8])
        letters = [
            Letter(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(length)
        ]
        w = Word(letters).cyclic_reduce()
        key = w.letters
        if w.is_empty or len(w) > 8 or key in seen:
            continue
        if not word_tuple([w], 3).is_balanced():
            continue
        seen.add(key)
        found.append(w)
    return found


def test_criterion_08_scl_bounds():
    with budget("8 (scl bounds)", 120):
        assert scl_upper_bound(parse("[x,y]", 2), 4) == Fraction(1, 2)
        for w in _random_balanced_words(5, seed=20240817):
            b1 = scl_upper_bound(w, 1, rank=3)
            b2 = scl_upper_bound(w, 2, rank=3)
            assert b2 <= b1, str(w)


def test_criterion_09_monte_carlo():
    with budget("9 (Monte Carlo)", 300):
        for text, (rank, _) in GOLDEN.items():
            t = parse_tuple([text], rank)
            result = trace_exact(t)
            threshold = result.validity_threshold
            assert threshold <= 4, text
            for n in (threshold, threshold + 2):
                exact = float(result.evaluate(n))
                mc = estimate(t, n, samples=200_000, seed=zlib.crc32(f"{text}:{n}".encode()))
                # the 1e-12 floor covers IEEE noise when the sampled
                # distribution is a point mass (stderr exactly 0)
                tol = 4 * mc.stderr + 1e-12
                assert abs(mc.mean.real - exact) <= tol, (text, n)
                assert abs(mc.mean.imag) <= tol, (text, n)


def test_criterion_10_property_suites():
    with budget("10 (property suites)", 300):
        # Mobius defining relation on S_L, L <= 4
        for L in (2, 3, 4):
            perms = list(all_permutations(L))
            for s, t in itertools.product(perms, repeat=2):
                if not leq(s, t):
                    continue
                total = sum(
                    mobius(s.inverse() * p)
                    for p in perms
                    if leq(s, p) and leq(p, t)
                )
                assert total == (1 if s == t else 0)

        # partial-order axioms on S_L, L <= 5
        for L in (4, 5):
            perms = list(all_permutations(L))
            above = {p: {q for q in perms if leq(p, q)} for p in perms}
            for p in perms:
                assert p in above[p]
                for q in above[p]:
                    if p in above[q]:
                        assert p == q
                    assert above[q] <= above[p]

        # chi monotone under the pair order, tuples of total length <= 8
        tuples = [
            parse_tuple(["[x,y]"], 2),
            parse_tuple(["[x^2,y]"], 2),
            parse_tuple(["[x,y]^2"], 2),
            parse_tuple(["[x,y][x,z]"], 3),
            parse_tuple(["x", "X"], 1),
            parse_tuple(["x^2", "X^2"], 1),
            parse_tuple(["xy", "Y X"], 2),
        ]
        for t in tuples:
            occ = occurrences(t.cyclically_reduced())
            matchings = list(enumerate_matchings(occ))
            pairs = [(s, tt) for s in matchings for tt in matchings]
            chi = {p: euler_char(occ, *p) for p in pairs}
            for below, above_ in itertools.product(pairs, repeat=2):
                if below != above_ and pair_leq(below, above_):
                    assert chi[below] >= chi[above_]

        # character orthogonality, L <= 6
        for L in range(2, 7):
            mus = list(partitions(L))
            sizes = {mu: conjugacy_class_size(mu) for mu in mus}
            for lam1, lam2 in itertools.combinations_with_replacement(
                list(partitions(L)), 2
            ):
                total = sum(
                    sizes[mu] * character(lam1, mu) * character(lam2, mu)
                    for mu in mus
                )
                assert total == (math.factorial(L) if lam1 == lam2 else 0)

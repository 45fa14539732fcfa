import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmeasure import surfaces
from wordmeasure.solutions import is_incompressible
from wordmeasure.surfaces import (
    PairCapExceeded,
    UnbalancedError,
    _cycle_labels,
    _lay,
    _level_set,
    diagonal_max_euler,
    euler_char,
    occurrences,
    pair_statistics,
)
from wordmeasure.words import parse, parse_tuple

from oracles import (
    Permutation,
    _boundary_classes,
    _sigma_paths,
    block_count,
    commutator_length,
    cycle_types,
    enumerate_matchings,
    pair_leq,
    summed_scan_by_sigma,
)

XY = parse_tuple(["[x,y]"], 2)
XY2 = parse_tuple(["[x,y]^2"], 2)
XYXZ = parse_tuple(["[x,y][x,z]"], 3)
XXY = parse_tuple(["[x^2,y]"], 2)
ANNULUS = parse_tuple(["x", "X"], 1)


class TestOccurrences:
    def test_commutator(self):
        occ = occurrences(XY)
        assert occ.L == 2
        # slot 2g ends letter g: x y X Y has positive x, y at 0, 1
        # and negative x, y at 2, 3
        assert occ.tau_src == ((0,), (2,))
        assert occ.sigma_tgt == ((4,), (6,))

    def test_commutator_square(self):
        occ = occurrences(XY2)
        assert occ.L == 4
        assert occ.counts == (2, 2)

    def test_two_commutators(self):
        occ = occurrences(XYXZ)
        assert occ.L == 4
        assert occ.counts == (2, 1, 1)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedError):
            occurrences(parse_tuple(["x"], 1))

    def test_canonical_order_is_reading_order(self):
        occ = occurrences(parse_tuple(["y X", "x Y"], 2))
        # letters y X | x Y: positive x at 2, y at 0; negative x at 1, y at 3
        assert occ.tau_src == ((4,), (0,))
        assert occ.sigma_tgt == ((2,), (6,))


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_matchings(occurrences(XY)))) == 1
        assert len(list(enumerate_matchings(occurrences(XYXZ)))) == 2
        assert len(list(enumerate_matchings(occurrences(XY2)))) == 4

    def test_deterministic_order(self):
        first = list(enumerate_matchings(occurrences(XY2)))
        second = list(enumerate_matchings(occurrences(XY2)))
        assert first == second
        assert len(set(first)) == len(first)


class TestBlockAndDiscCounts:
    def test_single_commutator(self):
        occ = occurrences(XY)
        (m,) = enumerate_matchings(occ)
        assert block_count(XY, m, m) == 1
        assert sum(map(len, cycle_types(occ, m, m))) == 2
        assert euler_char(occ, m, m) == -1

    def test_annulus_pair(self):
        # the surface for (x, x^-1) must be an annulus: chi = 0
        occ = occurrences(ANNULUS)
        (m,) = enumerate_matchings(occ)
        assert sum(map(len, cycle_types(occ, m, m))) == 1
        assert euler_char(occ, m, m) == 0
        assert block_count(ANNULUS, m, m) == 1

    def test_diagonal_z_count_is_l(self):
        occ = occurrences(XY2)
        for m in enumerate_matchings(occ):
            assert sum(map(len, cycle_types(occ, m, m))) == occ.L

    def test_mixed_pair_of_two_commutators(self):
        occ = occurrences(XYXZ)
        m1, m2 = enumerate_matchings(occ)
        assert sum(map(len, cycle_types(occ, m1, m2))) == 3
        assert cycle_types(occ, m1, m2) == ((2,), (1,), (1,))

    def test_one_occurrence_per_generator(self):
        occ = occurrences(parse_tuple(["[x,y]"], 2))
        (m,) = enumerate_matchings(occ)
        assert sum(map(len, cycle_types(occ, m, m))) == 2  # r cycles


class TestHistograms:
    def test_two_commutators_all_at_minus_three(self):
        scan = pair_statistics(XYXZ)
        assert scan.histogram == {-3: 4}

    def test_commutator_square_split(self):
        scan = pair_statistics(XY2)
        assert scan.histogram == {-3: 12, -5: 4}

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    def test_g_star_histogram_depends_on_cycle_type_alone(self, c):
        # the sigma-by-sigma oracle's last stage, pi of g*, with states
        # merged by boundary class: once every other generator is laid,
        # each open path pairs the tau source of one index m of g* with the
        # tau target of index P(m) (labels 2m and 2 P(m) + 1 here), the
        # class is the cycle type of P, and the histogram of (cycle type of
        # pi, cycles pi's edges close) over all pi is the same for every P
        # of one cycle type
        sources, targets = range(0, 2 * c, 2), range(1, 2 * c, 2)
        perms = list(itertools.permutations(range(c)))
        by_type = {}
        for P in perms:
            pattern = [0] * (2 * c)
            for m, n in enumerate(P):
                pattern[2 * m] = 2 * n + 1
                pattern[2 * n + 1] = 2 * m
            hist = {}
            for pi in perms:
                closed = _lay(pattern.copy(), sources, targets, pi)
                key = (Permutation(pi).cycle_type(), closed)
                hist[key] = hist.get(key, 0) + 1
            by_type.setdefault(Permutation(P).cycle_type(), []).append(hist)
        assert len(by_type) == [1, 2, 3, 5, 7][c - 1]
        for hists in by_type.values():
            assert all(h == hists[0] for h in hists)


class TestMaxEuler:
    def test_commutator(self):
        assert pair_statistics(XY).ch == -1

    def test_two_commutators_all_achieve(self):
        scan = pair_statistics(XYXZ)
        assert scan.ch == -3
        assert len(scan.argmax) == 4

    def test_cube(self):
        t = parse_tuple(["[x,y]^3"], 2)
        assert pair_statistics(t, collect_argmax=False).ch == -3

    def test_unbalanced_sentinel(self):
        scan = pair_statistics(parse_tuple(["x"], 1))
        assert scan.ch == float("-inf")
        assert not scan.balanced

    def test_empty_words_shift(self):
        # ch(w, 1) = ch(w) + 1
        with_empty = parse_tuple(["[x,y]", ""], 2)
        assert pair_statistics(with_empty).ch == pair_statistics(XY).ch + 1

    def test_diagonal_agrees(self, golden_tuples):
        for t in golden_tuples.values():
            scan = pair_statistics(t, collect_argmax=False)
            assert scan.diagonal_ch == scan.ch
            assert diagonal_max_euler(t) == scan.ch

    def test_cap_enforced(self, monkeypatch):
        def no_scan(*_, **__):
            raise AssertionError("diagonal work started above the cap")

        assert not hasattr(surfaces, "_diagonal_scan")
        monkeypatch.setattr(surfaces, "_diagonal_search", no_scan)
        with pytest.raises(PairCapExceeded):
            pair_statistics(XY2, cap=10)
        with pytest.raises(PairCapExceeded) as exc:
            diagonal_max_euler(XY2, cap=3)
        assert (exc.value.needed, exc.value.cap) == (4, 3)
        with pytest.raises(PairCapExceeded):
            diagonal_max_euler(XY2, cap=3, above=-10)


class TestCommutatorLength:
    def test_powers_of_commutator(self):
        w = parse("[x,y]", 2)
        for m in (1, 2, 3):
            assert commutator_length(w**m) == m // 2 + 1

    def test_simple_commutator(self):
        assert commutator_length(parse("[x,y]", 2)) == 1

    def test_unbalanced_is_infinite(self):
        assert commutator_length(parse("x", 1)) == math.inf

    def test_trivial_word(self):
        assert commutator_length(parse("x X", 1)) == 0

    def test_no_pair_scan(self, monkeypatch):
        # ch comes from the diagonal pairs alone
        def no_scan(*_, **__):
            raise AssertionError("commutator_length scanned pairs")

        assert not hasattr(surfaces, "_scan")
        monkeypatch.setattr(surfaces, "_summed_scan", no_scan)
        w = parse("[x,y]", 2)
        assert [commutator_length(w**m) for m in (1, 2, 3, 4)] == [1, 2, 2, 3]


SMALL_TUPLES = [XY, XXY, XYXZ, XY2, ANNULUS, parse_tuple(["x^2", "X^2"], 1)]


def _all_pairs(occ):
    matchings = list(enumerate_matchings(occ))
    return [(s, t) for s in matchings for t in matchings]


@pytest.mark.parametrize("t", SMALL_TUPLES, ids=[str(t) for t in SMALL_TUPLES])
def test_chi_monotone_under_pair_order(t):
    # going down in the pair order never lowers chi; covering steps move by 0 or 2
    occ = occurrences(t.cyclically_reduced())
    pairs = _all_pairs(occ)
    chi = {p: euler_char(occ, *p) for p in pairs}
    for below, above in itertools.product(pairs, repeat=2):
        if below == above or not pair_leq(below, above):
            continue
        assert chi[below] >= chi[above]
        if _pair_rank(above) - _pair_rank(below) == 1:  # covering move
            assert chi[below] - chi[above] in (0, 2)


def _cycles(a, b):
    inv = [0] * len(a)
    for k, v in enumerate(a):
        inv[v] = k
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        size = 0
        k = start
        while not seen[k]:
            seen[k] = True
            size += 1
            k = inv[b[k]]
        out.append(size)
    return out


def _pair_rank(p):
    return sum(len(a) - len(_cycles(a, b)) for a, b in zip(*p))


@pytest.mark.parametrize("t", SMALL_TUPLES, ids=[str(t) for t in SMALL_TUPLES])
def test_block_count_symmetric_empirically(t):
    t = t.cyclically_reduced()
    for s, tt in _all_pairs(occurrences(t)):
        assert block_count(t, s, tt) == block_count(t, tt, s)


@pytest.mark.parametrize("t", SMALL_TUPLES, ids=[str(t) for t in SMALL_TUPLES])
def test_chi_parity_matches_word_count(t):
    occ = occurrences(t.cyclically_reduced())
    num_words = len(t.words)
    for s, tt in _all_pairs(occ):
        assert (euler_char(occ, s, tt) - num_words) % 2 == 0


def test_matching_validation():
    occ = occurrences(XY2)
    with pytest.raises(ValueError):
        occ.check_matching(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        occ.check_matching(((0, 1),))


def _components(n, edges):
    """Component labels of n junctions under slot edges, by naive relabelling."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            a, b = a // 2, b // 2
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return label


class TestPrimitives:
    def test_cycle_labels_are_the_least_indices_of_the_cycles(self):
        for L in range(5):
            for a, b in itertools.product(itertools.permutations(range(L)), repeat=2):
                p = Permutation(a).inverse() * Permutation(b)
                label = _cycle_labels(a, b)
                for cycle in p.cycles():
                    assert {label[k] for k in cycle} == {min(cycle)}
                lengths = Counter(label).values()
                assert tuple(sorted(lengths, reverse=True)) == p.cycle_type()

    def test_lay_closes_the_cycles_of_a_component_recount(self):
        # junction x has slots 2x and 2x + 1; lay random edges between
        # distinct free slots in batches, then recount the components
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 12)
            other = [s ^ 1 for s in range(2 * n)]
            free = list(range(2 * n))
            rng.shuffle(free)
            closed = 0
            edges = []
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(0, len(free) // 2 + 1)
                sources, targets = free[:k], free[k:2 * k]
                del free[:2 * k]
                images = rng.sample(range(k), k)
                closed += _lay(other, sources, targets, images)
                edges += [(a, targets[v]) for a, v in zip(sources, images)]
            label = _components(n, edges)
            open_paths = {label[s // 2] for s in free}
            assert closed + len(open_paths) == len(set(label))
            assert 2 * len(open_paths) == len(free)
            for s in free:
                assert other[s] in free and other[s] != s
                assert label[other[s] // 2] == label[s // 2]

    def test_level_set_is_none_exactly_when_compressible(self, golden_tuples):
        cases = []
        for t in golden_tuples.values():
            occ = occurrences(t)
            scan = pair_statistics(t)
            cases += [(occ, p, scan.ch) for p in scan.argmax]
        occ = occurrences(XY2)
        low = next(p for p in _all_pairs(occ) if euler_char(occ, *p) == -5)
        cases.append((occ, low, -5))
        verdicts = set()
        for occ, p, chi in cases:
            reached = _level_set(occ, p, chi, occ.pair_count())
            verdict = is_incompressible(occ, *p)
            assert (reached is None) == (not verdict)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def _level(gens):
    """A level of the summed scan on made-up slots: kind, mate, token, ports, vertices.

    ``gens[j]`` is (pending, elens) for generator j: ``pending`` of its
    occurrences of each sign still await their sigma edge, and each entry
    of ``elens`` is one mate path of that many edges left by the edges
    laid so far, which joins a tau source (a letter end) to a tau target
    (a letter start).  Positive occurrence k is a tau source and a sigma
    source, negative occurrence k a sigma target and a tau target.  A
    vertex is (letter end, letter start), and both carry the token kind
    + width * edges, as in the scan.  ``vertices`` lists, per relabelling
    class (the pending positive occurrences, the pending negative ones,
    and the paths of one edge count), the vertices of that class.
    """
    width = 4 * len(gens)
    kind, mate, token, ports, vertices = [], [], [], [], []

    def vertex(end, start, edges):
        a, b = len(kind), len(kind) + 1
        kind.extend([end, start])
        mate.extend([b, a])
        token.extend([end + edges * width, start + edges * width])
        ports.append(a)
        return a, b

    for j, (pending, elens) in enumerate(gens):
        groups = [(2, 0, 0, pending), (1, 3, 0, pending)] if pending else []
        groups += [(2, 3, e, elens.count(e)) for e in sorted(set(elens))]
        for end, start, edges, c in groups:
            vertices.append([vertex(4 * j + end, 4 * j + start, edges) for _ in range(c)])
    return kind, mate, token, ports, vertices


def _levels(sizes):
    """Three levels with ``sizes[j]`` occurrences of each sign of generator j.

    Every sigma edge laid but the last generator's; about half of the
    last generator's laid, mixing paths of 0 and 1 edges; and every
    sigma edge laid, with the tau edges laid so far leaving paths of 1
    and 3 edges.
    """
    laid = [(0, [1] * c) for c in sizes[:-1]]
    last = sizes[-1]
    return [
        laid + [(last, [])],
        laid + [(last // 2, [1] * (last - last // 2))],
        [(0, [1 + 2 * ((j + k) // 2 % 2) for k in range(c)]) for j, c in enumerate(sizes)],
    ]


def _pairing(ports, mate, starts):
    """The path-end array pairing ports[k] with starts[k]."""
    other = [0] * len(mate)
    for a, b in zip(ports, starts):
        other[a], other[b] = b, a
    return other


def _relabel(other, vertices, images):
    """``other`` with vertex k of class n renamed vertex images[n][k]."""
    rename = list(range(len(other)))
    for cls, image in zip(vertices, images):
        for (a, b), v in zip(cls, image):
            rename[a], rename[b] = cls[v]
    moved = [0] * len(other)
    for s, t in enumerate(other):
        moved[rename[s]] = rename[t]
    return moved


def _laid(level, width, other, sources, targets, images):
    """Lay images' edges from sources to targets one at a time, as the scan does.

    Each edge relinks copies of ``other`` and of the level's mates by
    ``_lay``'s rule, and its letter end leaves the ports.  A mate path
    that closes is a cycle of sigma^-1 tau of length (edges + 1) / 2;
    otherwise both far ends get the edges of the two paths plus one.
    Returns the copies, the tokens, the ports, the blocks closed and the
    sorted cycle lengths closed.
    """
    kind, mate, token, ports, _ = level
    other, mate, token, ports = other.copy(), mate.copy(), token.copy(), ports.copy()
    blocks, lengths = 0, []
    for a, v in zip(sources, images):
        b = targets[v]
        blocks += surfaces._lay(other, (a,), (b,), (0,))
        if surfaces._lay(mate, (a,), (b,), (0,)):
            lengths.append((token[a] // width + 1) // 2)
        else:
            edges = (token[a] // width + token[b] // width + 1) * width
            token[mate[a]] = kind[mate[a]] + edges
            token[mate[b]] = kind[mate[b]] + edges
        ports.remove(a if kind[a] % 4 == 2 else b)
    return other, mate, token, ports, blocks, sorted(lengths)


@st.composite
def relabelled_states(draw):
    """A made-up level, a path-end array on it, one permutation per
    relabelling class, and one move per generator: its sigma edges if
    some are pending, else its tau edges.  The level is part-way through
    the sigma edges, with none, some or all of each generator's laid, or
    part-way through the tau edges, with paths of 1, 3 and 5 edges."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    tau = draw(st.booleans())
    gens = []
    for c in sizes:
        if tau:
            gens.append((0, draw(st.lists(st.sampled_from([1, 3, 5]), min_size=c, max_size=c))))
        else:
            pending = draw(st.integers(0, c))
            gens.append((pending, [1] * (c - pending)))
    level = _level(gens)
    starts = draw(st.permutations([level[1][a] for a in level[3]]))
    images = [draw(st.permutations(range(len(cls)))) for cls in level[4]]
    moves = [draw(st.permutations(range(pending or len(elens)))) for pending, elens in gens]
    return gens, level, starts, images, moves


def _forms_by_level(monkeypatch):
    """Record the distinct ``_form`` values of each level of a scan.

    Every step takes at least one port away, so the port count names
    the level.
    """
    forms = {}
    real = surfaces._form

    def recording(other, mate, kind, ports):
        form = real(other, mate, kind, ports)
        forms.setdefault(len(ports), set()).add(form)
        return form

    monkeypatch.setattr(surfaces, "_form", recording)
    return forms


class TestBoundaryClasses:
    """The ``_form`` classes that ``_summed_scan`` merges its states by."""

    @pytest.mark.parametrize(
        "texts, levels",
        [
            (["[x,y]^4"], [4, 12, 18, 10, 14, 17, 8, 2, 7, 19, 18, 5, 7, 8, 4, 1]),
            (["[x^2,y^2]^2"], [4, 12, 22, 13, 31, 82, 94, 41, 83, 107, 47, 5, 7, 8, 4, 1]),
            (["[x,y]^2", "[x,y]^2"], [3, 5, 10, 8, 11, 17, 9, 3, 9, 19, 18, 5, 7, 8, 4, 1]),
            (["[x,y]^5"], [5, 20, 49, 52, 19, 33, 47, 50, 15, 4,
                           15, 44, 79, 46, 7, 12, 15, 12, 5, 1]),
        ],
        ids=["[x,y]^4", "[x^2,y^2]^2", "([x,y]^2,[x,y]^2)", "[x,y]^5"],
    )
    def test_class_counts(self, texts, levels, monkeypatch):
        # the states after each edge, the L sigma edges and then the L tau
        # edges: a work count, so a scan that merges less fails here and
        # not only on words too big to test; after the last sigma edge
        # they are the relabelling classes of the sigma-by-sigma oracle's
        # boundaries
        occ = occurrences(parse_tuple(texts, 2))
        forms = _forms_by_level(monkeypatch)
        assert surfaces._summed_scan(occ) == summed_scan_by_sigma(occ)
        assert [len(forms[n]) for n in sorted(forms, reverse=True)] == levels
        boundaries = {name for _, name in _boundary_classes(occ)}
        assert len(boundaries) == levels[occ.L - 1]

    @pytest.mark.parametrize(
        "texts, rank, peaks",
        [(["[x,y]^4"], 2, (18, 18)), (["([x,y][x,z][x,t])^3"], 4, (125, 37))],
        ids=["[x,y]^4", "w^3"],
    )
    def test_diagonal_peak_states(self, texts, rank, peaks, monkeypatch):
        # a work count for the diagonal search: the most states one step
        # keeps, with no floor and with the floor at the maximum, where a
        # state that cannot reach the maximum is dropped
        occ = occurrences(parse_tuple(texts, rank))
        ch = diagonal_max_euler(parse_tuple(texts, rank))
        forms = _forms_by_level(monkeypatch)
        found = []
        for above in (None, ch - 1):
            forms.clear()
            assert surfaces._diagonal_search(occ, above) == (ch, [])
            found.append(max(map(len, forms.values())))
        assert tuple(found) == peaks

    def test_open_paths_run_from_tau_sources_to_tau_targets(self, golden_tuples):
        # so a sigma's boundary is a permutation of the indices
        for text, t in golden_tuples.items():
            occ = occurrences(t)
            sources = {s for i in occ.active for s in occ.tau_src[i]}
            targets = {s for i in occ.active for s in occ.tau_tgt[i]}
            for parts in itertools.product(
                *(itertools.permutations(range(occ.counts[i])) for i in occ.active)
            ):
                other, _ = _sigma_paths(occ, parts)
                assert {other[s] for s in sources} == targets, text

    def test_a_generator_laid_leaves_a_boundary_on_the_rest(self, golden_tuples, monkeypatch):
        # after each step, every open path and every mate path joins a
        # letter end (token 1 or 2 mod 4) to a letter start (0 or 3), so a
        # walk from the ports that takes mate first reads each cycle one
        # way round
        seen = []
        real = surfaces._form

        def checked(other, mate, kind, ports):
            for a in ports:
                assert kind[a] % 4 in (1, 2)
                for pair in (other, mate):
                    assert kind[pair[a]] % 4 in (0, 3) and pair[pair[a]] == a
            assert {other[a] for a in ports} == {mate[a] for a in ports}
            seen.append(len(ports))
            return real(other, mate, kind, ports)

        monkeypatch.setattr(surfaces, "_form", checked)
        for text, t in golden_tuples.items():
            occ = occurrences(t)
            assert surfaces._summed_scan(occ) == summed_scan_by_sigma(occ), text
            # the diagonal search's states too, whose mates stay those of
            # the occurrences
            surfaces._diagonal_search(occ, every=True)
        assert 0 in seen

    @settings(max_examples=200, deadline=None)
    @given(relabelled_states())
    def test_relabelling_keeps_the_class(self, drawn):
        # a relabelling of the vertices keeps the form, and carries each
        # move of one state to a move of the other with the same form,
        # blocks and cycle lengths closed: sigma -> beta sigma alpha^-1 on
        # a generator with sigma edges pending, tau -> gamma tau gamma^-1
        # on one whose paths run from tau sources to tau targets
        gens, level, starts, images, moves = drawn
        kind, mate, token, ports, vertices = level
        width = 4 * len(gens)
        other = _pairing(ports, mate, starts)
        moved = _relabel(other, vertices, images)
        assert surfaces._form(moved, mate, token, ports) == surfaces._form(
            other, mate, token, ports
        )
        classes = iter(zip(vertices, images))
        for (pending, elens), move in zip(gens, moves):
            if pending:
                (pos, alpha), (neg, beta) = next(classes), next(classes)
                sources, targets = [b for _, b in pos], [a for a, _ in neg]
            paths, gamma = [], []
            for cls, image in itertools.islice(classes, len(set(elens))):
                gamma += [len(paths) + v for v in image]
                paths += cls
            if not pending:
                sources, targets = [a for a, _ in paths], [b for _, b in paths]
                alpha = beta = gamma
            carried = [beta[move[alpha.index(k)]] for k in range(len(move))]
            outcomes = set()
            for state, images_ in ((other, move), (moved, carried)):
                o, m, t, p, blocks, lengths = _laid(
                    level, width, state, sources, targets, images_
                )
                outcomes.add((surfaces._form(o, m, t, p), blocks, tuple(lengths)))
            assert len(outcomes) == 1

    @pytest.mark.parametrize(
        "sizes", [[3], [2, 1], [1, 1, 1], [2, 2], [3, 1], [2, 2, 1], [3, 2]]
    )
    def test_classes_are_the_relabelling_orbits(self, sizes):
        # every pairing of the ports with the letter starts of a made-up
        # level, grouped by form and by brute-force orbit, on three levels
        # of ``_levels``: mate paths of 0 and 1 edges during the sigma
        # edges, and of 1 and 3 edges during the tau edges
        for gens in _levels(sizes):
            kind, mate, token, ports, vertices = _level(gens)
            group = list(itertools.product(
                *(itertools.permutations(range(len(cls))) for cls in vertices)
            ))
            by_orbit, by_form = {}, {}
            for starts in itertools.permutations([mate[a] for a in ports]):
                other = _pairing(ports, mate, starts)
                key = tuple(starts)
                if key not in by_orbit:
                    orbit = {
                        tuple(_relabel(other, vertices, g)[a] for a in ports) for g in group
                    }
                    by_orbit.update(dict.fromkeys(orbit, orbit))
                form = surfaces._form(other, mate, token, ports)
                by_form.setdefault(form, set()).add(key)
            orbits = {frozenset(orbit) for orbit in by_orbit.values()}
            assert orbits == {frozenset(keys) for keys in by_form.values()}, gens

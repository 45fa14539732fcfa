import copy
import math
import random

import numpy as np
import pytest

from wordmeasure.montecarlo import _Batch, estimate
from wordmeasure.trace import trace_exact
from wordmeasure.words import Letter, Word, parse_tuple, word_tuple


def _gram(a, b):
    """a^H b for every sample of two (n, n, batch) arrays."""
    return np.einsum("kib,kjb->ijb", a.conj(), b)


class TestSampling:
    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 6):
            u = _Batch(n, 1, 1).haar(rng)[:, :, 0]
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10

    def test_dimension_one_is_phase(self):
        rng = np.random.default_rng(2)
        u = _Batch(1, 1, 1).haar(rng)[:, :, 0]
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_fixed_seed_reproducible(self):
        a = _Batch(4, 1, 1).haar(np.random.default_rng(42))
        b = _Batch(4, 1, 1).haar(np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_estimate_reproducible(self):
        t = parse_tuple(["[x,y]"], 2)
        first = estimate(t, 3, samples=2000, seed=9)
        second = estimate(t, 3, samples=2000, seed=9)
        assert first == second

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            estimate(parse_tuple(["x"], 1), 0, samples=10)


class TestSamplerExactness:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_q_of_ginibre_with_positive_r_diagonal(self, n):
        # Mezzadri's condition: Z = QR with R upper triangular and its
        # diagonal real and positive; Z is redrawn from the same state
        rng = np.random.default_rng(20 + n)
        twin = copy.deepcopy(rng)
        q = _Batch(n, 1, 400).haar(rng)
        z = twin.standard_normal((n, n, 800)).view(np.complex128)
        r = _gram(q, z)
        below = np.tril_indices(n, -1)
        assert np.max(np.abs(r[below]), initial=0.0) < 1e-12
        diag = r[np.arange(n), np.arange(n)]
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert np.min(diag.real) > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_every_matrix_of_a_batch_is_unitary(self, n):
        q = _Batch(n, 1, 1000).haar(np.random.default_rng(30 + n))
        assert np.max(np.abs(_gram(q, q) - np.eye(n)[:, :, None])) < 1e-12

    def test_haar_trace_moments_at_n4(self):
        # E|tr U|^(2k) = k! for k <= n, and E tr U = E tr U^2 = 0
        q = _Batch(4, 1, 40_000).haar(np.random.default_rng(2007))
        tr = np.einsum("iib->b", q)
        tr2 = np.einsum("ijb,jib->b", q, q)
        stats = [(np.abs(tr) ** (2 * k), math.factorial(k)) for k in (1, 2, 3)]
        for values in (tr, tr2):
            stats += [(values.real, 0.0), (values.imag, 0.0)]
        for values, expected in stats:
            stderr = values.std() / math.sqrt(len(values))
            assert abs(values.mean() - expected) <= 4 * stderr, expected


def _random_word(rng: random.Random, rank: int) -> Word:
    letters = [
        Letter(rng.randint(1, rank), rng.choice((1, -1)))
        for _ in range(rng.randint(1, 7))
    ]
    return Word(letters) ** rng.choice((1, 1, 2, 3, 4, 5))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_word_traces_match_per_sample_products(n):
    # the batched kernel against a plain numpy product per sample, with
    # inverses taken by np.linalg.inv
    rng = random.Random(n)
    rank, size = 3, 5
    words = [_random_word(rng, rank) for _ in range(12)]
    words += [Word([(1, 1)]), Word([(2, -1)]) ** 3, Word([(3, -1), (1, 1)]) ** 4, Word()]
    words.append(Word([(1, 1), (2, 1)]) ** 2 * Word([(1, 1), (3, -1)]))  # not a power
    batch = _Batch(n, rank, size)
    u = batch.haar(np.random.default_rng(n))
    for t in [word_tuple([w], rank) for w in words] + [word_tuple(words[:3] + [Word()], rank)]:
        got = batch.trace_products(t.words, u)
        for b in range(size):
            want = 1.0
            for word in t.words:
                m = np.eye(n)
                for let in word:
                    g = u[:, :, (let.gen - 1) * size + b]
                    m = m @ (g if let.sign > 0 else np.linalg.inv(g))
                want *= np.trace(m)
            assert abs(got[b] - want) <= 1e-9 * max(1.0, abs(want)), (str(t), b)


class TestAgainstExact:
    def test_commutator_square_at_n4(self):
        t = parse_tuple(["[x,y]^2"], 2)
        exact = trace_exact(t).evaluate(4)  # -4/60 = -1/15
        mc = estimate(t, 4, samples=60_000, seed=5)
        assert abs(mc.mean.real - float(exact)) <= 4 * mc.stderr
        assert abs(mc.mean.imag) <= 4 * mc.stderr

    def test_unbalanced_word_near_zero(self):
        mc = estimate(parse_tuple(["x"], 1), 3, samples=30_000, seed=3)
        assert abs(mc.mean) <= 4 * mc.stderr + 1e-12

    def test_annulus_pair_is_one(self):
        t = parse_tuple(["x", "X"], 1)
        mc = estimate(t, 3, samples=30_000, seed=11)
        assert abs(mc.mean.real - 1.0) <= 4 * mc.stderr

    def test_empty_word_factor(self):
        t = parse_tuple(["[x,y]", ""], 2)
        mc = estimate(t, 3, samples=30_000, seed=13)
        # trace(tuple with empty word) = n * (1/n) = 1
        assert abs(mc.mean.real - 1.0) <= 4 * mc.stderr

    def test_uncurated_word(self):
        # a balanced word outside the regression set
        t = parse_tuple(["x y y X Y Y x Y X y"], 2)
        result = trace_exact(t)
        n = result.validity_threshold
        mc = estimate(t, n, samples=60_000, seed=17)
        assert abs(mc.mean.real - float(result.evaluate(n))) <= 4 * mc.stderr

"""Monte-Carlo cross-validation of the exact trace pipeline.

Batches are laid out sample index last: B matrices of size n x n form
one (n, n, B) array, so every matrix step is a few numpy calls over
contiguous runs of B numbers rather than B tiny matrix operations.

Haar sampling orthonormalises the columns of a Ginibre batch (float64
normals viewed as complex128; the scale is irrelevant) by Gram-Schmidt
with one re-orthogonalisation pass.  That yields Z = QR with R upper
triangular and its diagonal real and positive, which makes Q exactly
Haar (Mezzadri, "How to generate random matrices from the classical
compact groups", Notices AMS 54, 2007).

A word that spells u^k is evaluated as a power of u's product; the last
product of each trace is replaced by the sum of A * B^T, and inverses
are conjugate transposes, exact for unitaries.  The RNG is numpy's
PCG64 behind ``default_rng``, so a fixed seed reproduces every sample
stream bit for bit on one platform.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .words import Letter, WordTuple

DEFAULT_BATCH = 2048


class McEstimate(NamedTuple):
    """Sample mean of the product of traces, with its standard error."""

    n: int
    samples: int
    mean: complex
    stderr: float
    seed: int


class _Batch:
    """The arrays of one batch shape, reused from batch to batch.

    Arrays this large, freed after each batch, go back to the system.
    Faulting their pages in again cost a fresh process 22,500 page
    faults and a quarter of the time of a 50,000-sample estimate of
    [x,y]^3 at n = 4.
    """

    def __init__(self, n: int, rank: int, size: int) -> None:
        width = rank * size
        self.rank, self.size = rank, size
        self.normals = np.empty((n, n, 2 * width))
        self.conj = np.empty((n, n, width), np.complex128)
        self.row = np.empty((n, width), np.complex128)
        self.coef = np.empty(width, np.complex128)
        self.scale = np.empty(width)
        self.mats = [np.empty((n, n, size), np.complex128) for _ in range(5)]

    def haar(self, rng: np.random.Generator) -> np.ndarray:
        """rank * size Haar unitaries, overwritten by the next call."""
        z = rng.standard_normal(out=self.normals).view(np.complex128)
        row, coef, scale = self.row, self.coef, self.scale
        for j in range(len(z)):
            v = z[:, j]
            for _ in range(2 if j else 0):
                for k in range(j):
                    q = z[:, k]
                    np.multiply(np.conjugate(q, out=row), v, out=row)
                    v -= np.multiply(q, np.add.reduce(row, axis=0, out=coef), out=row)
            sq = np.square(v.view(np.float64), out=row.view(np.float64))
            sq = np.add.reduce(sq, axis=0, out=coef.view(np.float64))
            np.sqrt(np.add(sq[0::2], sq[1::2], out=scale), out=scale)
            v *= np.reciprocal(scale, out=scale)
        return z

    def trace_products(self, words, u: np.ndarray) -> np.ndarray:
        """Product over the words of their traces, for every sample of u.

        ``u`` holds one batch per generator side by side on the sample
        axis, as ``haar`` returns them.
        """
        size = self.size
        u_bar = np.conjugate(u, out=self.conj)
        mats = {}
        for g in range(self.rank):
            part = slice(g * size, (g + 1) * size)
            mats[Letter(g + 1, 1)] = u[:, :, part]
            mats[Letter(g + 1, -1)] = u_bar[:, :, part].transpose(1, 0, 2)
        prod = np.ones(size, dtype=complex)
        for word in words:
            if len(word):
                prod *= _word_traces(word.letters, mats, self.mats)
            else:
                prod *= len(u)
        return prod


def _product(a, b, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """a @ b for every sample, into out: n broadcast multiply-adds."""
    np.multiply(a[:, 0, None], b[0], out=out)
    for j in range(1, len(a)):
        out += np.multiply(a[:, j, None], b[j], out=term)
    return out


def _fold(factors: list, outs: tuple, term: np.ndarray):
    """The product of the factors, left to right, in one of the two outs.

    A single factor is returned as it is; no factor may be an out.
    """
    acc = factors[0]
    for m, out in zip(factors[1:], itertools.cycle(outs)):
        acc = _product(acc, m, out, term)
    return acc


def _root(letters: tuple[Letter, ...]) -> tuple[tuple[Letter, ...], int]:
    """The shortest u and the k with letters == u^k."""
    length = len(letters)
    for p in range(1, length):
        if length % p == 0 and letters == letters[:p] * (length // p):
            return letters[:p], length // p
    return letters, 1


def _word_traces(letters: tuple[Letter, ...], mats: dict, bufs: list) -> np.ndarray:
    """Trace of a nonempty word for every sample of a batch.

    ``mats`` maps each letter to its (n, n, batch) matrices; ``bufs``
    are five (n, n, batch) arrays to work in.
    """
    a, b, c, d, term = bufs
    root, k = _root(letters)
    factors = [mats[let] for let in root]
    if k == 1:  # tr(f1 ... fm) = sum of (f1 ... fm-1) * fm^T
        if len(factors) == 1:
            return np.einsum("iib->b", factors[0])
        left, right = _fold(factors[:-1], (a, b), term), factors[-1]
    else:  # tr(u^k) = tr(u^h u^(k-h)) with h = k // 2
        u = _fold(factors, (a, b), term)
        left = _fold([u] * (k // 2), (c, d), term)
        right = _product(left, u, b if u is a else a, term) if k % 2 else left
    return np.einsum("ijb,jib->b", left, right)


def _accumulate_samples(
    t: WordTuple, n: int, samples: int, rng: np.random.Generator
) -> tuple[complex, float, float]:
    """(sum, sum of squared real parts, sum of squared imaginary parts)."""
    total = 0.0 + 0.0j
    sum_sq_re = 0.0
    sum_sq_im = 0.0
    done = 0
    batch = None
    while done < samples:
        size = min(DEFAULT_BATCH, samples - done)
        if batch is None or batch.size != size:
            batch = _Batch(n, max(t.rank, 1), size)
        prod = batch.trace_products(t.words, batch.haar(rng))
        total += prod.sum()
        sum_sq_re += float(np.dot(prod.real, prod.real))
        sum_sq_im += float(np.dot(prod.imag, prod.imag))
        done += size
    return complex(total), sum_sq_re, sum_sq_im


def estimate(t: WordTuple, n: int, samples: int, seed: int = 0) -> McEstimate:
    """Estimate the expected product of traces at dimension n.

    Draws i.i.d. tuples of Haar unitaries from one ``default_rng(seed)``
    stream, evaluates every word by matrix multiplication and averages
    the product of traces.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    total, sum_sq_re, sum_sq_im = _accumulate_samples(t, n, samples, rng)
    mean = total / samples
    var_re = sum_sq_re / samples - mean.real**2
    var_im = sum_sq_im / samples - mean.imag**2
    stderr = float(np.sqrt(max(var_re + var_im, 0.0) / samples))
    return McEstimate(n, samples, complex(mean), stderr, seed)

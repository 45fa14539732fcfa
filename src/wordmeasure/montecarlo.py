"""Monte-Carlo cross-validation of the exact trace pipeline.

Haar sampling follows the Ginibre-then-QR construction with the phase
normalization that makes the distribution exactly Haar (Mezzadri's
recipe).  The RNG is numpy's PCG64 behind ``default_rng``, so a fixed
seed reproduces every sample stream bit for bit on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import WordTuple

DEFAULT_SAMPLES = 200_000
DEFAULT_BATCH = 2048


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of the product of traces, with its standard error."""

    n: int
    samples: int
    mean: complex
    stderr: float
    seed: int


def sample_haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed n x n unitary matrix."""
    return _haar_batch(n, 1, rng)[0]


def _haar_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    z = (
        rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, np.newaxis, :]
    return q


def _word_traces(word, unitaries: np.ndarray) -> np.ndarray:
    """Trace of the word map applied to a batch of generator tuples.

    ``unitaries`` has shape (r, batch, n, n); inverses use the conjugate
    transpose, exact for unitaries.
    """
    batch, n = unitaries.shape[1], unitaries.shape[2]
    acc = np.broadcast_to(np.eye(n, dtype=complex), (batch, n, n)).copy()
    for let in word:
        u = unitaries[let.gen - 1]
        if let.sign < 0:
            u = u.conj().transpose(0, 2, 1)
        acc = acc @ u
    return np.einsum("bii->b", acc)


def _accumulate_samples(
    t: WordTuple, n: int, samples: int, rng: np.random.Generator
) -> tuple[complex, float, float]:
    """(sum, sum of squared real parts, sum of squared imaginary parts)."""
    r = max(t.rank, 1)
    total = 0.0 + 0.0j
    sum_sq_re = 0.0
    sum_sq_im = 0.0
    done = 0
    while done < samples:
        size = min(DEFAULT_BATCH, samples - done)
        unitaries = np.stack([_haar_batch(n, size, rng) for _ in range(r)])
        prod = np.ones(size, dtype=complex)
        for word in t.words:
            prod *= _word_traces(word, unitaries) if len(word) else n
        total += prod.sum()
        sum_sq_re += float(np.sum(prod.real**2))
        sum_sq_im += float(np.sum(prod.imag**2))
        done += size
    return complex(total), sum_sq_re, sum_sq_im


def _chunk_worker(args) -> tuple[complex, float, float]:
    letters, rank, n, samples, entropy = args
    from .words import Word

    t = WordTuple(tuple(Word(w) for w in letters), rank)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return _accumulate_samples(t, n, samples, rng)


def estimate(
    t: WordTuple,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    *,
    jobs: int = 1,
) -> McEstimate:
    """Estimate the expected product of traces at dimension n.

    Draws i.i.d. tuples of Haar unitaries, evaluates every word by
    matrix multiplication and averages the product of traces.  With
    ``jobs`` > 1 the samples are split across worker processes whose
    streams use seeds spawned from ``seed``; results are reproducible
    at a fixed job count (but differ between job counts, so compare
    estimates only up to their standard errors).
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    if jobs > 1 and samples >= 2 * jobs:
        from concurrent.futures import ProcessPoolExecutor

        letters = tuple(
            tuple((let.gen, let.sign) for let in w) for w in t.words
        )
        children = np.random.SeedSequence(seed).spawn(jobs)
        bounds = [samples * k // jobs for k in range(jobs + 1)]
        tasks = [
            (letters, t.rank, n, bounds[k + 1] - bounds[k], children[k].entropy)
            for k in range(jobs)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_chunk_worker, tasks))
        total = sum(p[0] for p in parts)
        sum_sq_re = sum(p[1] for p in parts)
        sum_sq_im = sum(p[2] for p in parts)
    else:
        rng = np.random.default_rng(seed)
        total, sum_sq_re, sum_sq_im = _accumulate_samples(t, n, samples, rng)
    mean = total / samples
    var_re = sum_sq_re / samples - mean.real**2
    var_im = sum_sq_im / samples - mean.imag**2
    stderr = float(np.sqrt(max(var_re + var_im, 0.0) / samples))
    return McEstimate(n, samples, complex(mean), stderr, seed)

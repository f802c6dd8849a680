"""Trace sampling and the cold-start problem.

The paper's lineage leans on two of its references here: Wood, Hill &
Kessler, "A model for estimating trace-sample miss ratios" [24], and
Flanagan et al., "Incomplete trace data and trace driven simulation"
[6].  When a full trace is too large to simulate, one simulates sampled
intervals instead — and each interval starts with a cold cache, biasing
the measured miss ratio upward.

This module implements interval sampling with three classic cold-start
treatments so the bias can be measured against this repository's full
traces (the ablation benchmark does exactly that):

* ``cold``     — count every miss (the naive, upward-biased estimate);
* ``discard``  — warm the cache on a prefix of each interval and count
  only the remainder (warm-up discard);
* ``continuous`` — carry cache state across intervals (lower bound;
  only the skipped gaps bias the result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, get_args

import numpy as np

from .cache import CacheConfig
from .kernels import simulate_auto

WarmupPolicy = Literal["cold", "discard", "continuous"]
WARMUP_POLICIES = get_args(WarmupPolicy)


@dataclass
class SampleEstimate:
    """A sampled miss-ratio estimate and its ground-truth context."""

    config: CacheConfig
    policy: str
    sampled_refs: int
    measured_misses: int
    estimated_miss_rate: float


def sample_intervals(length: int, num_samples: int,
                     sample_length: int) -> List[slice]:
    """Evenly spaced interval slices over a trace of ``length``."""
    if num_samples < 1 or sample_length < 1:
        raise ValueError("num_samples and sample_length must be positive")
    if num_samples * sample_length >= length:
        return [slice(0, length)]
    stride = length // num_samples
    return [slice(i * stride, i * stride + sample_length)
            for i in range(num_samples)]


def estimate_miss_rate(addresses: np.ndarray, config: CacheConfig,
                       num_samples: int = 10, sample_length: int = 50_000,
                       policy: WarmupPolicy = "discard",
                       warmup_fraction: float = 0.3) -> SampleEstimate:
    """Estimate a cache's miss rate from sampled trace intervals.

    Each interval is one chunk of the cache engine's stream: ``cold``
    simulates every interval on its own, ``discard`` counts the misses
    of ``[warm, rest]`` minus those of ``warm``, and ``continuous``
    streams all intervals through one cache.
    """
    if policy not in WARMUP_POLICIES:
        raise ValueError(f"unknown warm-up policy {policy!r}; "
                         f"expected one of {WARMUP_POLICIES}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    addresses = np.asarray(addresses)
    chunks = [addresses[interval] for interval in
              sample_intervals(len(addresses), num_samples, sample_length)]
    counted = sum(len(chunk) for chunk in chunks)
    if policy == "cold":
        misses = sum(simulate_auto(chunk, config).misses for chunk in chunks)
    elif policy == "discard":
        misses = 0
        for chunk in chunks:
            warm = int(len(chunk) * warmup_fraction)
            misses += (simulate_auto([chunk[:warm], chunk[warm:]],
                                     config).misses
                       - simulate_auto(chunk[:warm], config).misses)
            counted -= warm
    else:  # continuous: keep state across the gaps
        misses = simulate_auto(chunks, config).misses
    rate = misses / counted if counted else 0.0
    return SampleEstimate(config=config, policy=policy,
                          sampled_refs=counted, measured_misses=misses,
                          estimated_miss_rate=rate)


def full_miss_rate(addresses: np.ndarray, config: CacheConfig) -> float:
    """Ground truth: simulate the entire trace."""
    return simulate_auto(addresses, config).miss_rate


def sampling_error_study(addresses: np.ndarray, config: CacheConfig,
                         num_samples: int = 10,
                         sample_length: int = 50_000) -> dict:
    """Compare every cold-start policy against the full-trace truth.

    Returns ``{"full": rate, "cold": (rate, rel_err), ...}`` where
    ``rel_err`` is the signed relative error of each estimate.
    """
    truth = full_miss_rate(addresses, config)
    out = {"full": truth}
    for policy in WARMUP_POLICIES:
        estimate = estimate_miss_rate(addresses, config,
                                      num_samples=num_samples,
                                      sample_length=sample_length,
                                      policy=policy)
        error = ((estimate.estimated_miss_rate - truth) / truth
                 if truth else 0.0)
        out[policy] = (estimate.estimated_miss_rate, error)
    return out

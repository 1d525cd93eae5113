"""Shared random-instance generators for the property suites.

All randomness is seeded through numpy generators created in each test, so
failures replay exactly.
"""

from __future__ import annotations

import numpy as np

from slotauction.core import Allocation, CASCADE, Instance, MNL
from slotauction.properties import random_instance


def rand_mnl_instance(
    rng: np.random.Generator, nmax: int = 6, mmax: int = 6
) -> Instance:
    return random_instance(rng, MNL, nmax, mmax)


def rand_cascade_instance(
    rng: np.random.Generator, nmax: int = 5, mmax: int = 5
) -> Instance:
    return random_instance(rng, CASCADE, nmax, mmax)


def rand_bids(rng: np.random.Generator, n: int, top: float = 10.0) -> np.ndarray:
    return rng.uniform(1e-3, top, size=n)


def rand_allocation(rng: np.random.Generator, inst: Instance) -> Allocation:
    """A uniform-ish random feasible matching (possibly empty)."""
    advertisers = list(rng.permutation(inst.n))
    positions = list(rng.permutation(inst.m))
    size = int(rng.integers(0, min(inst.n, inst.m, inst.k) + 1))
    return Allocation(
        {int(advertisers[t]): int(positions[t]) for t in range(size)}
    )


def tie_heavy_cascade_case(
    rng: np.random.Generator,
) -> tuple[Instance, np.ndarray]:
    """A small cascade instance whose rates repeat and sit on dyadic
    boundaries or at 0, and values that repeat or are 0 or negative, so
    greedy weights tie often."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    k = int(rng.integers(1, m + 1))
    rates = [0.0, 1.0, 0.5, 0.25, 0.125, 0.3, 0.6,
             np.nextafter(0.5, 1.0), np.nextafter(0.25, 0.0)]
    p = np.where(rng.random((n, m)) < 0.5, rng.choice(rates, (n, m)),
                 rng.uniform(0.01, 1.0, (n, m)))
    values = np.where(rng.random(n) < 0.5,
                      rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], n),
                      rng.uniform(-1.0, 5.0, n))
    return Instance(n=n, m=m, k=k, p=p, model=CASCADE), values

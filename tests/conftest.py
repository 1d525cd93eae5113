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

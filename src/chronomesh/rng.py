"""Deterministic random-stream derivation.

Every run hangs off one master seed. Independent generators are derived from
(seed, domain, *indices) paths through numpy's SeedSequence, so a unit of
work (a phase, a trial block, an oscillator census seed) owns its stream no
matter in which order the units run. Draw order inside a unit is part of its
contract: change it and you change the outputs.
"""

from __future__ import annotations

import numpy as np

# Domain tags keep streams for different purposes disjoint even when their
# numeric indices collide.
DOMAIN_PLACEMENT = 1
DOMAIN_INIT = 2
DOMAIN_PHASE = 3
DOMAIN_TRIAL = 4
DOMAIN_SEED_SWEEP = 5
DOMAIN_SAMPLE = 6


def substream(seed: int, domain: int, *indices: int) -> np.random.Generator:
    """Return the generator owned by (seed, domain, *indices)."""
    path = (int(seed), int(domain)) + tuple(int(i) for i in indices)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(path)))


def derive_seed(seed: int, domain: int, *indices: int) -> int:
    """Collapse a stream path into a plain integer seed.

    Used when a child unit of work needs a whole seed of its own (it will
    derive its own substreams from it) rather than a generator.
    """
    path = (int(seed), int(domain)) + tuple(int(i) for i in indices)
    state = np.random.SeedSequence(path).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


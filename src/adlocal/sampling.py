"""Deterministic sampling: one root seed, labeled independent substreams."""

import random


def rng_for(seed: int, label: str) -> random.Random:
    """Substream derived from the root seed; string seeding is stable."""
    return random.Random(f"{seed}:{label}")


def _draws(carrier, seed: int, label: str, count: int) -> list:
    """``count`` elements of a finite carrier, drawn uniformly by canonical
    index from the substream ``<label>:<carrier spec>``."""
    rng = rng_for(seed, f"{label}:{carrier.spec}")
    card = carrier.cardinality
    return [carrier.element(rng.randrange(card)) for _ in range(count)]

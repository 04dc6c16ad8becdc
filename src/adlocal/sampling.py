"""Deterministic sampling: one root seed, labeled independent substreams."""

import random


def rng_for(seed: int, label: str) -> random.Random:
    """Substream derived from the root seed; string seeding is stable."""
    return random.Random(f"{seed}:{label}")


"""DET002 fixture: entropy and the clock threaded through as parameters."""

import random
from random import Random


def jitter(rng: random.Random) -> float:
    return rng.random() + rng.uniform(0.0, 1.0)


def make_rng(seed: int) -> Random:
    return random.Random(seed)


def scramble(items, rng: Random):
    rng.shuffle(items)
    return items


def _stamp(clock):
    return clock()


def record_round(state, now):
    state.append(now)
    return state


def drive(state, clock):
    return record_round(state, _stamp(clock))

"""DET002 fixture: ambient RNG and wall-clock reads in a sim path.

Direct reads are flagged per call, through any import alias
(``import time as clock`` resolves ``clock.time`` to ``time.time``).  A
function that reaches one only through its callees is flagged once, at
its ``def``, with the call chain.
"""

import os
import random
import time
import time as clock
from random import shuffle  # flagged: binds the shared module RNG


def jitter():
    return random.random() + random.uniform(0.0, 1.0)  # flagged (x2)


def stamp():
    return time.time()  # flagged: wall clock


def entropy():
    return os.urandom(8)  # flagged: OS entropy


def scramble(items):
    shuffle(items)  # flagged: resolves to random.shuffle
    return items


def _stamp():
    return clock.time()  # flagged: aliased wall clock


def record_round(state):  # flagged: record_round -> _stamp -> time.time
    state.append(_stamp())
    return state


def drive(state):  # flagged: drive -> record_round -> _stamp
    return record_round(state)

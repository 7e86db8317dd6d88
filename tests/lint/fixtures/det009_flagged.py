"""DET009 fixture: delta bookkeeping poked from outside Topology."""


def meddle(graph, key):
    graph._version += 1  # flagged: hand-rolled version bump
    del graph._query_cache[key]  # flagged: eviction behind the tracker
    graph._apply_delta_fast([], [], [])  # flagged: skips validation
    graph._bump_epoch()  # flagged: private epoch API, foreign instance

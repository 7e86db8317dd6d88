"""DET003 fixture: the owner clears its own cache when its version moves.

This is ``Topology``'s eager scheme: every structural change goes
through ``_bump_epoch``, which advances ``_version`` and clears
``_query_cache`` on the spot, so a cached entry is always current.
"""


class Owner:
    def __init__(self):
        self._query_cache = {}
        self._version = 0

    def _bump_epoch(self):
        self._version += 1
        self._query_cache.clear()

    def _cached(self, key, compute):
        if key not in self._query_cache:
            self._query_cache[key] = compute()
        return self._query_cache[key]

    def mutate(self):
        self._bump_epoch()

"""DET003 fixture: cache attributes poked from outside the owner."""


def poke(graph, view, key, value):
    graph._query_cache[key] = value  # flagged: bypasses the version guard
    graph._rows = None  # flagged: drops the mask table behind the cache
    view._derived_cache.clear()  # flagged: external cache clear
    graph._adj[key].add(value)  # flagged: edits the rows' lazy decode

"""DET003 fixture: cache attributes poked from outside the owner."""


def poke(graph, view, key, value):
    graph._query_cache[key] = value  # flagged: bypasses the epoch guard
    graph._epoch += 1  # flagged: hand-rolled epoch bump
    view._derived_cache.clear()  # flagged: external cache clear
    graph._adj[key].add(value)  # flagged: edits the rows' lazy decode

"""DET009 fixture: deltas flow through Topology's public API."""


class OwnStamps:
    """A class may keep its own, unrelated version bookkeeping."""

    def __init__(self):
        self._version = 0
        self._node_stamps = {}

    def bump(self, node):
        self._version += 1
        self._node_stamps[node] = self._version


def rewire(graph, added, removed):
    report = graph.apply_delta(added_edges=added, removed_edges=removed)
    return report.dirty_by_radius

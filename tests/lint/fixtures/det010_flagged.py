"""DET010 fixture: shard-worker state poked from outside the driver."""


def meddle(worker, fresh_topology):
    worker._replica = fresh_topology  # flagged: replica swapped externally
    worker._shard_metrics.clear()  # flagged: metric table wiped externally
    del worker._replica  # flagged: replica dropped behind the pool's back
    worker._sync_replica([], [])  # flagged: private step protocol, foreign


def meddle_partial(sub, worker):
    sub._local_of[99] = 0  # flagged: local<->global mapping rewritten
    sub._global_nodes = ()  # flagged: id table swapped externally
    sub._subgraph.add_edge(1, 2)  # flagged: partial topology mutated directly
    worker._redecide(())  # flagged: private decide protocol, foreign

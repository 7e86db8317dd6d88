"""DET004 fixture: backend-qualified (or single-site) memo keys."""


def _memo(view, key, compute):
    cache = view.cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def components_sets(view, v):
    return _memo(view, ("components", v, "sets"), lambda: [v])


def components_bitset(view, v):
    return _memo(view, ("components", v, "bitset"), lambda: [v])


def span(view, v, backend):
    return _memo(view, ("span", v, backend), lambda: [v])


def span_eligible(view, v, backend):
    return _memo(view, ("span", v, backend), lambda: [v, v])


def mask_base(view):
    # A single-site tag is backend-invariant by construction.
    return _memo(view, ("mask-base",), lambda: [0])

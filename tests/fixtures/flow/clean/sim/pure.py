"""Fixture: a fully deterministic sim module — the FLOW analysis must
report nothing here."""


def advance(state, seed):
    return _mix(state, seed)


def _mix(state, seed):
    return (state * 31 + seed) % 997

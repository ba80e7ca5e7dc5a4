"""Integration tests, plus the digest helper their output pins share."""

import hashlib

import numpy as np


def _plain(value):
    """NumPy scalars as Python numbers, sequences as tuples, so the
    repr is the same under every NumPy version."""
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _plain(v)) for k, v in sorted(value.items()))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def sim_digest(*parts) -> str:
    """sha256 of the exact ``repr`` of *parts*.

    Floats keep every digit, so a pin on simulated-clock numbers fails
    on any change, down to a merged or split charge.
    """
    return hashlib.sha256(repr(_plain(parts)).encode()).hexdigest()

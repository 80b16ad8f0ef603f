"""Exact vibronic dynamics for a two-level emitter coupled to one
harmonic mode whose frequency and equilibrium position both depend on the
electronic state.

Closed forms live in :mod:`indiboson.analytic`, parameter handling in
:mod:`indiboson.model`, and an independent truncated-basis reference in
:mod:`indiboson.oracle`.
"""

__version__ = "0.1.0"

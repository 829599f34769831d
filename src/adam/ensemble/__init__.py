"""Gradient-boosted trees, reference baselines, metrics, and tuning.

The package exports nothing: import each name from the module that
defines it (``baselines``, ``gbdt``, ``metrics``, ``tree`` or ``tuning``).
"""

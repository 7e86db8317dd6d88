"""Executable oracles for the production kernels.

:mod:`repro.check.reference` holds plain reference implementations of the
coverage predicates, the unit-disk operations and the full-rebuild
mobility sweep, which tests and A/B benchmarks compare production
against.  No production module imports this package.
"""

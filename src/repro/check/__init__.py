"""Executable oracles for the production kernels.

:mod:`repro.check.reference` holds plain reference implementations of the
coverage predicates and the unit-disk operations, which tests and A/B
benchmarks compare production against.  No production module imports this
package.
"""

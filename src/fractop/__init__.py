"""Level-set topology optimization for brittle and ductile fracture
resistance with a staggered phase-field forward solver and path-dependent
adjoint sensitivities."""

__version__ = "0.1.0"

"""Lindblad dynamics of symmetry-protected degenerate subspaces.

A small dense-matrix laboratory for the question: when a Hamiltonian's
degenerate ground doublet is protected by a symmetry, does coherence in
that doublet survive Markovian dissipation through a coupling operator O?

`classify.protected` is the one statement of the paper's answer, a rule
on the symmetry signatures of the Hamiltonian and of O.

Modules
-------
operators    spin matrices, named Hamiltonians and coupling operators
symmetry     quaternion group, time reversal, Schur proportionality tests
spectra      eigendecomposition, ground subspaces, subspace densities
lindblad     master-equation engine: rhs, Liouvillian, RK4 and expm
observables  von Neumann entropy, subspace observation, coherence verdicts
response     first-order-in-gamma perturbative oracle
classify     the 16-scenario classification table harness
cli          command-line front end
"""

from lindsymlab import (
    classify,
    lindblad,
    observables,
    operators,
    response,
    spectra,
    symmetry,
)

__all__ = [
    "classify",
    "lindblad",
    "observables",
    "operators",
    "response",
    "spectra",
    "symmetry",
]

__version__ = "0.1.0"

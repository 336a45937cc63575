"""The 16-row classification harness.

Three model Hamiltonians (one protected by the quaternion group, one by
time reversal, one by both) are paired with concrete coupling operators
covering every combination of hermiticity, [O, T] = 0, and [O, Q] = 0 that
each block admits. Each row states the symmetry signatures its
Hamiltonian and coupling claim, as the paper's table does; the rows are
constant, so the tests, not every run, check each claim against
compute_signature. The harness runs the dissipative dynamics and reports
four routes to each row's verdict:

  * dynamics: peak entropy of the normalized ground-doublet state,
  * algebra: the doublet block of the Liouvillian proportional to identity,
  * representation theory: the projected coupling a multiple of identity
    on the doublet (with its quadratic the same),
  * the first-order response oracle, which calls no propagator.

The four routes agree (`Verdict.routes_agree`) when the block, Schur and
oracle routes each give the dynamics' verdict, whatever the row expects;
a row passes (`Verdict.passed`) when they agree and the dynamics give its
expected verdict. These first-order criteria match the dynamics on the
spin-3/2 table, but beyond spin 3/2 they can say coherent where the
dynamics decohere.

`protected` is the one statement of the paper's rule, and every row's
expected verdict is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lindblad import (Trajectory, block_identity_test, evolve_expm,
                       evolve_rk4, liouvillian_matrix, subspace_block, vec)
from .observables import Coherence, coherence_verdict, observe_subspace
from .operators import (ComplexMatrix, ConfigError, OperatorSpec,
                        build_coupling, build_hamiltonian, frob,
                        spin_matrices)
from .response import delta_rho
from .spectra import ground_subspace
from .symmetry import (Proportionality, commutes_with_antiunitary,
                       commutes_with_unitary, is_hermitian, quaternion_group,
                       schur_test, time_reversal)

DEFAULT_GAMMA = 0.1
DEFAULT_HORIZON = 20.0
# Samples per probe trajectory on the table's gamma*t-uniform grid.
TABLE_SAMPLES = 201


@dataclass(frozen=True)
class SymmetryClaims:
    """Claimed (hermitian, [O,T]=0, [O,Q]=0 for all group elements)."""

    hermitian: bool
    commutes_t: bool
    commutes_q: bool

    def __str__(self) -> str:
        def mark(b):
            return "yes" if b else "no"
        return (f"herm={mark(self.hermitian)} [O,T]=0:{mark(self.commutes_t)} "
                f"[O,Q]=0:{mark(self.commutes_q)}")


@dataclass(frozen=True)
class Scenario:
    name: str
    hamiltonian: OperatorSpec
    coupling: OperatorSpec
    expected_coherence: Coherence
    claims: SymmetryClaims


@dataclass(frozen=True)
class Verdict:
    """One scenario's route verdicts, its table figures and stationarity."""

    name: str
    claims: SymmetryClaims
    expected_coherence: Coherence
    measured_coherence: Coherence
    oracle_coherent: bool
    block_identity: bool
    block_residual: float
    schur_proportional: bool
    schur_residual: float
    peak_entropy: float
    terminal_entropy: float
    terminal_trace_g: float
    stationarity: float

    @property
    def routes_agree(self) -> bool:
        """The doublet block, the Schur projection and the oracle each give
        the dynamics' verdict."""
        coherent = self.measured_coherence is Coherence.COHERENT
        return (self.block_identity == coherent
                and self.schur_proportional == coherent
                and self.oracle_agrees)

    @property
    def passed(self) -> bool:
        """A row passes when all four routes agree and the dynamics give
        its expected verdict."""
        return (self.routes_agree
                and self.measured_coherence == self.expected_coherence)

    @property
    def oracle_agrees(self) -> bool:
        """The first-order oracle gives the dynamics' verdict."""
        return self.oracle_coherent == (self.measured_coherence
                                        is Coherence.COHERENT)


# The signature each Hamiltonian claims, as the tests measure it.
_HAMILTONIAN_CLAIMS = {"q_symmetric": SymmetryClaims(True, False, True),
                       "tr_invariant": SymmetryClaims(True, True, False),
                       "both_symmetric": SymmetryClaims(True, True, True)}

# The classification table: each row pairs one Hamiltonian with one
# coupling and the symmetry signature the coupling claims; `protected`
# derives the row's expected verdict.
_TABLE_ROWS = (
    ("q_symmetric", "sy2", (True, True, True)),
    ("q_symmetric", "sxsy_sym", (True, True, False)),
    ("q_symmetric", "sxsysz", (False, False, True)),
    ("q_symmetric", "sysz", (False, True, False)),
    ("tr_invariant", "sx2", (True, True, True)),
    ("tr_invariant", "sz", (True, False, False)),
    ("tr_invariant", "isz", (False, True, False)),
    ("tr_invariant", "sxsysz", (False, False, True)),
    ("both_symmetric", "sx2", (True, True, True)),
    ("both_symmetric", "sxsy_sym", (True, True, False)),
    ("both_symmetric", "sxsysz_sym", (True, False, True)),
    ("both_symmetric", "sx", (True, False, False)),
    ("both_symmetric", "i_sxsysz_sym", (False, True, True)),
    ("both_symmetric", "sxsy", (False, True, False)),
    ("both_symmetric", "sxsysz", (False, False, True)),
    ("both_symmetric", "sx2sz", (False, False, False)),
)


def compute_signature(o: ComplexMatrix) -> tuple[SymmetryClaims, tuple]:
    """Measure (hermiticity, [O,T]=0, [O,Q]=0 for all Q) of an operator.

    Q runs over the quaternion group and T is the spin-3/2 time reversal,
    both on the spin-3/2 space, the only one Q8 is built on; so o is 4x4.
    Also returns the labels of the elements Q with [O,Q] != 0, in group
    order.
    """
    group = quaternion_group()
    failing = tuple(label for label, q in zip(group.labels, group.elements)
                    if not commutes_with_unitary(o, q))
    return SymmetryClaims(
        hermitian=is_hermitian(o),
        commutes_t=commutes_with_antiunitary(o, time_reversal(1.5)),
        commutes_q=not failing,
    ), failing


def protected(h: SymmetryClaims, o: SymmetryClaims) -> bool:
    """The paper's rule: does coherence in the ground doublet survive?

    It does when the Hamiltonian and the coupling share a unitary symmetry
    acting irreducibly on the doublet (both commute with the quaternion
    group, O need not be Hermitian), or share the anti-unitary time
    reversal T with O Hermitian. The dynamics bear the rule out on the
    spin-3/2 table; at higher spin a T-protected coupling can still
    decohere the doublet.
    """
    return ((h.commutes_q and o.commutes_q)
            or (h.commutes_t and o.commutes_t and o.hermitian))


def catalog() -> list:
    """All 16 scenarios, each carrying the symmetry signature its row claims.

    Each row's expected verdict is `protected` of its Hamiltonian's and
    its coupling's claimed signatures, both the table's data.
    """
    return [Scenario(
        name=f"{ham}:{op}",
        hamiltonian=OperatorSpec(name=ham),
        coupling=OperatorSpec(name=op),
        expected_coherence=(
            Coherence.COHERENT
            if protected(_HAMILTONIAN_CLAIMS[ham], SymmetryClaims(*claimed))
            else Coherence.DECOHERENT),
        claims=SymmetryClaims(*claimed),
    ) for ham, op, claimed in _TABLE_ROWS]


@dataclass(frozen=True)
class ScenarioSystem:
    """A scenario as an open system: the Hamiltonian h, the coupling o,
    the (d, 2) basis of h's ground doublet (two columns, by prepare),
    gamma, and the Liouvillian, built once when a route first reads it."""

    h: ComplexMatrix
    o: ComplexMatrix
    basis: ComplexMatrix
    gamma: float

    @cached_property
    def liouvillian(self) -> ComplexMatrix:
        """Raises PropagationError when the Liouvillian's norm overflows."""
        return liouvillian_matrix(self.h, self.o, self.gamma)


def prepare(sc, gamma: float = DEFAULT_GAMMA,
            spin: float = 1.5) -> ScenarioSystem:
    """Build the open system of a scenario or run config at gamma.

    sc is anything carrying `hamiltonian` and `coupling` OperatorSpecs: a
    catalog Scenario or a configured run. The doublet basis is paired
    through time reversal only when the Hamiltonian actually commutes with
    it; the q_symmetric Hamiltonian anticommutes, and pairing there would
    pull in excited states.

    Raises:
        ConfigError: invalid spin, operator spec, or pairing, or a ground
            level that is not two-dimensional: every route reads a doublet.
    """
    spins = spin_matrices(spin)
    h = build_hamiltonian(sc.hamiltonian, spins)
    o = build_coupling(sc.coupling, spins)
    trev = time_reversal(spin)
    pairing = trev if commutes_with_antiunitary(h, trev) else None
    basis = ground_subspace(h, pairing=pairing)
    if basis.shape[1] != 2:
        raise ConfigError(f"hamiltonian: its ground level at spin {spin:g} "
                         f"has dimension {basis.shape[1]}, need a doublet")
    return ScenarioSystem(h=h, o=o, basis=basis, gamma=gamma)


def probe_densities(basis: ComplexMatrix) -> np.ndarray:
    """Three states of the doublet with (d, 2) basis, or of each basis of
    a stack (..., d, 2), that jointly witness a for-all-states property,
    as densities (..., 3, d, d): the equal, quarter-phase and basis
    superpositions, in that order.

    A single initial state can sit in a decaying-but-form-invariant
    direction of a decoherent channel; the three cannot all do so
    simultaneously.
    """
    fp, fm = basis[..., 0], basis[..., 1]
    psi = np.stack([(fp + fm) / np.sqrt(2.0), (fp + 1j * fm) / np.sqrt(2.0),
                    fp], axis=-2)
    return psi[..., :, None] * psi[..., None, :].conj()


def propagate(system: ScenarioSystem, rho0: ComplexMatrix, t_max: float,
              n_samples: int = TABLE_SAMPLES, integrator: str = "expm",
              dt: float | None = None) -> Trajectory:
    """rho0 at n_samples uniform times up to t_max, by "expm" or "rk4".

    expm propagates the system's Liouvillian, for one state or a stack of
    them; RK4 reads only h, o and gamma, and takes one state.

    Raises:
        PropagationError: RK4 is over its step budget or loses the trace,
            or a sampled state is not finite.
    """
    if integrator == "rk4":
        return evolve_rk4(rho0, system.h, system.o, system.gamma, t_max,
                          dt=dt, n_samples=n_samples)
    return evolve_expm(rho0, system.liouvillian, t_max, n_samples)


def doublet_block(system: ScenarioSystem) -> Proportionality:
    """Test the doublet block of the system's Liouvillian against c * I."""
    return block_identity_test(subspace_block(system.liouvillian,
                                              system.basis))


def decide(system: ScenarioSystem, states: np.ndarray, s_v: np.ndarray,
           trace_g: np.ndarray) -> dict:
    """The dynamics and doublet-block fields of one system's stack of k
    observed states (k, samples, d, d), with s_v and trace_g (k, samples)
    from observe_subspace: the worst state's verdict, the peak entropy over
    all states, and the first state's terminal entropy, population and
    stationarity residual ||L vec(rho_end)||."""
    block = doublet_block(system)
    return dict(
        measured_coherence=coherence_verdict(s_v),
        block_identity=block.proportional,
        block_residual=block.residual,
        peak_entropy=float(np.max(s_v)),
        terminal_entropy=float(s_v[0, -1]),
        terminal_trace_g=float(trace_g[0, -1]),
        stationarity=float(np.linalg.norm(system.liouvillian
                                          @ vec(states[0, -1]))),
    )


def assess(systems: list, t_max: float) -> list:
    """Run every verdict route on a stack of prepared systems at once.

    The systems share their dimension. Their probe states propagate
    exactly up to t_max in one evolve_expm call on the stacked
    Liouvillians and are observed in one pass, each in its own system's
    doublet. decide, the only reader of the states, turns each system's
    observed probes into its dynamics and doublet-block fields; the
    first-order response oracle and the Schur projection add the
    remaining verdicts, system by system. Returns, per system in order, a
    dict of the Verdict fields the routes measure.

    Raises:
        ValueError: t_max is not a finite number > 0.
        PropagationError: a Liouvillian or a probe trajectory is not finite.
    """
    bases = np.stack([system.basis for system in systems])
    probes = probe_densities(bases)
    traj = evolve_expm(probes, np.stack([s.liouvillian for s in systems]),
                       t_max, TABLE_SAMPLES)
    s_v, trace_g, _ = observe_subspace(traj, bases[:, None, None])

    routes = []
    for i, system in enumerate(systems):
        projector = system.basis @ system.basis.conj().T
        schur_o = schur_test(projector, system.o)
        schur_q = schur_test(projector, system.o.conj().T @ system.o)
        routes.append(dict(
            decide(system, traj.states[i], s_v[i], trace_g[i]),
            oracle_coherent=response_oracle_coherent(system, probes[i]),
            schur_proportional=schur_o.proportional and schur_q.proportional,
            schur_residual=schur_o.residual,
        ))
    return routes


def run_scenario(scenarios: list, gamma: float = DEFAULT_GAMMA,
                 horizon: float = DEFAULT_HORIZON) -> list:
    """Run a stack of scenarios end to end; their Verdicts, in order.

    One scenario is a stack of one. Every scenario is prepared at gamma
    before any is propagated; assess then runs all of them as one stack.
    Each Verdict carries its scenario's claimed signature as given.

    Raises:
        PropagationError: a Liouvillian overflows, or a probe trajectory is
            not finite.
    """
    systems = [prepare(sc, gamma) for sc in scenarios]
    return [Verdict(name=sc.name, claims=sc.claims,
                    expected_coherence=sc.expected_coherence, **routes)
            for sc, routes in zip(scenarios, assess(systems, horizon / gamma))]


def response_oracle_coherent(system: ScenarioSystem,
                             probes: np.ndarray) -> bool:
    """Verdict from the first-order response, independent of the propagators.

    probes is probe_densities(system.basis). For each probe the exact
    first-order correction at gamma = 1e-3 and gamma*t = 0.5 is projected
    onto the doublet and compared against the initial subspace state:
    coherence means the correction only rescales it. A probe lies in the
    ground eigenspace, so it is its own coherent evolution and no
    propagator is called.
    """
    gamma = 1e-3
    t = 0.5 / gamma
    basis = system.basis
    coherent = True
    for rho0, delta in zip(probes, delta_rho(probes, system.o, system.h,
                                             gamma, t)):
        d_g = basis.conj().T @ delta @ basis
        r_g = basis.conj().T @ rho0 @ basis
        coeff = np.trace(r_g.conj().T @ d_g) / np.trace(r_g.conj().T @ r_g)
        resid = frob(d_g - coeff * r_g)
        coherent = coherent and resid <= 1e-8 * max(1.0, frob(d_g))
    return coherent


def reproduce_table(gamma: float = DEFAULT_GAMMA,
                    horizon: float = DEFAULT_HORIZON) -> list:
    """The full table: every row's Verdict, in name order.

    The rows are prepared in name order, then run as one stack by
    run_scenario. The verdict classification is gamma-independent at
    fixed gamma*t horizon.

    Raises:
        PropagationError: a row's Liouvillian overflows at gamma, or a probe
            trajectory is not finite.
    """
    return run_scenario(sorted(catalog(), key=lambda sc: sc.name),
                        gamma=gamma, horizon=horizon)

"""Coupled open-pair simulator: Lindblad dynamics for a damped system A
interacting with a damped system B through an excitation-conserving
coupling, plus the analytic machinery (sector projectors, closed-form
eigensystems, moment closures, recurrence oracles) needed to check the
partial-invariance property of the composite steady state.
"""

from .hilbert import (
    SubsystemSpec, SpaceSpec, Operator,
    spin, oscillator, space, mk_destroy, mk_spin_ops, mk_number,
    identity, embed, partial_trace,
)
from .liouvillian import (
    LindbladTerm, Liouvillian, sparse_superoperator,
)
from .spectral import (
    SpinEigensystem, OscEigensystem,
    spin_eigensystem, osc_eigensystem, normal_ordered_fock_matrix,
)
from .sectors import (
    ExcitationStructure, build_excitation_structure,
    excitation_commutator, project_sector, project_sector_pair,
    sector_pair_mask, sector_decay_rate, check_decay_bound,
    trotter_compare,
)
from .steady import (
    SteadyReport, DampingRecurrence,
    thermal_state, spin_steady, solve_steady,
    pure_damping_recurrence, damping_recurrence, off_diagonal_witness,
)
from .moments import (
    MomentStateSpinOsc, MomentStateOptomech, GaussianAnsatz,
    integrate_moments, steady_spin_osc_excitation, steady_optomech,
    integrate_gaussian_ansatz, moments_to_steady,
)
from .models import (
    ModelConfig, BuiltModel, parse_config, build_model, model_steady,
)
from .evolve import (
    TrajectoryRecord, evolve, trace_norm, certify_truncation,
)

__version__ = "0.1.0"

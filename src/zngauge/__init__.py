"""Exact simulator and gate-schedule compiler for Z_N lattice gauge theory.

Desk-scale reference implementation on small 2d lattices with staggered
fermions, clock-model links, and ancilla registers: the stator-based gate
schedules that realize one Trotter step, run on a state's support (its
full-space basis indices and their amplitudes, which a quench's
observables and samples read; a physical-space map runs its identity
columns as one more register), plus the optical-lattice design utilities.
"""

from .lattice import (LatticeGeometry, Register, RegisterLayout, born_sample,
                      build_layout, marginals, singlet_support, total_fermion_number)
from .algebra import (Couplings, LinkAlgebra, gauss_expectations,
                      gauss_law_operator, make_link_algebra,
                      random_gauge_invariant_physical, total_hamiltonian)
from .stators import (GATE_VOCABULARY, GateOp, collision_calibration,
                      eta_couplings, gate_matrix, plaquette_stator_sequence,
                      stator_entangler, z3_collision_entangler)
from .schedule import (Schedule, compile_step, dump_schedule, execute_support,
                       gauge_away_phases, schedule_physical_map,
                       solve_vertex_potential, spurious_phase_field)
from .oracle import (ExactEvolver, diamond_surrogate_distance, steps_required,
                     trotter_bound)
from .optical import (polarization_vectors, shaping_schedule, v_mat,
                      v_mat_minima, wave_vectors)
from .config import SimulationConfig, config_from_dict, load_config
from .drivers import (flux_sector_probabilities, measure_configuration,
                      run_quench, run_verification_suite)

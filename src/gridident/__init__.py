"""Electric-network topology and admittance identification from phasor snapshots."""

from .errors import (AlignmentError, ConsistencyError, GridIdentError,
                     HeuristicBoundWarning, InsufficientMeasurementsError,
                     NetworkFormatError, NonUniqueError, OutOfRegimeError,
                     SolverFailureError)
from .graph_core import (Framework, NetworkGraph, complete_graph, incidence_matrix,
                         is_connected, is_tree, numerical_rank,
                         predicted_rank_minus_one_edge, random_connected_graph,
                         random_tree, remove_edge, rigidity_matrix,
                         stack_to_rigidity_permutation, trivial_motion_count)
from .netmodel import (AdmittanceNetwork, Branch, Bus, BusSpec, Coupling,
                       load_bus_spec, load_network, matrix_from_vector,
                       phase_expand, random_admittances, reconstruct_full,
                       reduce_slack, save_bus_spec, save_network,
                       vector_from_matrix)
from .synth import (MeasurementSet, NoiseSpec, OperatingPoint, add_noise,
                    average_snapshots, currents_from_voltages,
                    default_base_voltage, load_measurements, perturb_voltages,
                    random_voltage_matrix, save_measurements,
                    stack_coefficients, synthesize, synthesize_independent,
                    voltage_coefficient)
from .exact_estimate import (PriorTopology, UniquenessDiagnostic,
                             build_reduced_measurements, estimate_reduced,
                             estimate_vector_ls, least_squares, min_measurements,
                             minimum_norm_vector, structured_least_squares,
                             symmetry_deviation, uniqueness_diagnostic)
from .stls import (RealifiedBlock, SolverConfig, StlsSolution,
                   constraint_residual, noise_blocks, plug_in_ols, realify,
                   realified_coefficient, save_trace, solve_stls)
from .topo_recover import (PhaseIdentification, TopologyEstimate, TopologyScore,
                           choose_method, estimate_topology, identify_phases,
                           identify_topology, score_topology, threshold,
                           topology_report)

__version__ = "0.1.0"

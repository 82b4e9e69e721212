"""Normal modes of trapped-ion chains in anharmonic trap potentials.

Equilibrium configurations, mode spectra and amplitudes, perturbative
frequency shifts and mode cross-couplings, motional coherence decay, and
geometric-phase-gate infidelity for linear chains in polynomial trap
potentials.
"""

from .anharmonic import ChiMatrix, DerivativeTensors, ModeTensors, \
    ResonanceError, chi_from_configuration, chi_matrix, derivative_tensors, \
    frequency_shift, mode_tensors
from .calibration import ComScanResult, OrderShiftReport, PotentialFamily, \
    BracketError, com_frequency_scan, field_sensitivity, \
    infer_pseudo_gradient, null_parameter, order_shift
from .chifile import chi_to_text, read_chi
from .dynamics import FockSuperposition, ThermalEnvironment, fock_coherence, \
    sideband_flop, thermal_gate_infidelity, thermal_occupation
from .fockspace import CutoffError, StateMatchError, exact_transition_frequency
from .modes import ModeSpectrum, NotAtEquilibriumError, amplitude_ratio, \
    carrier_matrix_element, ground_state_size, hessian, lamb_dicke, \
    mode_spectrum
from .potentials import AxialPotential, TrapModel3D, axial_for_frequency, \
    axial_from_lambdas, trap3d_from_frequencies
from .species import BE9, MG24, MGH25, IonSpecies, make_species
from .statics import ChainConfiguration, ConvergenceError, EquilibriumError, \
    IonCrossingError, LinearChainInstabilityError, UnconfinedPotentialError, \
    chain_length, characteristic_length, solve_equilibrium
from .two_ion import TwoIonAnalytics, cubic_equal, cubic_unequal, \
    quartic_equal, quartic_unequal

__version__ = "0.1.0"

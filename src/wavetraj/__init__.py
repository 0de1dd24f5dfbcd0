"""Trajectories of accelerated particles on chart manifolds, Gronwall-type
completeness certificates, and plane-wave spacetime geodesics."""

__version__ = "0.1.0"

from .comparison import (DIVERGES, CONVERGES, INCONCLUSIVE as DIVERGENCE_INCONCLUSIVE,
                         DominatingSolution, EnvelopeReport, PhiFunction,
                         check_divergence, solve_dominating, verify_envelope)
from .dynamics import (EnergyFrame, ForceSystem, FREE, build_energy_frame,
                       energy_derivative_identity, energy_v, make_rhs, rhs_E)
from .errors import (EigFailure, EvaluationError, HypothesisViolated, InvalidInit, NotABlowup,
                     NotPositiveDefinite, OutOfChart, OutOfRange, ParseError,
                     ValidationError, WavetrajError)
from .geometry import ChartManifold, christoffel_at, metric_at
from .gpw import (GeodesicInitialData, GpwSpacetime, SplitGeodesic, WaveCoefficient,
                  full_geodesic_oracle, reduce_geodesic, split_state)
from .hypotheses import (BACKWARD_COMPLETE, BoundData, CertificationTask,
                         COMPLETE_LINEAR_GRADIENT, COMPLETE_POTENTIAL_BOUNDS,
                         COMPLETE_WAVE_BOUNDS, CompletenessCertificate, FORWARD_COMPLETE,
                         INCONCLUSIVE, PremiseCheck, certify, check_S_bounds,
                         check_linear_growth_gradH)
from .integrate import (BACKWARD, BLOW_UP_SUSPECTED, BlowupInterval, CHART_EXIT, FORWARD,
                        HORIZON_REACHED, IntegratorConfig, Outcome, TOLERANCE_FAILURE,
                        Trajectory, integrate, refine_blowup, sample, trajectory_to_csv)
from .runner import run_scenario
from .scenario import Scenario, load_scenario, parse_scenario

__all__ = [name for name in dir() if not name.startswith("_")]

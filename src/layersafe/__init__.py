"""Layered safe control with recurrence-based tracking certificates.

A reduced-order planner (single integrator) commands a full-order plant
(double integrator) through a closed-form safety filter; tracking error is
certified by a recurrence condition rather than monotone decay, and the
combined recurrent barrier h_V = -V + alpha_e h yields a certified initial
set whose rollouts keep the true barrier h nonnegative, including under
bounded disturbances.
"""

from .barrier import (
    BarrierFn,
    ObstacleField,
    min_distance_barrier,
)
from .certify import (
    VERDICTS,
    CertificateReport,
    Grid,
    PointRecord,
    brute_force_containment_oracle,
    certify_initial_set,
    containment_gap,
)
from .controller import (
    ClosedLoopLaw,
    Gains,
    LawIntermediates,
    assemble_closed_loop,
    desired_velocity,
    safe_velocity,
    tracking_control,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    integrate,
    integrate_batch,
    rk4_step,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    HypothesisViolationError,
    ScenarioError,
)
from .harness import (
    RunArtifacts,
    default_out_dir,
    effective_disturbance_bound,
    evaluate_expectations,
    negative_intervals,
    run_case_study,
    run_iss,
    run_recurrence_demo,
    run_simulate,
)
from .recurrence import (
    ChainReport,
    EnvelopeVerdict,
    RecurrenceVerdict,
    RecurrentCbf,
    Rtf,
    build_rcbf,
    check_exponential_envelope,
    check_rtf_recurrence,
    check_safety_chain,
    containment_times,
    in_recurrent_set,
)
from .robustness import (
    Disturbance,
    DisturbanceSpec,
    IssEnvelope,
    IssVerdict,
    build_iss_envelope,
    check_iss_envelope,
    check_practical_rtf,
    estimate_mu_gain,
    in_robust_set,
    make_disturbance,
)
from .scenario import (
    Expectation,
    Scenario,
    build_barrier,
    build_law,
    build_loop,
    build_pair,
    build_scenario_rcbf,
    bundled_scenario_path,
    initial_state,
    initial_states,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierFn",
    "CertificateReport",
    "ChainReport",
    "ClosedLoopLaw",
    "ConfigurationError",
    "Disturbance",
    "DisturbanceSpec",
    "DivergenceError",
    "EnvelopeVerdict",
    "Expectation",
    "Gains",
    "Grid",
    "HypothesisViolationError",
    "IntegratorConfig",
    "IssEnvelope",
    "IssVerdict",
    "LawIntermediates",
    "ObstacleField",
    "PointRecord",
    "RecurrenceVerdict",
    "RecurrentCbf",
    "Rtf",
    "RunArtifacts",
    "Scenario",
    "ScenarioError",
    "Trajectory",
    "VERDICTS",
    "assemble_closed_loop",
    "brute_force_containment_oracle",
    "build_barrier",
    "build_iss_envelope",
    "build_law",
    "build_loop",
    "build_pair",
    "build_rcbf",
    "build_scenario_rcbf",
    "bundled_scenario_path",
    "certify_initial_set",
    "check_exponential_envelope",
    "check_iss_envelope",
    "check_practical_rtf",
    "check_rtf_recurrence",
    "check_safety_chain",
    "containment_gap",
    "containment_times",
    "default_out_dir",
    "desired_velocity",
    "effective_disturbance_bound",
    "estimate_mu_gain",
    "evaluate_expectations",
    "in_recurrent_set",
    "in_robust_set",
    "initial_state",
    "initial_states",
    "integrate",
    "integrate_batch",
    "load_scenario",
    "make_disturbance",
    "min_distance_barrier",
    "negative_intervals",
    "parse_scenario",
    "rk4_step",
    "run_case_study",
    "run_iss",
    "run_recurrence_demo",
    "run_simulate",
    "safe_velocity",
    "tracking_control",
]

"""Simulation of network trip flows in a single-reservoir (bathtub) network.

The package tracks the number of active trips by remaining travel distance
under a network-level speed-density law, solves the dynamics by two
equivalent first-order schemes, provides exact reduced solvers for
exponential, deterministic and constant trip distances, and ships analysis
tools for stationary states, gridlock, travel times, conservation audits
and grid-convergence studies.
"""

from .diagrams import (BoardingDelaySpeed, FundamentalDiagram, Greenshields,
                       PiecewiseConstantSpeed, TabulatedSpeed, Trapezoidal,
                       Triangular, capacity, extended_speed, flow,
                       flow_slope_sign, speed)
from .demand import (ConstantInflux, DeterministicDistances,
                     DistanceDistribution, EmptyNetwork, ExponentialDistances,
                     ExponentialProfile, InfluxProfile, InitialCondition,
                     PiecewiseLinearInflux, TabulatedProfile, TabulatedSurvival,
                     TrapezoidalPulse, UniformDistances, ZeroInflux,
                     cumulative_inflow, influx, initial_profile, mean_distance,
                     survival)
from .errors import (BathtubError, ConfigError, ContractError, DataError,
                     DomainError, TripNotCompleted, UndefinedStatisticsError)
from .piecewise import PiecewiseLinear
from .solver import (BathtubState, CommodityDemand, GridSpec,
                     MaxCumulativeDistance, MaxTime, RemainingStats, Scenario,
                     Termination, Trajectory, outflux_from_profile,
                     reconstruct_K, remaining_distance_stats,
                     solve_characteristic, solve_integral,
                     solve_mobility_service, solve_multi_commodity)
from .special import (DelayCheckResult, DeterministicConfig, EquivalenceResult,
                      SortingRegime, TripFrame, VickreyConfig, classify_regime,
                      delay_formulation_check, solve_constant_distance,
                      solve_deterministic, solve_vickrey, theta_inverse,
                      vickrey_equivalence_check)
from .analysis import (AuditReport, ConvergenceReport, GridlockPrediction,
                       ImpliedDemand, Infeasible, StabilityClass,
                       StationaryState, TravelTimeEstimates, audit,
                       average_travel_time, convergence_study,
                       diversion_outflux, gridlock_predict,
                       stability_classify, stationary_demand_from_profile,
                       stationary_state, time_to_distance_target,
                       trip_travel_time)

__version__ = "0.1.0"

"""Sensorless joint-torque estimation and control toolkit.

Core capabilities: floating-base rigid-body dynamics, a ground-truth
simulation plant with realistic sensors, Kalman-filter velocity
smoothing, physics-informed friction learning, UKF joint-torque
estimation and a cascaded torque-control stack with an experiment
runner over seven control modes.  Every run smooths its encoders with
the fixed `experiments.DEFAULT_KF_GAINS`; `torquesense tune-kf`
tunes the filter's covariances on a trace with the one GA search
`ga.GaConfig()` defines and writes them to a file that no command
reads yet.
"""

__version__ = "0.1.0"

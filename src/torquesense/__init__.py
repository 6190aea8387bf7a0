"""Sensorless joint-torque estimation and control toolkit.

Core capabilities: floating-base rigid-body dynamics, a ground-truth
simulation plant with realistic sensors, Kalman-filter velocity
smoothing with GA-tuned covariances, physics-informed friction
learning, UKF joint-torque estimation and a cascaded torque-control
stack with an experiment runner over seven control modes.
"""

__version__ = "0.1.0"

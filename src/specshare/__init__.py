"""Decentralized unlicensed-spectrum coexistence simulation and
nonparametric Bayesian learning of finite-state-controller access policies.
"""

__version__ = "0.1.0"

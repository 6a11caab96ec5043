"""Steady-state localization of linear network dynamics, predicted two ways:
a spectral oracle (power iteration + inverse participation ratio) and
from-scratch GCN/GAT regressors trained against it.
"""

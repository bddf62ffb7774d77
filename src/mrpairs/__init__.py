"""Cointegration-based multiple-pairs trading research engine.

Pipeline: unit-root classification (ADF with BIC lag selection), Johansen
cointegration scans over instrument subsets, Ornstein-Uhlenbeck half-life
estimation, z-score mean-reversion backtesting, monthly macro direction
forecasting, and APR-maximizing weighted-vote fusion of trading signals.
"""

__version__ = "0.1.0"

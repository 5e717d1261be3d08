"""Shared utilities: online estimators, histograms."""

from repro.util.stats import Ewma, OnlineQuantile
from repro.util.histogram import Histogram

__all__ = ["Ewma", "Histogram", "OnlineQuantile"]

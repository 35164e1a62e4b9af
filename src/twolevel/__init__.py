"""Exact enumeration and asymptotics of 2-level matroids via UMR-trees."""

from .powerseries import PowerSeries

__all__ = ["PowerSeries"]

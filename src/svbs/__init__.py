"""Scalable viewport bitstream toolkit for tiled 360-degree streaming."""

__version__ = "0.1.0"

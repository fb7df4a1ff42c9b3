"""Scaling-factor optimization toolkit with a latex-morphology population balance solver."""

__version__ = "0.1.0"

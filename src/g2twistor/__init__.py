"""Numerical exterior algebra and twistor CR geometry of G2 structures.

Names are imported from their modules, e.g. ``from g2twistor.forms import KForm``.
"""

__version__ = "0.1.0"

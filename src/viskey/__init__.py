"""Group-key authentication through visual secret sharing.

A central server renders a random alphanumeric key as a bilevel image,
splits it into visual-cryptography shares, and later machine-reads the
OR-stacked shares to grant or deny group authentication.
"""

from .bitimage import BitImage, Rect
from .vcs import SchemeParams, scheme_params

__all__ = ["BitImage", "Rect", "SchemeParams", "scheme_params"]
__version__ = "0.1.0"

"""Entry point of the Gram-search kernel.

The kernel is pure Python and lives in ``_kernel_py``; this module is the
name the rest of the package calls it by.
"""

from __future__ import annotations

from ._kernel_py import search_rows

__all__ = ["available_backends", "search_rows"]


def available_backends() -> tuple[str, ...]:
    return ("python",)

"""Helpers for generating fresh variable names.

Fresh names are needed in two places: the symbolic execution front end
introduces fresh logical constants when a heap cell is read or allocated, and
the cloning transformation used by the Table 3 benchmark renames all variables
of an entailment apart.
"""

from __future__ import annotations

from typing import Iterable, Set


class FreshNames:
    """A generator of names guaranteed not to clash with a set of used names."""

    def __init__(self, used: Iterable[str] = ()):  # noqa: D107 - simple init
        self._used: Set[str] = set(used)
        self._counters = {}

    def fresh(self, base: str = "v") -> str:
        """Return a fresh name of the form ``base`` or ``base_<k>``."""
        if base not in self._used:
            self._used.add(base)
            return base
        counter = self._counters.get(base, 0)
        while True:
            counter += 1
            candidate = "{}_{}".format(base, counter)
            if candidate not in self._used:
                self._counters[base] = counter
                self._used.add(candidate)
                return candidate

    def __contains__(self, name: str) -> bool:
        return name in self._used


def rename_suffix(name: str, copy_index: int) -> str:
    """Rename a variable for the ``copy_index``-th clone of an entailment.

    The cloning benchmark of Table 3 takes a verification condition and
    conjoins several copies of it "with their variables renamed apart"; this
    helper implements the renaming scheme.  ``nil`` is never renamed because it
    denotes the same null pointer in every copy.
    """
    if name == "nil":
        return name
    return "{}__c{}".format(name, copy_index)

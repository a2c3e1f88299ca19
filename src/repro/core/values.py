"""Cell values: constants, *null* and *nothing*.

The paper works with three kinds of values that may occupy a relation cell:

* **constants** — ordinary domain values.  The library represents them as
  plain hashable Python objects (strings, ints, ...) so user code stays
  natural;
* **null** — the *missing* null of section 2: "a value which exists, but is
  presently unknown".  Nulls have identity: two occurrences of null are
  *different* unknown values unless a null-equality constraint (section 6,
  Definition 1) says otherwise.  :class:`Null` instances compare by object
  identity and carry a small integer id for printing and ordering;
* **nothing** — the inconsistent element introduced in section 6 for the
  extended NS-rules: the value a cell takes when the constraints force two
  distinct constants to be equal.  There is a single :data:`NOTHING`
  sentinel.

Section 2 notes that introducing null makes each domain "a lattice with an
approximation ordering" where null carries less information than every
constant; :func:`approximates` implements that order (with ``NOTHING`` as
the over-defined top element).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Hashable


class Null:
    """A missing-but-existing value with identity.

    Each :class:`Null` is a distinct unknown; equality is object identity.
    The ``label`` is only for display.  Fresh nulls are normally obtained via
    :func:`null` (a process-wide counter keeps labels unique), but tests may
    construct labelled nulls directly for readable assertions.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"⊥{self.label}"  # e.g. ⊥3

    # Identity semantics are inherited from ``object`` (==, hash); we state
    # them in the class docstring rather than overriding, so that dict/set
    # usage stays fast and obviously correct.


class _Nothing:
    """The single inconsistent ("over-defined") data value of section 6."""

    _instance: "_Nothing | None" = None

    def __new__(cls) -> "_Nothing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOTHING"

    def __reduce__(self) -> tuple:
        return (_Nothing, ())


NOTHING = _Nothing()

_counter = itertools.count(1)
#: executor threads (detached read-lease re-chases) mint nulls too
_counter_lock = threading.Lock()


def null(label: str | None = None) -> Null:
    """Create a fresh null value.

    Each call returns a brand-new unknown.  Without an explicit ``label`` a
    process-unique number is used so printed instances stay readable.
    """
    if label is None:
        with _counter_lock:
            label = str(next(_counter))
    return Null(label)


def is_null(value: Any) -> bool:
    """True when ``value`` is a null (a missing value)."""
    return isinstance(value, Null)


def is_nothing(value: Any) -> bool:
    """True when ``value`` is the inconsistent element."""
    return value is NOTHING


def is_constant(value: Any) -> bool:
    """True when ``value`` is an ordinary domain constant."""
    return not isinstance(value, Null) and value is not NOTHING


def approximates(lower: Any, upper: Any) -> bool:
    """The approximation order of the value lattice: ``lower ⊑ upper``.

    * a null approximates everything (it carries the least information);
    * every value approximates itself;
    * everything approximates NOTHING (the over-defined top).

    Note that two *distinct* nulls do not approximate each other: each is a
    separate unknown.
    """
    if lower is upper:
        return True
    if is_null(lower):
        return True
    if is_nothing(upper):
        return True
    return is_constant(lower) and is_constant(upper) and lower == upper


def value_lub(first: Any, second: Any) -> Any:
    """Least upper bound of two values in the approximation lattice.

    Joining two distinct constants yields :data:`NOTHING` — exactly the
    poisoning step of the extended NS-rules.  Joining a null with anything
    yields the other value (identical nulls join to themselves).
    """
    if first is second:
        return first
    if is_nothing(first) or is_nothing(second):
        return NOTHING
    if is_null(first):
        return second
    if is_null(second):
        return first
    if first == second:
        return first
    return NOTHING


def constant_key(value: Hashable) -> tuple:
    """A total-order sort key over constants of mixed Python types.

    Sorting is by ``(type name, repr)`` so heterogeneous domains (ints mixed
    with strings) never raise ``TypeError`` during the sort-merge algorithm.
    """
    return (type(value).__name__, repr(value))

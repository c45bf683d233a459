"""Event accumulation during simulation.

A :class:`CounterSet` is a plain event->count mapping with arithmetic; a
:class:`Collector` keys counter sets by (program, context) so multiprogram
runs can be analyzed per program, per context, or in aggregate — the same
slicing VTune offers.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.counters.events import Event


class CounterSet:
    """A bag of event counts supporting accumulation.

    A set is a dict while a run accumulates into it.  :meth:`freeze`
    packs a finished set into a shared event schema (one per distinct
    event order, interned) plus an ``array('d')`` of the values: the
    run cache keeps finished results for the life of the process, and a
    dict per set was most of a cached result's memory.  Reads, the
    :class:`Collector` sums, ``==`` and pickling behave the same in both
    forms and return the exact stored values; :meth:`add` on a frozen
    set unpacks it first.
    """

    __slots__ = ("_counts", "_schema", "_values")

    def __init__(self, counts: Optional[Dict[Event, float]] = None):
        self._counts: Optional[Dict[Event, float]] = dict(counts or {})
        self._schema: Optional[Dict[Event, int]] = None
        self._values: Optional[array] = None

    def freeze(self) -> "CounterSet":
        """Pack into the compact read-only form (idempotent)."""
        counts = self._counts
        if counts is not None:
            self._schema = _intern_schema(tuple(counts))
            # From a list, not an iterator: the array is then sized
            # exactly instead of over-allocated for growth.
            self._values = array("d", list(counts.values()))
            self._counts = None
        return self

    def _items(self) -> Iterable[Tuple[Event, float]]:
        if self._counts is not None:
            return self._counts.items()
        return zip(self._schema, self._values)

    def _mutable(self) -> Dict[Event, float]:
        """The dict form, unpacking a frozen set first."""
        if self._counts is None:
            self._counts = dict(self._items())
            self._schema = self._values = None
        return self._counts

    def add(self, event: Event, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative count for {event}: {value}")
        counts = self._mutable()
        counts[event] = counts.get(event, 0.0) + value

    def get(self, event: Event) -> float:
        if self._counts is not None:
            return self._counts.get(event, 0.0)
        index = self._schema.get(event)
        return 0.0 if index is None else self._values[index]

    def __getitem__(self, event: Event) -> float:
        return self.get(event)

    def ratio(self, num: Event, den: Event) -> float:
        d = self.get(den)
        return self.get(num) / d if d else 0.0

    def as_dict(self) -> Dict[Event, float]:
        if self._counts is not None:
            return dict(self._counts)  # a dict copy reuses stored hashes
        return dict(zip(self._schema, self._values))

    def __eq__(self, other: object) -> bool:
        """Value equality, so cached results survive a pickle round trip
        through the run cache's disk tier comparably."""
        if not isinstance(other, CounterSet):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __reduce__(self):
        if self._counts is not None:
            return (CounterSet, (self._counts,))
        return (_frozen, (tuple(self._schema), self._values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{e.value}={v:.3g}" for e, v in sorted(
            self._items(), key=lambda kv: kv[0].value))
        return f"CounterSet({inner})"


#: Each event order seen with its event -> index map, shared by every
#: frozen set with that order (a handful exist: one per hierarchy
#: shape).  Scanned rather than hashed: comparing two tuples of the same
#: members is identity checks, while hashing one calls ``Enum.__hash__``
#: per member.
_SCHEMAS: List[Tuple[Tuple[Event, ...], Dict[Event, int]]] = []


def _intern_schema(events: Tuple[Event, ...]) -> Dict[Event, int]:
    for known, schema in _SCHEMAS:
        if known == events:
            return schema
    schema = {ev: i for i, ev in enumerate(events)}
    _SCHEMAS.append((events, schema))
    return schema


def _frozen(events: Tuple[Event, ...], values: array) -> CounterSet:
    """Unpickle a frozen set onto the process's interned schema."""
    out = CounterSet.__new__(CounterSet)
    out._counts = None
    out._schema = _intern_schema(events)
    out._values = values
    return out


def _sum(sets: Iterable[CounterSet]) -> CounterSet:
    """Add the sets into one dict, in order, without a copy per set."""
    out = CounterSet()
    counts = out._counts
    for cs in sets:
        for ev, v in cs._items():
            counts[ev] = counts.get(ev, 0.0) + v
    return out


def check_counts(values: Dict[Event, float]) -> None:
    """Reject any negative event count."""
    for ev, v in values.items():
        if v < 0:
            raise ValueError(f"negative count for {ev}: {v}")


@dataclass
class Collector:
    """Per-(program, context) event accumulation."""

    _sets: Dict[Tuple[int, str], CounterSet] = field(
        default_factory=lambda: defaultdict(CounterSet)
    )

    def add(
        self, program_id: int, context_label: str, event: Event, value: float
    ) -> None:
        self._sets[(program_id, context_label)].add(event, value)

    def add_many(
        self,
        program_id: int,
        context_label: str,
        values: Dict[Event, float],
    ) -> None:
        check_counts(values)
        self.add_checked(program_id, context_label, values)

    def add_checked(
        self, program_id: int, context_label: str, values: Dict[Event, float]
    ) -> None:
        """:meth:`add_many` for values :func:`check_counts` passed."""
        counts = self._sets[(program_id, context_label)]._mutable()
        for ev, v in values.items():
            counts[ev] = counts.get(ev, 0.0) + v

    def for_program(self, program_id: int) -> CounterSet:
        """Aggregate over every context a program's threads ran on."""
        return _sum(
            cs for (pid, _), cs in self._sets.items() if pid == program_id
        )

    def for_context(self, context_label: str) -> CounterSet:
        return _sum(
            cs for (_, label), cs in self._sets.items()
            if label == context_label
        )

    def total(self) -> CounterSet:
        return _sum(self._sets.values())

    def freeze(self) -> "Collector":
        """Freeze every per-(program, context) set (see
        :meth:`CounterSet.freeze`)."""
        for cs in self._sets.values():
            cs.freeze()
        return self

    def programs(self) -> Iterable[int]:
        return sorted({pid for pid, _ in self._sets})

    def contexts(self) -> Iterable[str]:
        return sorted({label for _, label in self._sets})

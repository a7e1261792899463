"""Event engine for the packet-level simulator.

:data:`Simulator` is :class:`~repro.sim.calendar.CalendarSimulator`, a
one-tier calendar queue (see :mod:`repro.sim.calendar`). Every run uses it;
construct ``Simulator()`` directly.

It accepts cancellable events (``at``/``after``, which return an
:class:`EventHandle`), fire-and-forget ones (``post``/``post_at``, which
skip the handle allocation on the packet hot path and carry one argument,
``fn(arg)``) and periodic ones
(``every``, a :class:`RepeatingEvent`), refuses to schedule into the past,
and lists what it holds through ``iter_pending``. Cancellation is lazy: a
cancelled handle stays stored and is skipped when popped, ``pending()``
subtracts a running count of such entries, and the store is compacted once
they dominate it.

Two ordering guarantees matter for correctness elsewhere in the stack:

* events fire in nondecreasing time order;
* events scheduled for the same instant fire in FIFO scheduling order
  (a monotonically increasing sequence number breaks ties).
"""

from repro.sim.calendar import CalendarSimulator
from repro.sim.events import EventHandle, RepeatingEvent

__all__ = ["CalendarSimulator", "EventHandle", "RepeatingEvent", "Simulator"]

#: the engine every run uses
Simulator = CalendarSimulator

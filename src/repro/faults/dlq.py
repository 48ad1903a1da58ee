"""Dead-letter queues for poison work items.

When a consumer keeps failing on the same item, endless requeueing would
starve healthy work.  After a bounded number of failed passes its
:class:`~repro.store.workqueue.WorkQueue` *dead-letters* the item: parked
here with its failure context, where operators (or tests) can inspect
and replay it.  The consumer moves on -- one poison object must never
stall the rest of the keyspace.  On a failing store a reconciler gives a
key 4 passes, Cast 6, Sync, Rollup and in-store functions 101 (over 90 s);
on any other failure the integrators park it at once.  A letter replays
through its queue's ``requeue(letter.key)``; ``docs/faults.md`` has the
table.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeadLetter:
    """One parked work item with enough context to diagnose and replay."""

    key: str
    error: str
    attempts: int
    time: float
    source: str = ""


@dataclass
class DeadLetterQueue:
    """Append-only queue of :class:`DeadLetter`."""

    name: str = ""
    letters: list = field(init=False, default_factory=list)

    def push(self, key, error, attempts, time):
        letter = DeadLetter(
            key=key,
            error=str(error),
            attempts=attempts,
            time=time,
            source=self.name,
        )
        self.letters.append(letter)
        return letter

    def keys(self):
        return [letter.key for letter in self.letters]

    def clear(self):
        drained, self.letters = self.letters, []
        return drained

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return True  # an empty DLQ is still a DLQ

    def stats(self):
        return {"name": self.name, "size": len(self.letters)}

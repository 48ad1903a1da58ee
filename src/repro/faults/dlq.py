"""Dead-letter queues for poison work items.

When a consumer (reconciler, Cast worker) keeps failing on the same item,
endless requeueing would starve healthy work.  After a bounded number of
requeues the item is *dead-lettered*: parked here with its failure
context, where operators (or tests) can inspect and replay it.  The
consumer moves on -- one poison object must never stall the rest of the
keyspace.
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

    def push(self, key, error, attempts, time, source=""):
        letter = DeadLetter(
            key=key,
            error=str(error),
            attempts=attempts,
            time=time,
            source=source,
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

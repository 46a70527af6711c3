"""Keys whose comparisons raise on cue, for exception-safety tests."""


class Tripwire(int):
    """Int key whose comparisons raise once ``countdown`` runs out."""

    countdown = None    # comparisons left before they start to raise

    def _tick(self):
        if Tripwire.countdown is not None:
            Tripwire.countdown -= 1
            if Tripwire.countdown < 0:
                raise RuntimeError("tripwire")

    def __lt__(self, other):
        self._tick()
        return int.__lt__(self, other)

    def __gt__(self, other):
        self._tick()
        return int.__gt__(self, other)

    def __le__(self, other):
        self._tick()
        return int.__le__(self, other)

    def __ge__(self, other):
        self._tick()
        return int.__ge__(self, other)

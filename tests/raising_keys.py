"""Keys that act on cue at a comparison, for exception-safety tests."""


def _ticking(compare):
    def ticked(self, other):
        self._tick()
        return compare(self, other)
    return ticked


class _Cued(int):
    """Int key that calls ``cue`` at each comparison once its class's
    ``countdown`` runs out."""

    countdown = None    # comparisons left before the cue

    def _tick(self):
        cls = type(self)
        if cls.countdown is not None:
            cls.countdown -= 1
            if cls.countdown < 0:
                self.cue()

    __lt__, __gt__ = _ticking(int.__lt__), _ticking(int.__gt__)
    __le__, __ge__ = _ticking(int.__le__), _ticking(int.__ge__)


class Tripwire(_Cued):
    """Int key whose comparisons raise once ``countdown`` runs out."""

    def cue(self):
        raise RuntimeError("tripwire")


class Reentrant(_Cued):
    """Int key that runs ``call`` at the comparison where ``countdown``
    runs out: a key that calls back into the heap it is compared in.
    What ``call`` raises leaves through the comparison."""

    call = None

    def cue(self):
        if Reentrant.countdown == -1:
            Reentrant.call()

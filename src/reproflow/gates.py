"""Named pass/fail gates, on numpy alone, so every layer (the eigenbasis too) judges by them."""

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class Gate:
    """One pass/fail decision `value sense bound` (sense "<=" or "<"); NaN or inf fails."""

    name: str
    value: float
    bound: float
    sense: str = "<="

    @property
    def passed(self):
        held = self.value < self.bound if self.sense == "<" else self.value <= self.bound
        return bool(np.isfinite(self.value) and held)

    @property
    def margin(self):
        return self.bound - self.value

    def line(self):
        return (f"{'pass' if self.passed else 'FAIL'}  {self.name}: {self.value:+.3e} "
                f"{self.sense} {self.bound:.3e} (margin {self.margin:+.3e})")


class RegimeViolation(RuntimeError):
    """The smallness gates this run failed; the run is out of regime, not judged."""

    def __init__(self, *gates):
        super().__init__("; ".join(g.line() for g in gates))
        self.gates = gates


def require(*gates):
    """Raise RegimeViolation with the gates that failed, if any did."""
    failed = [g for g in gates if not g.passed]
    if failed:
        raise RegimeViolation(*failed)

"""How fast the machine runs right now, from a fixed piece of reference work.

The benchmark shares its host with other tenants. When they are busy, the
same op takes up to 2.2 times as long, for stretches as long as a whole run.
`SpeedProbe` times a fixed piece of work made of the calls nlbox spends
its time in: small complex matrices through ``kron``, ``@``, ``trace`` and
``eigvalsh``, driven from Python. It uses numpy only, no nlbox, so no change
to nlbox changes it. Dividing an op's time by the probe's time next to it
takes out the host's speed; multiplying by `REFERENCE_S` puts the result
back into seconds at the speed of a quiet host.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the probe's time on a quiet host (a 2-vCPU KVM guest on an Intel Xeon of
# family 6, model 207, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 1.0e-3
_REPS = 30


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._h = a + a.conj().T
        self._x = np.array([[0, 1], [1, 0]], dtype=complex)

    def __call__(self):
        """Seconds the reference work takes now."""
        start = perf_counter()
        for _ in range(_REPS):
            m = np.kron(self._x, self._h)
            np.linalg.eigvalsh(m @ m.conj().T)
            float(np.trace(m @ m).real)
        return perf_counter() - start

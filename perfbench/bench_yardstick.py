"""A fixed reference computation that measures the machine's speed while the
timed runs execute.

On a shared virtual machine the same code runs at speeds that drift by up
to 1.5x, in phases from seconds to minutes, as other guests load the host
(the guest sees no steal time: the process's CPU time drifts with its wall
time). A mean over a 20-s window of back-to-back runs cannot average that
out, so ten windows spread by 10-30% (IQR/median).

While a run is timed, a one-shot interval timer interrupts it every
INTERVAL_S seconds and the signal handler runs one unit of this
computation: a prox-gradient-like loop of small numpy operations and Python
float work, i.e. the instruction mix of the solver loops. It uses only
numpy, never proxbound, so no change to the program moves it (a change that
makes the program react to the host's load unlike this loop, say by using
several threads, is not corrected for). The handler
runs in the main thread between bytecodes, so the units sample the
machine's speed all through the run; their time is taken out of the run's
wall time. run_s is the mean net run time scaled to the reference speed,
i.e. times NOMINAL_S over the mean unit time of the loop. On a 2-vCPU Xeon
VM, over four minutes of back-to-back robust-constants runs, net run time
and mean unit time correlated at 0.99 across runs. Over ten 20-s benchmark
invocations per workload, run_s spread 0.022-0.032 (IQR/median) where the
unscaled mean net time spread 0.073-0.153.
"""

import signal
import time

import numpy as np

# iterations of one unit, and its wall seconds at the reference speed (the
# median of a unit on a 2-vCPU Intel Xeon 2.1 GHz VM, numpy 2, Python 3.11)
UNIT_ITERS = 2500
NOMINAL_S = 0.03
# wall seconds the program runs between two units (about a quarter of the
# time goes to units)
INTERVAL_S = 0.075

_A = np.random.default_rng(0).standard_normal((10, 10))


def unit():
    """Wall seconds of one unit of the fixed computation."""
    t0 = time.perf_counter()
    x = np.ones(10)
    total = 0.0
    for _ in range(UNIT_ITERS):
        g = _A.T @ (_A @ x) - 1.0
        y = x - 0.01 * g
        x = np.sign(y) * np.maximum(np.abs(y) - 0.001, 0.0)
        total += float(np.linalg.norm(g))
    if not np.isfinite(total):
        raise ArithmeticError("yardstick diverged")
    return time.perf_counter() - t0


class Sampler:
    """Context in which SIGALRM runs one unit every INTERVAL_S seconds.

    The timer is re-armed after each unit, so the program always gets
    INTERVAL_S between units however slow the machine is. `units` holds the
    wall seconds of every unit run so far.
    """

    def __init__(self):
        self.units = []
        self._active = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if not self._active:
            return
        self.units.append(unit())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def normalized(net_samples, units):
    """Mean net run seconds scaled to the reference speed by the mean unit
    time."""
    return (sum(net_samples) / len(net_samples)) * NOMINAL_S / (
        sum(units) / len(units))

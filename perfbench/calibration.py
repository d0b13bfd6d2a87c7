"""Machine-speed calibration of the benchmark's timings.

On a shared 2-core VM the same code runs up to 2x slower for seconds to
minutes at a time.  While a pass runs, a sampler process times a short
fixed reference loop every ``PERIOD_S`` seconds; each instance's times are
rescaled by the loop's mean speed over that instance, so a run that happens
to fall in a slow spell reads like one that does not.  Every reported time
is what it would read at the speed where one sample of the loop takes
``REF_US``.

The loop is a frozen replica of both per-iteration patterns the program
spends its time in, because they do not always slow down alike:

* interpreted code and tiny numpy calls, as in an error-schedule solve (a
  seeded ``default_rng`` draw and 10-vector shrinkage);
* array kernels on a 16x16 image, as in a deblur solve (first- and
  second-order differences, a strided group shrinkage, a 256x256 matvec
  and a clip).

It lives here, not in ``src``, so a change to the program never changes
it.  The sampler is a separate process, so it shares no interpreter state
with the program (GIL, garbage collector, allocator): a change that loads
those slows the program's times and not the loop.  It inherits the
program's CPU (see ``env.prepare``), so it reads the speed of the core the
program runs on, in the same warm state, and never runs at the same time
as the program.  (Left free to run on the other, idle CPU, the loop read
up to 40% slower than on the busy one, and by how much depended on where
the scheduler placed it.)  Its time is its own CPU time, which is also what
it takes out of the instance times.

Run as a script, this file is the sampler: it writes one line
``start end cpu_us`` per sample (``time.perf_counter`` is the system-wide
monotonic clock, so the program can compare the times with its own) and
stops after one last sample when its standard input closes.
"""

import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SMALL_ROUNDS = 20
ARRAY_ROUNDS = 8
PERIOD_S = 0.2
# Time of one sample at the reference speed: about the median reading on a
# 2-core x86-64 VM, with the sampler sharing a CPU with a running pass.
REF_US = 2500.0

_MATRIX = np.random.default_rng(0).standard_normal((256, 256)) / 16.0
_IMAGE = np.linspace(0.0, 1.0, 256)


def _small_rounds(rounds):
    v = np.ones(10)
    for n in range(rounds):
        r = np.random.default_rng([7, n, 3, 0]).standard_normal(10)
        v = v - 0.1 * (r / np.linalg.norm(r))
        v = np.sign(v) * np.maximum(np.abs(v) - 0.01, 0.0)
        float(np.sum(v ** 2))


def _diff(img):
    vert = np.zeros(img.shape)
    horz = np.zeros(img.shape)
    vert[:-1, :] = img[1:, :] - img[:-1, :]
    horz[:, :-1] = img[:, 1:] - img[:, :-1]
    return vert, horz


def _diff_adjoint(vert, horz):
    out = np.zeros(vert.shape)
    out[1:, :] += vert[:-1, :]
    out[:-1, :] -= vert[:-1, :]
    out[:, 1:] += horz[:, :-1]
    out[:, :-1] -= horz[:, :-1]
    return out


def _array_rounds(rounds):
    x = _IMAGE.copy()
    for _ in range(rounds):
        vert, horz = _diff(x.reshape(16, 16))
        xx, xy = _diff(vert)
        yx, yy = _diff(horz)
        blocks = np.stack([xx, xy, yx, yy]).reshape(4, -1)
        norms = np.sqrt(np.sum(blocks * blocks, axis=0))
        scale = np.zeros_like(norms)
        nz = norms > 0.0
        scale[nz] = np.maximum(0.0, 1.0 - 0.01 / norms[nz])
        y = (blocks * scale[None, :]).reshape(4, 16, 16)
        back = _diff_adjoint(_diff_adjoint(y[0], y[1]),
                             _diff_adjoint(y[2], y[3])).ravel()
        x = np.clip(x - 0.01 * (_MATRIX @ x) - 0.001 * back, 0.0, 1.0)
        float(np.sum((x - back) ** 2))


def _rounds():
    _small_rounds(SMALL_ROUNDS)
    _array_rounds(ARRAY_ROUNDS)


def _sample():
    w0 = time.perf_counter()
    c0 = time.process_time()
    _rounds()
    c1 = time.process_time()
    return w0, time.perf_counter(), (c1 - c0) * 1e6


def sample_until_stdin_closes():
    """The sampler process: a sample now, then one every ``PERIOD_S``."""
    while True:
        print("%r %r %r" % _sample(), flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.read(1):
            print("%r %r %r" % _sample(), flush=True)
            return


class SpeedSampler:
    """Runs the sampler process for the life of a ``with`` block."""

    def __init__(self):
        self.samples = []  # (wall start, wall end, us of CPU time)
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # the first sample is taken once the sampler has loaded numpy, so
        # its start-up never overlaps the timed pass
        self._read(self._proc.stdout.readline())
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        for line in out.splitlines():
            self._read(line)
        return False

    def _read(self, line):
        w0, w1, us = map(float, line.split())
        self.samples.append((w0, w1, us))

    def speed_us(self, start, end):
        """Mean sample time over [start, end], or of the samples around it."""
        inside = [us for w0, w1, us in self.samples if start <= w0 and w1 <= end]
        if inside:
            return sum(inside) / len(inside)
        before = [us for w0, w1, us in self.samples if w1 <= start]
        after = [us for w0, w1, us in self.samples if w0 >= end]
        around = before[-1:] + after[:1]
        return sum(around) / len(around)

    def busy_s(self, start, end):
        """CPU time the sampler spent inside [start, end].

        The sampler shares the program's one CPU, so this is the time it
        took from the program.
        """
        return sum(us * 1e-6 * max(0.0, min(w1, end) - max(w0, start)) / (w1 - w0)
                   for w0, w1, us in self.samples)

    def scale(self, start, end):
        """Factor taking times measured over [start, end] to the reference.

        Removes the sampler's own share of the interval, then rescales by
        the reference loop's speed.
        """
        share = 1.0 - self.busy_s(start, end) / (end - start)
        return share * REF_US / self.speed_us(start, end)


if __name__ == "__main__":
    sample_until_stdin_closes()

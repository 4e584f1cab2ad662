"""Dormand-Prince 8(5,3) integration with dense output at requested times.

The parts of SciPy's ``solve_ivp(fun, (t0, t_bound), y0, method="DOP853",
t_eval=t_eval, rtol=rtol, atol=atol)`` that a forward run on a real state
uses: the initial step guess, the 12-stage step, the step-size controller
with its E5/E3 error norm, and the 7-term dense output, whose 3 extra stages
are evaluated only on steps that contain requested times.  Every floating-
point operation is SciPy's, in SciPy's order and on arrays of SciPy's
layout, so the recorded states and the evaluation count agree with it bit
for bit (the tests hold it to that).

A small system's step is numpy dispatch and Python frames, not
arithmetic, so the loop builds its stage views and buffers once per run,
keeps the controller on Python floats and calls ``fun`` directly.

The dense output is deferred: stepping buffers each record-holding step
and evaluates the dense output of ``_DENSE_CHUNK`` such steps in one pass,
whose 3 extra stages are one call of ``fun`` each on a stack of states.
So ``fun`` must also take a (k, n) stack of states with a (k,) vector of
times and return the (k, n) stack of rates, each row as the 1-D call
returns it.  Only the grouping of the evaluations changes: a stacked call
counts k evaluations, and ``nfev`` is SciPy's.

The records are streamed, not returned, in fixed blocks of
max(3, ``_DENSE_FLOATS`` // n) records (512 of 16 floats, 42 of 192), the
last block taking the remainder: the interpolation writes each record into
its block, a block can fill over several passes, and a full block goes to
the caller's ``emit``.  So no array of every record is made here, and no
block shorter than 3 records reaches ``emit`` unless the run has fewer.

``integrate`` is the run driver of both equations and the one caller of
``dop853``: it holds every block to one positivity floor before the run's
reducer sees it, and raises ``StepCollapse``, the runs' one failure type.

One deviation from SciPy: a non-finite initial step guess (a first rate
that overflows to NaN, say) raises ``StepSizeTooSmall`` at t0.  SciPy's
loop keeps the NaN step, which is never below the minimum step, and so
attempts steps at t0 without end.  A finite run is untouched by the check.
"""

# Ported from scipy/integrate/_ivp/{rk.py,common.py,ivp.py,dop853_coefficients.py}:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

A_STEP = A[:N_STAGES, :N_STAGES]
C_STEP = C[:N_STAGES]
A_EXTRA = A[N_STAGES + 1:]
C_EXTRA = C[N_STAGES + 1:]

SAFETY = 0.9  # multiplies steps computed from the asymptotic error behaviour
MIN_FACTOR = 0.2  # smallest allowed decrease of the step size
MAX_FACTOR = 10  # largest allowed increase of the step size
ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7
EPS = np.finfo(float).eps
_DENSE_CHUNK = 64  # record-holding steps per dense-output pass; its buffers hold 18 rows of n per step
_DENSE_FLOATS = 8192  # floats per record block: max(3, 8192 // n) requested times

RTOL = 1e-12  # the package's relative tolerance, shared by the full equation and the atom system
ATOL = 1e-20  # and its absolute tolerance


class StepSizeTooSmall(RuntimeError):
    """The controller asked for a step below ten ulps of the current time."""


class StepCollapse(RuntimeError):
    """A run failed (:func:`integrate`): a stalled step, a non-finite rate or a node mass below the floor."""


class Counts(NamedTuple):
    """A run's right-hand-side evaluations (SciPy's ``nfev``) and its
    accepted and rejected steps."""

    nfev: int
    steps: int
    rejected: int


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer-Norsett-Wanner initial step guess (``select_initial_step``)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, stages, dy, ys):
    """One 12-stage step; the stages go to the rows of K (13 rows).  Stage s
    of ``stages`` is (K[:s].T, A[s, :s], C[s]); its increment and state go
    to the buffers dy and ys, by SciPy's operations in SciPy's order."""
    K[0] = f
    for s, (KT, a, c) in enumerate(stages, start=1):
        np.dot(KT, a, out=dy)
        dy *= h
        np.add(y, dy, out=ys)
        K[s] = fun(t + c * h, ys)
    np.dot(K[:-1].T, B, out=dy)
    dy *= h
    y_new = y + dy
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _norm_2(x: np.ndarray):
    # np.linalg.norm(x) ** 2: numpy's scalar power is C pow (not x*x) and overflows to inf
    return np.float64(math.sqrt(x.dot(x))) ** 2


def _error_norm(KT, h, scale, err) -> float:
    # SciPy's, through the buffer err; numpy scalars until the end (0/0 is nan, not an exception)
    np.dot(KT, E5, out=err)
    err /= scale
    err5_norm_2 = _norm_2(err)
    np.dot(KT, E3, out=err)
    err /= scale
    err3_norm_2 = _norm_2(err)
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return float(abs(h) * err5_norm_2 / math.sqrt(denom * err.size))


def _dense(fun, K_ext, t_old, h, y_old, y) -> np.ndarray:
    """The (k, 7, n) interpolation coefficients F of k buffered steps.

    Step j spans [t_old[j], t_old[j] + h[j]] from y_old[j] to y[j], with
    its 13 stages in K_ext[j, :13].  The 3 extra stages take one stacked
    fun call each, on the (k, n) states at the (k,) stage times.  Each
    stacked np.matmul makes the BLAS call of SciPy's per-step np.dot, so
    the bits are SciPy's; everything else is elementwise over the chunk.
    """
    hk = h[:, None]
    dy = np.empty_like(y)
    KT = K_ext.transpose(0, 2, 1)
    for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=N_STAGES + 1):
        np.matmul(KT[:, :, :s], a[:s], out=dy)
        K_ext[:, s] = fun(t_old + c * h, y_old + dy * hk)
    F = np.empty((t_old.size, INTERPOLATOR_POWER, y.shape[1]))
    f_old = K_ext[:, 0]
    delta_y = y - y_old
    F[:, 0] = delta_y
    F[:, 1] = hk * f_old - delta_y
    F[:, 2] = 2 * delta_y - hk * (K_ext[:, N_STAGES] + f_old)
    np.matmul(D, K_ext, out=F[:, 3:])
    F[:, 3:] *= h[:, None, None]
    return F


class _DeferredDense:
    """Accepted steps that hold requested times, buffered until the dense
    output of ``_DENSE_CHUNK`` of them (or of the last ones) is evaluated
    in one pass, and the record blocks that the passes fill for ``emit``."""

    def __init__(self, fun, t_eval: np.ndarray, n: int, emit):
        self.fun, self.t_eval, self.emit = fun, t_eval, emit
        self.rows = max(3, _DENSE_FLOATS // n)  # records per block; the last block takes the remainder
        self.out = np.empty((t_eval.size - self.rows * max(t_eval.size // self.rows - 1, 0), n))  # the last block
        self.K_ext = np.empty((_DENSE_CHUNK, N_STAGES_EXTENDED, n))
        self.t_old, self.h = np.empty(_DENSE_CHUNK), np.empty(_DENSE_CHUNK)
        self.y_old, self.y = np.empty((_DENSE_CHUNK, n)), np.empty((_DENSE_CHUNK, n))
        self.held = np.empty(_DENSE_CHUNK, dtype=np.intp)  # requested times in each step
        self.k = 0  # steps buffered
        self.start = 0  # first requested time of the block being filled
        self.done = 0  # requested times interpolated
        self.upto = 0  # requested times interpolated or held by a buffered step

    def add(self, t_old, h, y_old, y, K, upto: int) -> None:
        k = self.k
        self.t_old[k], self.h[k], self.y_old[k], self.y[k] = t_old, h, y_old, y
        self.K_ext[k, :N_STAGES + 1] = K
        self.held[k], self.upto = upto - self.upto, upto
        self.k += 1
        if self.k == _DENSE_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Interpolate the buffered steps' requested times into their
        blocks (the pass's r-th time lies in step step[r]), handing each
        block to ``emit(times, states)`` when it is full.  The gathers of F
        and y_old hold at most a block's rows."""
        k = self.k
        if not k:
            return
        F = _dense(self.fun, self.K_ext[:k], self.t_old[:k], self.h[:k], self.y_old[:k], self.y[:k])
        step = np.repeat(np.arange(k), self.held[:k])
        t, first = self.t_eval, self.done
        while self.done < self.upto:
            lo = self.done
            end = t.size if t.size - self.start < 2 * self.rows else self.start + self.rows
            hi = min(self.upto, end)
            sel = step[lo - first:hi - first]
            o = self.out[lo - self.start:hi - self.start]
            x = ((t[lo:hi] - self.t_old[sel]) / self.h[sel])[:, None]
            o[...] = 0.0  # SciPy starts from np.zeros: adding a -0.0 term to it gives +0.0
            for i in range(INTERPOLATOR_POWER):
                o += F[sel, INTERPOLATOR_POWER - 1 - i]
                if i % 2 == 0:
                    o *= x
                else:
                    o *= 1 - x
            o += self.y_old[sel]
            self.done = hi
            if hi == end:
                self.emit(t[self.start:end], self.out[:end - self.start])
                self.start = end
        self.k = 0


def dop853(fun, t0: float, t_bound: float, y0, t_eval: np.ndarray, rtol: float, atol: float, emit) -> Counts:
    """Integrate dy/dt = fun(t, y) forward from t0 to t_bound > t0.

    ``fun(t, y)`` takes a state of shape (n,) at a time t, or a (k, n)
    stack of states at a (k,) vector of times (the deferred dense output,
    see the module docstring), and returns rates of the same shape as a
    float ndarray, which is not coerced.  A stage's 1-D ``y`` is a buffer
    that the next stage overwrites: ``fun`` must neither write nor keep
    it.  The states at the requested times
    ``t_eval`` (sorted, inside [t0, t_bound]) go to ``emit(t, y)`` in
    order, in fixed blocks of max(3, ``_DENSE_FLOATS`` // n) records, the
    last block taking the remainder: ``t`` a slice of ``t_eval`` and ``y``
    the (len(t), n) states.  ``y`` is a buffer that the next block
    overwrites, so a caller that keeps records copies them; it may change
    ``y`` in place.  A record at t0 is y0 plus a signed zero: its last
    interpolation term is multiplied by x = 0.

    Returns :class:`Counts`.  SciPy's ``nfev`` is counted by arithmetic: 2
    (the first rate and the initial step guess), 12 per step attempt and 3
    per accepted step that holds requested times (a stacked call counts
    one per row).  Raises :class:`StepSizeTooSmall` with SciPy's message
    when the controller stalls, and names the time if an error estimate
    there was not finite; a non-finite initial step guess raises it at t0.
    An ``rtol`` below 100 eps is clamped to it with SciPy's warning.  An
    exception raised by ``fun`` or ``emit`` ends the run.
    """
    t0, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if np.any(rtol < 100 * EPS):
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=2)
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)
    t_eval = np.asarray(t_eval, dtype=float)

    n = y.size
    f = fun(t0, y)
    if n == 0:
        emit(t_eval, np.empty((t_eval.size, 0)))
        return Counts(1, 0, 0)
    h_abs = float(_initial_step(fun, t0, y, t_bound, f, rtol, atol))
    if not math.isfinite(h_abs):
        raise StepSizeTooSmall(f"initial step estimate is not finite at t={t0!r}: {h_abs!r}")
    K = np.empty((N_STAGES + 1, n))
    KT = K.T
    stages = [(K[:s].T, A_STEP[s, :s], c) for s, c in enumerate(C_STEP[1:].tolist(), start=1)]
    dy, ys = np.empty(n), np.empty(n)
    dense = _DeferredDense(fun, t_eval, n, emit)
    steps = attempts = held = 0
    t = t0
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        not_finite_at = None  # t of a non-finite error estimate of this step
        while True:
            if h_abs < min_step:
                message = "Required step size is less than spacing between numbers."
                if not_finite_at is not None:
                    message += f" (error estimate not finite since t={not_finite_at!r})"
                raise StepSizeTooSmall(message)
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            attempts += 1
            y_new, f_new = _rk_step(fun, t, y, f, h, K, stages, dy, ys)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(KT, h, scale, dy)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            if not math.isfinite(error_norm):
                not_finite_at = t
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        steps += 1
        upto = int(np.searchsorted(t_eval, t_new, side="right"))
        if upto > dense.upto:
            held += 1
            dense.add(t, h, y, y_new, K, upto)
        t, y, f = t_new, y_new, f_new
    dense.flush()
    return Counts(2 + 12 * attempts + 3 * held, steps, attempts - steps)


def integrate(fun, y0: np.ndarray, t_eval: np.ndarray, weights: np.ndarray | None, reduce) -> Counts:
    """The run driver of both equations: :func:`dop853` from y0 at t = 0 to
    ``t_eval[-1]`` at ``RTOL`` and ``ATOL``, each block of the records at
    ``t_eval`` going to ``reduce(rows, lo, hi)`` (records lo to hi - 1).

    One positivity rule: a node mass is a record times the node ``weights``
    (the record itself without them), and the floor is -1e-12 * max(the
    initial total node mass, 1).  A block with a node mass below the floor
    raises :class:`StepCollapse` naming the time of its first such record;
    otherwise it is clipped at zero.  A stalled step raises it with the
    integrator's message (a rate that is not finite stalls the steps, unless
    ``fun`` raises it first, as the full run's does).
    """
    floor = -1e-12 * max(float(np.sum(y0 if weights is None else y0 * weights)), 1.0)
    done = 0

    def emit(t: np.ndarray, rows: np.ndarray) -> None:
        nonlocal done
        low = (rows if weights is None else rows * weights).min(axis=1)
        bad = np.flatnonzero(low < floor)
        if bad.size:
            raise StepCollapse(f"negative node mass beyond integrator noise at t={t[bad[0]]}: {low[bad[0]]}")
        np.clip(rows, 0.0, None, out=rows)
        done += len(rows)
        reduce(rows, done - len(rows), done)

    try:
        return dop853(fun, 0.0, t_eval[-1], y0, t_eval, RTOL, ATOL, emit)
    except StepSizeTooSmall as e:
        raise StepCollapse(f"integration failed: {e}") from None

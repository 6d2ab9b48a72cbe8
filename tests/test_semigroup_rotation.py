"""Accuracy of ``evolve_semigroup``'s rotation coefficients, one ``tan`` per sample.

For a real root r = w (here w = 1, so the phase w t is t itself, exactly)
the kernel forms c0 = cos^2 t e^2, c1 = sin t cos t e^2 and c3 = sin^2 t e^2
with e = e^{alpha t} from u = tan t.  ``ROTATION_TABLE`` pins the exact
values, computed with mpmath at 2000 bits and rounded to the nearest float;
the exponent is the rounded product alpha t that the kernel forms.  This
module imports no test dependency, so ``check_rotation_table`` also runs in
a fresh process under another host dispatch (numpy's SIMD targets off, or
glibc's FMA variants off), where ``tan`` and ``exp`` take other code.
"""

import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from tachys import opendyn, smallmat
from tachys.opendyn import _semigroup_coefficients, evolve_semigroup
from tachys.smallmat import PAULI_X, PAULI_Y, PAULI_Z
import support

EPS = sys.float_info.epsilon

#: (t, alpha, e^{2 alpha t}, c0, c1, c3): w t at 0 and +-1e-300, at both
#: floats around pi/2, 3 pi/2, 1e6 pi/2 and (1e6 + 1) pi/2, at -pi/2, +-1e8,
#: 0.7 and -2.5, plain and damped or fed, and at pi/2 with e^{2 alpha t}
#: past the float range where cos^2 t e^{2 alpha t} and c1 are not
ROTATION_TABLE = [
    (0.0, 0.0, 1.0, 1.0, 0.0, 0.0),
    (0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
    (1e-300, 0.0, 1.0, 1.0, 1e-300, 0.0),
    (1e-300, -0.75, 1.0, 1.0, 1e-300, 0.0),
    (-1e-300, 0.0, 1.0, 1.0, -1e-300, 0.0),
    (-1e-300, 0.5, 1.0, 1.0, -1e-300, 0.0),
    (1.5707963267948966, 0.0, 1.0, 3.749399456654644e-33, 6.123233995736766e-17, 1.0),
    (1.5707963267948966, -0.29173839723625705, 0.39990702134663, 1.4994111685494316e-33, 2.4487242682435133e-17,
     0.39990702134663),
    (1.5707963267948968, 0.0, 1.0, 2.586058456403006e-32, -1.6081226496766366e-16, 1.0),
    (1.5707963267948968, -0.29173839723625705, 0.3999070213466299, 1.0341829343283898e-32, -6.430995387922338e-17,
     0.3999070213466299),
    (4.71238898038469, 0.0, 1.0, 3.3744595109891796e-32, 1.8369701987210297e-16, 1.0),
    (4.71238898038469, -0.13129358007225425, 0.29013387057171547, 9.79044999010829e-33, 5.3296727387982573e-17,
     0.29013387057171547),
    (4.712388980384691, 0.0, 1.0, 4.962940427036498e-31, -7.044813998280222e-16, 1.0),
    (4.712388980384691, -0.13129358007225422, 0.29013387057171547, 1.4399171155129415e-31, -2.0439391527788435e-16,
     0.29013387057171547),
    (-1.5707963267948966, 0.0, 1.0, 3.749399456654644e-33, -6.123233995736766e-17, 1.0),
    (-1.5707963267948966, 0.19449226482417137, 0.5427993924278889, 2.0351717470415976e-33, -3.323687692579711e-17,
     0.5427993924278889),
    (1570796.3267948965, 0.0, 1.0, 1.0, -1.1159560906804355e-10, 1.2453579963267606e-20),
    (1570796.3267948965, -4.774645253123286e-07, 0.22313037322200358, 0.22313037322200358, -2.4900369901289367e-11,
     2.7787719451539665e-21),
    (1570796.3267948967, 0.0, 1.0, 1.0, 1.2123503458582606e-10, 1.4697933611026444e-20),
    (1570796.3267948967, -4.774645253123285e-07, 0.22313037322200358, 0.22313037322200358, 2.7051218514717884e-11,
     3.279555412220561e-21),
    (1570797.8975912232, 0.0, 1.0, 2.971024966771088e-20, 1.7236661413310548e-10, 1.0),
    (1570797.8975912232, -4.774640478485847e-07, 0.22313037322179055, 6.629259096868907e-21, 3.8460226942496185e-11,
     0.22313037322179055),
    (1570797.8975912235, 0.0, 1.0, 3.655898865887838e-21, -6.046402952076414e-11, 1.0),
    (1570797.8975912235, -4.774640478485847e-07, 0.2231303732217905, 8.157420784066738e-22, -1.3491361473461462e-11,
     0.2231303732217905),
    (100000000.0, 0.0, 1.0, 0.1320487231660432, -0.3385437311135164, 0.8679512768339568),
    (100000000.0, -7.499999925000001e-09, 0.2231301634953822, 0.029464053189395684, -0.07553931807369561,
     0.19366611030598652),
    (-100000000.0, 0.0, 1.0, 0.1320487231660432, 0.3385437311135164, 0.8679512768339568),
    (-100000000.0, 4.99999995e-09, 0.3678794448502367, 0.04857801097150657, 0.12454327985956823, 0.31930143387873017),
    (0.7, 0.0, 1.0, 0.5849835714501205, 0.49272486499423007, 0.41501642854987947),
    (0.7, -0.4411764705882353, 0.539211679500719, 0.31542997404194834, 0.26568300198530387, 0.22378170545877069),
    (-2.5, 0.0, 1.0, 0.6418310927316131, 0.4794621373315692, 0.35816890726838685),
    (-2.5, 0.14285714285714285, 0.48954165955695317, 0.3142030582910866, 0.23471669040402018, 0.17533860126586656),
    (1.5707963267948966, 232.0, math.inf, 1.2861031544153034e284, 2.1003658447655905e300, math.inf),
]


def _rotation(ts, alpha):
    """c0, c1 and c3 of the kernel at the times ``ts`` for the real root 1."""
    rows = np.empty((7, len(ts)))
    with np.errstate(over="ignore"):
        _semigroup_coefficients(np.asarray(ts, dtype=float), alpha, 1.0, 0, rows)
    return rows[0], rows[1], rows[3]


def check_rotation_table():
    """Each coefficient within 4 eps of its exact value, relative to that
    value (so also to e^{2 alpha t}); a value whose float is 0 (exactly 0, or
    below the float range) is 0, one past the float range is inf."""
    for t, alpha, e2, *want in ROTATION_TABLE:
        got = [float(c[0]) for c in _rotation([t], alpha)]
        for name, g, w in zip(("c0", "c1", "c3"), got, want):
            if w == 0.0 or math.isinf(w):
                assert g == w, (name, t, alpha, g, w)
            else:
                assert abs(g - w) <= 4.0 * EPS * abs(w), (name, t, alpha, g, w, abs(g - w) / abs(w) / EPS)
        if math.isfinite(e2):
            assert abs(got[0] + got[2] - e2) <= 4.0 * EPS * e2, (t, alpha)


def test_rotation_coefficients_match_mpmath_literals():
    check_rotation_table()


def _exact_square(e):
    """(p, q) with p + q = e^2 exactly: p the rounded square, q its rounding
    error, by Dekker's split (no fma needed)."""
    split = 134217729.0 * e
    hi = split - (split - e)
    lo = e - hi
    p = e * e
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def test_rotation_coefficients_sum_to_e_squared():
    # cos^2 + sin^2 = 1: on 10**5 seeded phases, c0 + c3 lies within 2 ulp
    # of 1 at alpha = 0 and of e^2 for the kernel's own e = exp(alpha t)
    rng = np.random.default_rng(2026)
    ts = rng.uniform(-1.0, 1.0, 10**5) * 10.0 ** rng.uniform(-3.0, 8.0, 10**5)
    c0, _, c3 = _rotation(ts, 0.0)
    assert np.max(np.abs(c0 + c3 - 1.0)) <= 2.0 * EPS
    ts = rng.uniform(-700.0, 700.0, 10**5)
    for alpha in (-0.375, 0.25):
        c0, _, c3 = _rotation(ts, alpha)
        p, q = _exact_square(np.exp(ts * alpha))
        # c0 + c3 and p agree to within a factor 2, so their difference is exact
        assert np.max(np.abs(((c0 + c3) - p) - q) / p) <= 2.0 * EPS


#: two metric-Hermitian drives as ``float.hex`` parts, real and imaginary in turn:
#: quasi_hamiltonian(0.5 X, metric_from_sqrt(1.6, 0.7 + 0.3j), 1.0) and
#: aligned_hamiltonian(metric_from_sqrt(1.6, 0.7 + 0.3j), 1.3, (1, 0), (0.6, 0.8i)), pinned as
#: their bits, so no BLAS kernel moves them (Im a0 is exactly 0 in both)
METRIC_DRIVES_HEX = (
    "0x1.a5a5a5a5a5a5bp-3 -0x1.8787878787878p-2 0x1.0f0f0f0f0f0f1p+0 -0x1.a5a5a5a5a5a59p-3 "
    "0x1.2d2d2d2d2d2d4p-2 0x1.a5a5a5a5a5a59p-3 -0x1.a5a5a5a5a5a5ap-3 0x1.8787878787878p-2",
    "0x1.796769e076643p-1 -0x1.062e4d7caf730p+0 0x1.43767df1d3417p+0 -0x1.39b503c10f3cap+0 "
    "-0x1.bfe872673aecbp-3 0x1.f7348d2b48859p-1 -0x1.796769e076641p-1 0x1.062e4d7caf730p+0",
)


def test_real_spectrum_semigroup_reaches_neither_sin_nor_cos(monkeypatch):
    # a Hermitian or metric-Hermitian generator reaches neither sin nor cos;
    # where alpha = Im a0 is exactly 0 (so for these three) it takes no exp
    # but that of k_values: per block one tan and one exp pass, and the
    # states keep their bits; the Hermitian drive's drift rate is exactly 0,
    # so its k_values are 1 and take no exp
    drives = [0.3 * PAULI_X + 0.5 * PAULI_Y + 0.2 * PAULI_Z]
    drives += [support.hex_array(parts).reshape(2, 2) for parts in METRIC_DRIVES_HEX]
    rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])
    ts = np.linspace(-3.0, 9.0, opendyn._BLOCK + 5)
    want = [evolve_semigroup(h, rho0, ts) for h in drives]
    calls = []
    monkeypatch.setattr(opendyn, "np", support.Spy(calls, forbid=("sin", "cos"), count=("tan", "exp")))
    monkeypatch.setattr(smallmat, "np", support.Spy(calls, forbid=("sin", "cos"), count=("tan", "exp")))
    expected = [["tan", "tan"], ["exp", "exp", "tan", "tan"], ["exp", "exp", "tan", "tan"]]
    for h, w, passes in zip(drives, want, expected, strict=True):
        calls.clear()
        got = evolve_semigroup(h, rho0, ts)
        assert got.rhos.tobytes() == w.rhos.tobytes()
        assert got.trace_values.tobytes() == w.trace_values.tobytes()
        assert sorted(calls) == passes


def test_rotation_table_holds_under_other_host_dispatch():
    # the same bounds in fresh processes: with numpy's dispatch targets off
    # (tan and exp fall back to libm; the child checks that none is left),
    # and with glibc's non-FMA libm variants; each environment variable acts
    # on its child process only; the child's disabled targets join any this
    # process inherited, which are off here already and must stay off there
    check = "import test_semigroup_rotation as t\nt.check_rotation_table()\n"
    targets = support.tool("report_digest").dispatch_targets()
    disabled = " ".join(filter(None, [os.environ.get("NPY_DISABLE_CPU_FEATURES"), *targets]))
    none_left = "import support\nassert not support.tool('report_digest').dispatch_targets()\n"
    hosts = [
        ({"NPY_DISABLE_CPU_FEATURES": disabled}, check + none_left),
        ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX"}, check),
    ]
    start = time.perf_counter()
    for host, code in hosts:
        proc = support.fresh_python("-c", code, env=host, path=[Path(__file__).resolve().parent])
        assert proc.returncode == 0, (host, proc.stderr)
    assert time.perf_counter() - start < 3.0

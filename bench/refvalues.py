"""Independent reference values for the eval_kernel workload.

Every value here comes from mpmath at raised working precision, never from
umbralint.  The checker (accuracy.py) compares a program output with the
reference at the accuracy the function advertises.

    python3 bench/refvalues.py           run the checker's self-test
    python3 bench/refvalues.py --stdin   read a JSON list of [kind, args] and
                                         write {"self_test": [...], "refs":
                                         [[re, im] or an error text, ...]}

The benchmark uses the second form from a child process, so that mpmath
stays out of the memory of the process it measures.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

from accuracy import check


def _b_nu(nu, x):
    # sum_k Gamma(nu+k+1)/Gamma(2nu+k+1) x^k/k! is the Kummer function
    return mp.gamma(nu + 1) / mp.gamma(2 * nu + 1) * mp.hyp1f1(nu + 1, 2 * nu + 1, x)


def _pseudo_trig(k, m, x):
    # sum_r (-1)^r x^(mr+k)/(mr+k)! through the m roots of -1
    total = mp.mpf(0)
    for j in range(m):
        w = mp.expjpi(mp.mpf(2 * j + 1) / m)
        total += w ** (-k) * mp.exp(w * x)
    return mp.re(total) / m


# The three finite sums below cancel heavily for large n and mixed signs, so
# they run with guard digits growing with n.

def _hermite_higher(n, m, u, v):
    with mp.workdps(40 + 2 * n):
        return +sum(mp.factorial(n) / (mp.factorial(n - m * k) * mp.factorial(k))
                    * mp.mpf(u) ** (n - m * k) * mp.mpf(v) ** k
                    for k in range(n // m + 1))


def _hermite_hybrid(n, m, x, y):
    with mp.workdps(40 + 2 * n):
        return +sum(mp.mpf(x) ** (n - m * k) * mp.mpf(y) ** k
                    / (mp.factorial(k) * mp.factorial(n - m * k) ** 2)
                    for k in range(n // m + 1))


def _truncated_e(n, m, x, y):
    with mp.workdps(40 + 2 * n):
        return +sum(mp.mpf(x) ** (n - m * k) * mp.mpf(y) ** k / mp.factorial(n - m * k) ** 2
                    for k in range(n // m + 1))


def _negligible(term, total, digits):
    return abs(term) <= mp.mpf(10) ** -digits * max(abs(total), mp.mpf(10) ** -300)


def _hermite_tricomi(n, m, x, y):
    # Exchanging the two sums of sum_k (-1)^k H_k(x, y)/(k! (n+k)!) gives
    # sum_j ((-1)^m y)^j / j! * C_{n+mj}(x) with the Tricomi function
    # C_v(x) = 0F1(; v+1; -x) / v!.
    z = (-1) ** m * mp.mpf(y)
    total = mp.mpf(0)
    j = 0
    while True:
        v = n + m * j
        term = z ** j / mp.factorial(j) * mp.hyp0f1(v + 1, -x) / mp.factorial(v)
        total += term
        if j > 5 and _negligible(term, total, 40):
            return total
        j += 1


def _fresnel_bessel(nu, alpha, beta):
    # Expanding J_{2nu} termwise against the Gaussian moments of
    # x e^{-p x^2} at p = -i beta gives
    # (alpha/2)^{2nu} p^{-(nu+1)}/2 * Gamma(nu+1)/Gamma(2nu+1)
    #   * 1F1(nu+1; 2nu+1; -alpha^2/(4p)), principal branch.
    p = mp.mpc(0, -beta)
    return (mp.mpf(alpha) / 2) ** (2 * nu) * p ** (-(nu + 1)) / 2 * _b_nu(nu, -alpha ** 2 / (4 * p))


def _struve_halfline(nu, b):
    if nu == -1.0:
        return mp.mpf(0)
    return -1 / (b * mp.tan(mp.pi * nu / 2))


def _bessel_gauss_dilation(n, x):
    # sqrt(pi) sum_k (-1)^k (x/2)^{2k+n} / (k! (k+n)! sqrt(2k+n)), summed
    # with enough guard digits for its cancellation
    with mp.workdps(40 + int(abs(x))):
        h = mp.mpf(x) / 2
        total = mp.mpf(0)
        k = 0
        while True:
            term = (-1) ** k * h ** (2 * k + n) / (mp.factorial(k) * mp.factorial(k + n)
                                                   * mp.sqrt(2 * k + n))
            total += term
            if k > abs(x) and _negligible(term, total, 45):
                return mp.sqrt(mp.pi) * total
            k += 1


def _bessel_generating(x, t, m):
    total = mp.mpf(0)
    n = 0
    while True:
        term = mp.mpf(t) ** n / mp.factorial(n) * mp.besselj(m * n, 2 * x)
        total += term
        if n > 2 * abs(x) + 5 and _negligible(term, total, 40):
            return total
        n += 1


def _mellin_master(series, nu):
    if series == "exp":
        return mp.gamma(nu)
    return mp.pi / mp.sin(mp.pi * nu)


def _mellin_master_strided(nu, b, s):
    # Mellin transform of the Struve function H_nu(b x) at exponent s
    mu = s + nu
    return (mp.mpf(b) ** (-s) * mp.gamma(mu / 2) * mp.mpf(2) ** (s - 1)
            * mp.tan(mp.pi * mu / 2) / mp.gamma((nu - s) / 2 + 1))


def _apply_mellin_multiplier(*args):
    if args[0] == "borel":
        # integral of e^{-t} J_n(x t) over t > 0 (Laplace transform of J_n)
        _, n, x = args
        r = mp.sqrt(1 + mp.mpf(x) ** 2)
        return (r - 1) ** n / (mp.mpf(x) ** n * r)
    # integral of u^{a-1} (1-u)^{b-1} J_n(x u) over (0, 1), as a 2F3
    _, n, x, a, b = args
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    scale = (x / 2) ** n * mp.gamma(b) / mp.factorial(n) * mp.gamma(a + n) / mp.gamma(a + b + n)
    upper = [(a + n) / 2, (a + n + 1) / 2]
    lower = [n + 1, (a + b + n) / 2, (a + b + n + 1) / 2]
    return scale * mp.hyper(upper, lower, -x ** 2 / 4)


def _transforms_evaluate(*args):
    if args[0] == "borel":
        # exponential moment of c_k of order m: x^k / (1 + x^m) for |x| < 1
        _, k, m, x = args
        x = mp.mpf(x)
        return x ** k / (1 + x ** m)
    # Euler-kernel average of e^{-u x}: B(a, b) 1F1(a; a+b; -x)
    _, a, b, x = args
    return mp.beta(a, b) * mp.hyp1f1(a, a + b, -x)


REFERENCES = {
    "gamma": mp.gamma,
    "beta": mp.beta,
    "bessel_j": mp.besselj,
    "bessel_i": mp.besseli,
    "struve_h": mp.struveh,
    "b_nu": _b_nu,
    "pseudo_trig": _pseudo_trig,
    "hermite_higher": _hermite_higher,
    "hermite_hybrid": _hermite_hybrid,
    "truncated_e": _truncated_e,
    "hermite_tricomi": _hermite_tricomi,
    "fresnel_bessel": _fresnel_bessel,
    "struve_halfline": _struve_halfline,
    "struve_moment": lambda nu: mp.pi / (mp.mpf(2) ** nu * mp.gamma(1 + nu)),
    "bessel_gauss_dilation": _bessel_gauss_dilation,
    "lorentz_gauss": lambda x: mp.pi / 2 * mp.hyp2f2(0.75, 1.25, 1, 1.5, -mp.mpf(x) ** 2),
    "bessel_generating": _bessel_generating,
    "mellin_master": _mellin_master,
    "mellin_master_strided": _mellin_master_strided,
    "apply_mellin_multiplier": _apply_mellin_multiplier,
    "transforms_evaluate": _transforms_evaluate,
}


def reference(kind, args) -> complex:
    """Reference value of one eval input as a Python complex."""
    with mp.workdps(30):
        value = REFERENCES[kind](*args)
    return complex(value)


# Outputs of the program at the Baseline cases of ROADMAP.md, which the
# checker must flag, and values it must accept.
_MUST_FLAG = (
    ("bessel_j", (0.0, 40.0), -0.21512077265738103),
    ("struve_h", (0.0, 30.0), -0.09304390594353089),
    ("lorentz_gauss", (6.0,), 0.04495474514344257),
    ("lorentz_gauss", (10.0,), -1.6431661369892586e+25),
    ("b_nu", (0.5, -40.0), 6.512176011583116),
)
_MUST_PASS = (
    ("gamma", (0.5,), 1.7724538509055159),
    ("struve_moment", (0.0,), math.pi),
    ("fresnel_bessel", (0.0, 1.0, 1.0), complex(0.12370197962726147, 0.48445621085532237)),
    ("mellin_master", ("rat", 0.5), math.pi),
    ("mellin_master_strided", (-0.5, 1.0, 1.0), 1.0),
    ("bessel_j", (0.0, 40.0), 0.00736689058423729),
    ("struve_h", (0.0, 30.0), -0.09609842155416211),
    ("lorentz_gauss", (6.0,), 0.044656020091762366),
    ("lorentz_gauss", (10.0,), 0.02015301905124768),
    ("b_nu", (0.5, -40.0), 0.0020153595243972314),
)


def self_test():
    """Return a list of problems; empty when the checker behaves."""
    problems = []
    for kind, args, got in _MUST_PASS:
        ok, err = check(kind, got, reference(kind, args))
        if not ok:
            problems.append(f"rejects correct {kind}{args} = {got!r} (error {err:.2e})")
    for kind, args, got in _MUST_FLAG:
        ok, err = check(kind, got, reference(kind, args))
        if ok:
            problems.append(f"accepts wrong {kind}{args} = {got!r} (error {err:.2e})")
    return problems


def serve(stream_in, stream_out):
    """Answer a JSON list of [kind, args] with their reference values."""
    refs = []
    for kind, args in json.load(stream_in):
        try:
            value = reference(kind, args)
        except Exception as exc:  # reported by the caller as unchecked
            refs.append(repr(exc))
            continue
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            refs.append("non-finite reference")
            continue
        refs.append([value.real, value.imag])
    json.dump({"self_test": self_test(), "refs": refs}, stream_out)


if __name__ == "__main__":
    if sys.argv[1:] == ["--stdin"]:
        serve(sys.stdin, sys.stdout)
        sys.exit(0)
    found = self_test()
    for line in found:
        print("FAIL", line)
    print("self-test", "failed" if found else "passed",
          f"({len(_MUST_PASS)} accepted, {len(_MUST_FLAG)} flagged cases)")
    sys.exit(1 if found else 0)

"""Regenerate povm_reference.json and povm_reference_n5.json: POVM elements
at 40 digits.

Both contexts use a balanced s1_multi one-sector partition and two counters,
ideal or with transmissions (0.8, 0.7). povm_reference.json is the README
quick-start context: the 16 probes of ``design-gamma --n 3 --seed 7``,
N_c = 6. It holds probe 6 (|gamma| = 0.31, which overflows a counter with
probability near 1e-13) and probe 1 (|gamma| = 2.72, near 0.08).
povm_reference_n5.json holds N = 5, N_c = 9 probes of
``design-gamma --n 5``: seed 3 probe 21 and seed 1 probe 29, the probes of
largest |gamma| (2.7-3.0) among seeds 0-5, whose overflow elements carry the
largest rounding of the closed forms. For each probe a file holds the block
without auxiliary photons of every element: the in-range counts (k, l),
k, l <= N_c, and the overflows (k, >), (>, l) and (>, >).

The reference is computed from the optics alone, not from the closed forms of
``wfhtomo.povm``: mode a in Fock state |n> meets the probe |gamma> on a beam
splitter, so that counter 1 reads A = eta a + zeta b and counter 2 reads
B = zeta a - eta b, with a = eta A + zeta B and b = zeta A - eta B. The output
(eta A^dag + zeta B^dag)^n / sqrt(n!) |zeta gamma>_A |-eta gamma>_B has
amplitudes c_n[n1, n2] over photon numbers, and a counter of transmission nu
reads k of n1 photons with probability C(n1, k) nu^k (1 - nu)^(n1 - k), so
E[m, n] = sum_{n1, n2} P(k | n1) P(l | n2) conj(c_m[n1, n2]) c_n[n1, n2]. The
sums run to 60 photons per mode, past which the masses are below 1e-45.

Each element is stored as its (N + 1) x (N + 1) block's upper triangle, row by
row, real and imaginary parts of each entry (the imaginary part of a diagonal
entry is 0). Run from the repository root with mpmath installed (about a
minute):

    python3 tests/data/gen_povm_reference.py
"""
import json
import pathlib
import sys

import mpmath

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from wfhtomo.probes import design_gamma  # noqa: E402

mpmath.mp.dps = 40
CUT = 60
LOSSES = (None, (0.8, 0.7))
# file name, N, N_c, and the (design-gamma seed, probe) pairs it holds
CONTEXTS = (("povm_reference.json", 3, 6, ((7, 6), (7, 1))),
            ("povm_reference_n5.json", 5, 9, ((3, 21), (1, 29))))


def amplitudes(gamma, N):
    """c[n][n1][n2] for n = 0..N, n1, n2 = 0..CUT."""
    eta = zeta = mpmath.sqrt(mpmath.mpf(1) / 2)
    alphas = (zeta * gamma, -eta * gamma)

    def raised(n1, j, alpha):  # <n1| (a^dag)^j |alpha>
        if n1 < j:
            return mpmath.mpc(0)
        return (mpmath.exp(-abs(alpha) ** 2 / 2) * alpha ** (n1 - j)
                * mpmath.sqrt(mpmath.factorial(n1)) / mpmath.factorial(n1 - j))

    f = [[[raised(n1, j, alpha) for j in range(N + 1)] for n1 in range(CUT + 1)]
         for alpha in alphas]
    return [[[sum(mpmath.binomial(n, j) * eta ** j * zeta ** (n - j) * f[0][n1][j] * f[1][n2][n - j]
                  for j in range(n + 1)) / mpmath.sqrt(mpmath.factorial(n))
              for n2 in range(CUT + 1)] for n1 in range(CUT + 1)] for n in range(N + 1)]


def readout(nu, N_C):
    """P[k][n1]: k = 0..N_C counts, then the overflow, of n1 photons at transmission nu."""
    nu = mpmath.mpf(1) if nu is None else mpmath.mpf(nu)
    p = [[mpmath.binomial(n1, k) * nu ** k * (1 - nu) ** (n1 - k) if k <= n1 else mpmath.mpf(0)
          for n1 in range(CUT + 1)] for k in range(CUT + 1)]
    return p[:N_C + 1] + [[sum(p[k][n1] for k in range(N_C + 1, CUT + 1))
                           for n1 in range(CUT + 1)]]


def elements(c, loss, N, N_C):
    """Upper triangles of the elements, in the order (k, l) over 0..N_C then
    ">" at each counter, counter 1 major."""
    p1, p2 = readout(loss and loss[0], N_C), readout(loss and loss[1], N_C)
    pairs = [(m, n) for m in range(N + 1) for n in range(m, N + 1)]
    x = {(m, n): [[mpmath.conj(c[m][n1][n2]) * c[n][n1][n2] for n2 in range(CUT + 1)]
                  for n1 in range(CUT + 1)] for m, n in pairs}
    # counter 2 summed first: y[l, (m, n)][n1] = sum_n2 P(l | n2) x[m, n][n1][n2]
    y = {(l, pair): [mpmath.fsum(p2[l][n2] * row[n2] for n2 in range(CUT + 1)) for row in x[pair]]
         for l in range(N_C + 2) for pair in pairs}
    out = []
    for k in range(N_C + 2):
        for l in range(N_C + 2):
            flat = []
            for m, n in pairs:
                v = mpmath.fsum(p1[k][n1] * y[l, (m, n)][n1] for n1 in range(CUT + 1))
                flat += [float(v.real)] if m == n else [float(v.real), float(v.imag)]
            out.append(flat)
    return out


def main():
    for name, N, N_C, probes in CONTEXTS:
        cases = []
        for seed, s in probes:
            g = complex(design_gamma(N, seed=seed).gammas[s])
            c = amplitudes(mpmath.mpc(g.real, g.imag), N)
            for loss in LOSSES:
                cases.append({"seed": seed, "probe": s, "gamma": [g.real, g.imag], "loss": loss,
                              "elements": elements(c, loss, N, N_C)})
        out = pathlib.Path(__file__).with_name(name)
        out.write_text(json.dumps({"N": N, "n_c": N_C, "cases": cases}) + "\n")
        print(f"wrote {len(cases)} cases to {out}")


if __name__ == "__main__":
    main()

"""Write tests/data/R_references.json: high-precision values of E T_j(a - bY).

R_j(x) = pref_j sqrt(2 pi) E T_j(a - bY) with Y ~ N(0, 1), a = gamma x/sqrt 2
and b^2 = (1 - gamma^2)/2.  This script computes the Gaussian average with
mpmath, as a y-quadrature of T_j's definition,

    T_j(v) = [sum_{k<j} H_k(v)^2/(2^k k!)] e^{-v^2/2}
             - H_j(v) I_{j-1}(v)/(2^j (j-1)!),
    I_n(v) = int_v^inf e^{-t^2/2} H_n(t) dt
           = 2 e^{-v^2/2} H_{n-1}(v) + 2(n-1) I_{n-2}(v),

with I_0 = sqrt(2 pi) (1 - Phi(v)) and I_1 = 2 e^{-v^2/2}: neither the
package's Hermite kernel nor its closed form.  The y-integral is summed with
Gauss-Legendre rules on panels 0.25 wide, over
[min(0, y*) - 24, max(0, y*) + 24], where y* = ab/(1 + b^2) is where the
integrand's mass sits once x is large.  Looser layouts gave references that
were wrong but agreed across precisions.

Each value is computed twice, with 12 nodes per panel at 40 digits and with
24 nodes per panel at 60 digits, and kept only where the two agree to 1e-25
relative.  At every (gamma, x) written, both passes must also match the exact
averages E T_1(a + bY) = sigma T_1(a/sigma) and E T_2(a + bY) =
T_2(a/sigma)/sigma, sigma^2 = 1 + b^2, to 1e-20, or the script stops.

The "wide" entries are E T_j(a - bY) at the same a and the wider b^2 =
sigma^2/2, sigma = hypot(gamma (2|rho'|)^{-1/2}, sqrt(1 - gamma^2)), of
``bounds.sphere_pbar``'s shift average, on the two models whose b^2 is above
1/2 (2 and 3.67), with the same passes and checks.

Tier-1 tests read only the JSON file, so they need no mpmath.  Run from the
repository root (it takes several minutes):

    python tests/make_R_references.py
"""
import json
import math
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
from gaussmax import bounds, model  # noqa: E402  (as the package rounds)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                   "R_references.json")
# The gamma < 1 models of tests/test_bounds.py, as (c, beta) of make_rational.
MODELS = {"LOW_GAMMA": (1.0, 0.2), "RAT": (0.8, 1.0),
          "NEAR_ONE": (1.0, 1e4), "RAT_0.05": (0.05, 0.5)}
GRID = [-20.0 + 2.5 * i for i in range(25)]        # -20 .. 40
ORDERS, HIGH_ORDERS, HIGH_TOP = (1, 2, 3, 5, 8, 20), (40, 60), 35.0
FAR = {"RAT_0.05": ([57.5, 66.4, 84.5], (1, 2, 3))}
AGREE, EXACT, WIDTH, PAD = mp.mpf("1e-25"), mp.mpf("1e-20"), 0.25, 24
# The WIDE_SHIFT models of tests/test_bounds.py and the sphere orders d - 1.
WIDE = {"RAT_0.1": (0.1, 0.5), "RAT_0.05": (0.05, 0.5)}
WIDE_ORDERS = (1, 2, 4, 11)
WIDE_GRID = [-6.0, -4.0, -2.0, 0.5, 1.5, 3.0, 4.5, 6.0, 8.0, 10.0, 12.0, 15.0]


def T_values(orders, v):
    """{j: T_j(v)} for each j of ``orders``, from the definition above."""
    top = max(orders)
    H = [mp.mpf(1), 2 * v]
    for k in range(1, top):
        H.append(2 * v * H[k] - 2 * k * H[k - 1])
    e = mp.exp(-v * v / 2)
    I = [mp.sqrt(2 * mp.pi) * mp.erfc(v / mp.sqrt(2)) / 2, 2 * e]
    for n in range(2, top):
        I.append(2 * e * H[n - 1] + 2 * (n - 1) * I[n - 2])
    out, squares, inv = {}, mp.mpf(0), mp.mpf(1)    # inv = 1/(2^k k!)
    for j in range(1, top + 1):
        squares += H[j - 1] ** 2 * inv
        inv /= 2 * j
        if j in orders:
            out[j] = squares * e - H[j] * I[j - 1] * inv * j
    return out


def averages(orders, gamma, x, dps, degree, b2=None):
    """{j: E T_j(a - bY)}, with 3 2^(degree-1) Gauss-Legendre nodes per
    panel, at ``dps`` digits; also checks the exact j = 1, 2 averages.
    b^2 is (1 - gamma^2)/2 unless given."""
    with mp.workdps(dps):
        gamma, x = mp.mpf(gamma), mp.mpf(x)
        a, b = gamma * x / mp.sqrt(2), mp.sqrt((1 - gamma ** 2) / 2)
        if b2 is not None:
            b = mp.sqrt(mp.mpf(b2))
        peak = a * b / (1 + b * b)
        lo, hi = min(0, peak) - PAD, max(0, peak) + PAD
        panels = int(mp.ceil((hi - lo) / WIDTH))
        rule = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(
            degree, mp.mp.prec)
        need = sorted(set(orders) | {1, 2})
        total = dict.fromkeys(need, mp.mpf(0))
        edges = [lo + (hi - lo) * p / panels for p in range(panels + 1)]
        for left, right in zip(edges[:-1], edges[1:]):
            half, mid = (right - left) / 2, (right + left) / 2
            for t, w in rule:
                y = mid + half * t
                weight = w * half * mp.npdf(y)
                for j, T in T_values(need, a - b * y).items():
                    total[j] += weight * T
        sigma = mp.sqrt(1 + b * b)
        z = a / sigma
        exact = {1: sigma * mp.sqrt(2 * mp.pi) * (mp.npdf(z)
                                                  - z * mp.ncdf(-z)),
                 2: 2 * mp.exp(-z * z / 2) / sigma}
        for j, want in exact.items():
            if abs(total[j] - want) > EXACT * abs(want):
                sys.exit(f"E T_{j} at gamma={gamma}, x={x}, {dps} digits: "
                         f"{total[j]} against the exact {want}")
        return {j: +total[j] for j in orders}


def agreed(name, orders, gamma, x, b2=None):
    """[[name, j, x, value]] for each j of ``orders`` whose two passes
    agree."""
    coarse = averages(orders, gamma, x, 40, 3, b2)
    fine = averages(orders, gamma, x, 60, 4, b2)
    rows = []
    for j in orders:
        if abs(coarse[j] - fine[j]) > AGREE * abs(fine[j]):
            print(f"dropped {name} j={j} x={x}: {coarse[j]} vs {fine[j]}",
                  file=sys.stderr)
            continue
        rows.append([name, j, x, mp.nstr(fine[j], 30)])
    print(f"{name} x={x}", file=sys.stderr)
    return rows


def main():
    rows, models = [], {}
    for name, (c, beta) in MODELS.items():
        gamma = model.make_rational(c, beta).gamma
        models[name] = {"c": c, "beta": beta, "gamma": gamma}
        far_xs, far_orders = FAR.get(name, ([], ()))
        for x in GRID + far_xs:
            orders = ORDERS + (HIGH_ORDERS if x <= HIGH_TOP else ())
            if x in far_xs:
                orders = far_orders
            rows += agreed(name, orders, gamma, x)
    wide_rows, wide_models = [], {}
    for name, (c, beta) in WIDE.items():
        m = model.make_rational(c, beta)
        gamma, s = bounds._gamma_s(m)
        sigma = math.hypot(gamma * (2.0 * abs(m.rho1_0)) ** -0.5, s)
        b2 = sigma * sigma / 2.0
        wide_models[name] = {"c": c, "beta": beta, "gamma": gamma, "b2": b2}
        for x in WIDE_GRID:
            wide_rows += agreed(name, WIDE_ORDERS, gamma, x, b2)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump({"quantity": "E T_j(gamma x/sqrt 2 - b Y), b^2 = "
                               "(1 - gamma^2)/2, Y ~ N(0, 1)",
                   "models": models, "values": rows,
                   "wide": {"quantity": "E T_j(gamma x/sqrt 2 - b Y), b^2 "
                                        "as given, Y ~ N(0, 1)",
                            "models": wide_models, "values": wide_rows}},
                  f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

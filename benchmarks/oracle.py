"""Expected values computed without the linnij package.

A polynomial here is a dict from exponent tuples to Fractions.  The code is
deliberately small and independent of linnij: it builds the generalized
families from their closed forms, multiplies out the block characteristic
polynomial, checks left-symmetry of integer structure constants, and reads
the rational polynomials the CLI prints.
"""

from fractions import Fraction


def var(n, i, coeff=1):
    exps = [0] * n
    exps[i] = 1
    return {tuple(exps): Fraction(coeff)}


def add(*polys):
    out = {}
    for p in polys:
        for exps, coeff in p.items():
            total = out.get(exps, 0) + coeff
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
    return out


def scale(p, factor):
    return {e: c * factor for e, c in p.items()} if factor else {}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            total = out.get(exps, 0) + c1 * c2
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
    return out


def format_poly(p, n):
    """Text the CLI's parser accepts; term order is irrelevant to it."""
    if not p:
        return "0"
    pieces = []
    for exps, coeff in sorted(p.items(), reverse=True):
        factors = [("x%d" % (i + 1)) + ("^%d" % e if e > 1 else "")
                   for i, e in enumerate(exps) if e]
        mag = abs(coeff)
        atom = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        pieces.append(("-" if coeff < 0 else "+") + " " + atom)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def parse_poly(text, n):
    """Read a rational polynomial as printed by the CLI over x1..xn."""
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for chunk in (" + " + text).replace(" - ", " + -").split(" + ")[1:]:
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff, chunk = -coeff, chunk[1:]
        exps = [0] * n
        for factor in chunk.split("*"):
            if factor.startswith("x"):
                name, _, power = factor.partition("^")
                exps[int(name[1:]) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        out = add(out, {tuple(exps): coeff})
    return out


# -- generalized families -----------------------------------------------------


def _matrix(n):
    return [[{} for _ in range(n)] for _ in range(n)]


def family_L1(n):
    """Operator and sigmas of the L1 family in n variables."""
    m = _matrix(n)
    for i in range(n):
        m[i][0] = var(n, i, Fraction(i - n, n))
    for i in range(n - 1):
        m[i][i + 1] = add(m[i][i + 1], var(n, n - 1))
    for i in range(n - 2):
        m[i][n - 1] = add(m[i][n - 1], var(n, i + 1, i + 1))
    sigmas = []
    for i in range(1, n):
        exps = [0] * n
        exps[i - 1] += 1
        exps[n - 1] += i - 1
        sigmas.append({tuple(exps): Fraction(1)})
    sigmas.append({(0,) * (n - 1) + (n,): Fraction(1, n)})
    return m, sigmas


def family_L2(n):
    """Operator and sigmas of the L2 family in n variables.

    sigma_i = (-1)^i (x_{i-1} + x_i) x_n^(i-1), where sigma_1 trades its
    missing x_0 for x_n and sigma_n has no x_n summand.
    """
    m = _matrix(n)
    for i in range(n - 1):
        m[i][0] = var(n, i)
    for i in range(n - 2):
        m[i][i + 1] = add(m[i][i + 1], var(n, n - 1, -1))
        m[i][n - 1] = add(m[i][n - 1], var(n, i, -i), var(n, i + 1, -(i + 1)))
    m[n - 2][n - 1] = add(m[n - 2][n - 1], var(n, n - 2, -(n - 2)))
    m[n - 1][n - 1] = var(n, n - 1)
    sigmas = []
    for i in range(1, n + 1):
        sign = 1 if i % 2 == 0 else -1
        s = var(n, n - 1, sign) if i == 1 else {}
        for j in (i - 2, i - 1):
            if 0 <= j and not (j == i - 1 and i == n):
                exps = [0] * n
                exps[j] += 1
                exps[n - 1] += i - 1
                s = add(s, {tuple(exps): Fraction(sign)})
        sigmas.append(s)
    return m, sigmas


def family_blocks(n, signs):
    """Operator and sigmas of the blocks family, the sigmas read off

    chi(t) = (t - x_n) * prod_j (t^2 - 2 x_{2j+1} t + 2 x_{2j+1} x_n - x_n^2
             - s_j x_{2j+2}^2) * (t - 2 x_{n-1} + x_n)  [last factor: even n]

    as det(t Id - L) = t^n + sigma_1 t^(n-1) + ... + sigma_n.
    """
    m = _matrix(n)
    xn = var(n, n - 1)
    for j, s in enumerate(signs):
        r = 2 * j
        m[r][r] = add(var(n, r, 2), scale(xn, -1))
        m[r][r + 1] = var(n, r + 1, s)
        m[r + 1][r] = var(n, r + 1)
        m[r + 1][r + 1] = xn
        m[r][n - 1] = add(xn, var(n, r, -1))
    if n % 2 == 0:
        m[n - 2][n - 2] = add(var(n, n - 2, 2), scale(xn, -1))
        m[n - 2][n - 1] = add(xn, var(n, n - 2, -1))
    m[n - 1][n - 1] = xn
    # Work in n+1 variables, t last.
    w = n + 1
    t = var(w, n)
    x = [var(w, i) for i in range(n)]
    chi = add(t, scale(x[n - 1], -1))
    for j, s in enumerate(signs):
        a, b = x[2 * j], x[2 * j + 1]
        block = add(mul(t, t), scale(mul(a, t), -2), scale(mul(a, x[n - 1]), 2),
                    scale(mul(x[n - 1], x[n - 1]), -1), scale(mul(b, b), -s))
        chi = mul(chi, block)
    if n % 2 == 0:
        chi = mul(chi, add(t, scale(x[n - 2], -2), x[n - 1]))
    sigmas = [{} for _ in range(n)]
    for exps, coeff in chi.items():
        if exps[n] < n:
            sigmas[n - 1 - exps[n]][exps[:n]] = coeff
    return m, sigmas


# -- left-symmetric algebras --------------------------------------------------


def draw_structure_constants(rng, n, density):
    """Integer structure constants a[i][j][k] in [-2, 2], some zeroed."""
    return [[[0 if density < 1.0 and rng.random() > density
              else rng.randint(-2, 2)
              for _ in range(n)] for _ in range(n)] for _ in range(n)]


def is_left_symmetric(a):
    """Associator symmetric in its first two arguments on every basis triple."""
    n = len(a)

    def assoc(i, j, k):
        return [sum(a[i][j][s] * a[s][k][m] - a[j][k][s] * a[i][s][m]
                    for s in range(n)) for m in range(n)]

    return all(assoc(i, j, k) == assoc(j, i, k)
               for i in range(n) for j in range(n) for k in range(n))


def operator_rows(a):
    """Right-multiplication operator: entry (k, i) = sum_j a[i][j][k] x_j."""
    n = len(a)
    return [[format_poly({tuple(int(m == j) for m in range(n)): Fraction(a[i][j][k])
                          for j in range(n) if a[i][j][k]}, n)
             for i in range(n)] for k in range(n)]

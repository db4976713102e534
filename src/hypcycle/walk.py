"""The run walk: elements of PSL2(Z) read straight into the ambient
coordinates of a LocalQuotient (homology), with no chain built.

A word is a tuple of letters ('S', 1), ('U', 1), ('U', 2), reduced: no
two adjacent letters on the same generator.  The reduced word of an
element comes as runs (``word_runs``): letters and powers ('T', q)
read off the quotients of a nearest-integer Euclidean reduction, so a
word of n letters costs one step per quotient, not per letter.

``RunSums``, one per LocalQuotient (``LocalQuotient.runs``), reads the
steps the quotient builds whole at its k and modulus
(homology.letter_steps) and walks the runs T^q of the element's word
along the T-orbits, each built whole when a run first enters it, with
its prefix sums, the indices each step moves and its twists rho(h), h
the product of the step elements so far; whole laps take closed-form
sums, and single letters sum their deposits per block as they are
made.  A cycle z(gamma) (homology.cycle_of) and each conjugated term of
a Hecke image are read by the same walk.  It carries only the columns
it is applied to: a cycle walks q_gamma^k as one column, and a
conjugated element the vectors of the classes that use it, unless they
are 2k+1 or more (see hecke.conj_star); then it carries its
(2k+1)-square map.  Only cycles and Hecke images walk, so ``h1`` never
loads this module.
"""

from math import comb
from operator import add, mul, sub

from .intlinalg import compose, identity
from .psl2 import I
from .symspace import rho

# the letters of T = S*U and of T^-1 = U^2*S
T_LETTERS = {1: (("S", 1), ("U", 1)), -1: (("U", 2), ("S", 1))}


def _last_letter(runs):
    gen, e = runs[-1]
    if gen == "T":
        return T_LETTERS[1 if e > 0 else -1][1]
    return gen, e


def _push_letter(runs, gen, e):
    """Append a letter to a reduced run list, merging it with the last
    letter; a run gives up its last letter to the merge."""
    if runs and _last_letter(runs)[0] == gen:
        top, q = runs.pop()
        if top == "T":
            s = 1 if q > 0 else -1
            if q != s:
                runs.append(("T", q - s))
            runs.append(T_LETTERS[s][0])
            q = 1  # the run's last letter, U or S
        e += q
    e %= 2 if gen == "S" else 3
    if e:
        runs.append((gen, e))


def _push_run(runs, q):
    """Append T^q to a reduced run list: while the first letter of T^q
    merges with the last letter, one factor T^(+-1) goes letter by
    letter; the rest is one run."""
    s = 1 if q > 0 else -1
    while q and runs and _last_letter(runs)[0] == T_LETTERS[s][0][0]:
        for gen, e in T_LETTERS[s]:
            _push_letter(runs, gen, e)
        q -= s
    if q:
        runs.append(("T", q))


def word_runs(g):
    """The reduced word in S, U evaluating to g in PSL2(Z), as runs: a
    tuple of letters and runs ('T', q), q != 0, a run standing for
    T^q, spelled (S U)^q for q > 0 and (U^2 S)^-q for q < 0.

    Euclidean reduction on the bottom row: while c != 0, split off
    T^q, q the nearest integer to a/c, and a swap by S; the tail is a
    power of T.  Each quotient is one run, and only the letters where a
    run meets the next S merge (S S = 1, U U = U^2, U^2 U^2 = U).  After
    the first, every quotient has |q| >= 2, and a merge takes at most
    one factor T^(+-1) off each end of a run.
    """
    runs = []
    a, b, c, d = g.key()
    while c:
        q, r = divmod(a, c)
        if 2 * abs(r) > abs(c):
            q += 1
        _push_run(runs, q)
        _push_letter(runs, "S", 1)
        # g <- S^-1 * T^-q * g, with S^-1 = S in PSL2(Z)
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    # now +-(1, m; 0, 1): a = d = +-1, so the T-power is b/a = b*a
    _push_run(runs, b * a)
    return tuple(runs)


def _add_rows(acc, pairs, M):
    """acc[idx] += row M for the pairs (idx, row), M None standing for
    the identity."""
    cols = None if M is None else list(zip(*M))
    for idx, row in pairs:
        r = row if cols is None else [sum(map(mul, row, c)) for c in cols]
        acc[idx] = list(map(add, acc[idx], r)) if idx in acc else r


def lap_sums(P, n, d, powers, modulus=None):
    """(S_n, P^n), S_n = I + P + ... + P^(n-1), for a d x d matrix P (None
    for the identity) with N = P - I nilpotent, N^d = 0, like rho of a
    parabolic element.  As P^j = sum_i C(j, i) N^i, S_n is the sum of
    C(n, i+1) N^i and P^n that of C(n, i) N^i over i < min(n+1, d).
    ``powers`` holds the N^i built so far (empty at first) and grows to
    N^min(n, d-1); reduced mod m if a modulus is given, P^n None if P is."""
    if not powers:  # N^0 and N
        powers += [identity(d), [[x - (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(P or identity(d))]]
    top = min(n, d - 1)
    while len(powers) <= top:
        powers.append(compose(powers[1], powers[-1], modulus))
    S, Pn = ([[0] * d for _ in range(d)] for _ in range(2))
    for i in range(top + 1):
        for acc, c in ((S, comb(n, i + 1)), (Pn, comb(n, i))):
            if c:
                for r, t in zip(acc, powers[i]):
                    r[:] = [x + c * y for x, y in zip(r, t)]
    if modulus:
        S, Pn = ([[x % modulus for x in row] for row in M] for M in (S, Pn))
    return S, Pn if P else None


class _Orbit:
    """One T^s-orbit b_0 -> ... -> b_(w-1) of a table's blocks, built
    whole: for every t <= w the twists Pi_t, their inverses and the
    prefix sums PS_t; the coordinate indices whose prefix sums step u
    changes, moved[start[u]:start[u+1]]; the powers of lap_sums; and R_n
    and P^n for each lap count n that a run has read (see RunSums)."""

    __slots__ = ("blocks", "pi", "pinv", "ps", "moved", "start", "powers",
                 "laps")

    def __init__(self, blocks, pi, pinv, ps, moved, start):
        self.blocks, self.pi, self.pinv, self.ps = blocks, pi, pinv, ps
        self.moved, self.start = moved, start
        self.powers = []
        self.laps = {}


class RunSums:
    """The Fox walk of elements of the group of a LocalQuotient's table
    read straight into its coordinates through its readers, one step
    per run T^q of their words (``word_runs``): the cycles z(gamma)
    (homology.cycle_of) and the conjugated terms of Hecke images alike.

    One step of T^s (s = +-1) is the two letters of T^s, each walked
    by ``_letter``.  Along a T^s-orbit b_0 -> b_1 -> ... -> b_(w-1) of
    the table's blocks, a walk that enters b_0 with matrix M is at b_u
    with Pi_u M, and G(b) are the reader rows that one step from b
    deposits per unit matrix.  The prefix sums are PS_t = sum over
    u < t of G(b_u) Pi_u, and the orbit closes with the lap twist
    P = Pi_w.  A run of q steps entering b_t with M, where
    t + q = n w + r and 0 <= r < w, passes b_0 n times: with
    X = Pi_t^-1 M it adds (R_n - PS_t) X + PS_r P^n X to the element's
    projected map, where R_n = PS_w (I + P + ... + P^(n-1)) are the
    lap sums (R_0 = 0), and leaves b_r with Pi_r P^n X.  A run within
    one lap (n = 0) is the difference of two prefix sums, at the
    indices that its steps change.  P is rho of a conjugate of
    T^(+-w), so R_n and P^n have a closed form (``lap_sums``) however
    many laps a run makes.

    The first run to enter an orbit builds it whole, from b_0 = the
    block it enters: its prefix sums and its twists Pi_u = rho(h_u),
    h_u the product of the step elements so far, so Pi_u^-1 =
    rho(h_u^-1); the lap sums are kept for the lap counts that runs
    read.  A walk sums its deposits per block as it makes them
    (``_deposit``).  Nothing depends on the element walked, so one
    RunSums (``LocalQuotient.runs``), reading its quotient's steps,
    serves every cycle and every double coset into the quotient's H1.

    A walk may start from a d x m block V in place of M = I: its
    deposits and twists are then d x m, each product costs d m per row
    in place of d^2, and it reads the projected map times V.
    """

    def __init__(self, quotient):
        self.table = quotient.table
        self.steps = quotient.steps
        self.readers = quotient.readers
        self.d = 2 * quotient.k + 1
        self.modulus = quotient.modulus
        self.orbits = {}  # (s, block) -> (orbit, position)

    def project(self, g, V=None):
        """The projected Fox map of g times the d x m block V (None for
        the identity, m = d): pairs (coordinate index, row of length m),
        the sum of the reader rows times the Fox entries of g times V.
        The walk starts from V, so each step carries m columns."""
        proj, sums = {}, {}
        block, mat = 0, V
        for gen, e in reversed(word_runs(g)):
            if gen == "T":
                block, mat = self._run(proj, block, mat, e)
            else:
                block, mat, _ = self._letter(sums, block, mat, gen, e)
        for key, M in sums.items():
            _add_rows(proj, self.readers.get(key, ()), M)
        return list(proj.items())

    def _letter(self, sums, block, mat, gen, e):
        """One letter (gen, e) of the Fox walk at ``block`` with matrix
        ``mat`` (None for the identity), depositing into ``sums``: the
        block, matrix and step element g that the letter moves it to."""
        steps, m = self.steps, self.modulus
        self._deposit(sums, (gen, block), mat)
        if gen == "U" and e == 2:
            # U^2 expands as (U-1) x Uv + (U-1) x v; the Uv part lands
            # where the action of U sends the current block (two U-steps)
            jj, _, A = steps[block, "U", 2]
            self._deposit(sums, ("U", jj), compose(A, mat, m))
        # the current vector moves by the letter: one block moves
        block, g, A = steps[block, gen, 1 if gen == "S" else 3 - e]
        return block, compose(A, mat, m), g

    def _deposit(self, sums, key, M):
        """sums[key] += M, None standing for the identity: a lone deposit
        is kept by reference, and a sum is a new matrix, reduced mod m if
        a modulus is given."""
        if key not in sums:
            sums[key] = M
            return
        m = self.modulus
        A, B = (identity(self.d) if X is None else X for X in (sums[key], M))
        acc = [list(map(add, r, t)) for r, t in zip(A, B)]
        sums[key] = [[x % m for x in row] for row in acc] if m else acc

    def _run(self, proj, block, mat, q):
        """Add the run T^q entering ``block`` with ``mat`` to proj;
        returns the block and matrix it leaves with."""
        s, q = (1, q) if q > 0 else (-1, -q)
        m = self.modulus
        orbit, t = self._position(s, block)
        n, r = divmod(t + q, len(orbit.blocks))
        hi, Pn = self._laps(orbit, n) if n else (orbit.ps[r], None)
        # within a lap, PS_r differs from PS_t where steps t..r-1 moved it
        keys = hi if n else set(orbit.moved[orbit.start[t]:orbit.start[r]])
        lo = orbit.ps[t]  # its indices are among hi's
        rows = [(idx, list(map(sub, hi[idx], lo[idx])) if idx in lo
                 else hi[idx]) for idx in keys]
        X = compose(orbit.pinv[t], mat, m)
        _add_rows(proj, [(idx, row) for idx, row in rows if any(row)], X)
        if n:
            X = compose(Pn, X, m)
            _add_rows(proj, orbit.ps[r].items(), X)
        elif orbit.pi[r] is orbit.pi[t]:  # no step between t and r twists
            return orbit.blocks[r], mat
        return orbit.blocks[r], compose(orbit.pi[r], X, m)

    def _position(self, s, block):
        """(orbit, position) of a block on its T^s-orbit, the orbit built
        whole when a run first enters it: one step is the two letters of
        T^s, and h carries the product of their step elements."""
        hit = self.orbits.get((s, block))
        if hit is not None:
            return hit
        k, m, readers = self.d // 2, self.modulus, self.readers
        blocks, pi, pinv, ps = [block], [None], [None], [{}]
        moved, start, h = [], [0], I
        while True:
            sums, rows = {}, {}
            blk, M = blocks[-1], pi[-1]
            for gen, e in reversed(T_LETTERS[s]):
                blk, M, g = self._letter(sums, blk, M, gen, e)
                if M is not None:  # else g = 1 so far, or k = 0
                    h = g * h
            for key, D in sums.items():
                _add_rows(rows, readers.get(key, ()), D)
            acc = dict(ps[-1]) if rows else ps[-1]  # sums are never changed
            _add_rows(acc, rows.items(), None)
            moved += rows
            start.append(len(moved))
            ps.append(acc)
            pi.append(M)
            pinv.append(None if M is None else rho(h.inv(), k, m))
            if blk == block:
                break
            blocks.append(blk)
        orbit = _Orbit(blocks, pi, pinv, ps, moved, start)
        for u, b in enumerate(blocks):
            self.orbits[s, b] = orbit, u
        return orbit, 0

    def _laps(self, orbit, n):
        """(R_n, P^n) by lap_sums, memoised per n."""
        hit = orbit.laps.get(n)
        if hit is None:
            w, m = len(orbit.blocks), self.modulus
            S, Pn = lap_sums(orbit.pi[w], n, self.d, orbit.powers, m)
            hit = orbit.laps[n] = {}, Pn
            _add_rows(hit[0], orbit.ps[w].items(), S)
        return hit

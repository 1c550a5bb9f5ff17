"""Large 3-AP-free subsets of {1..N} via sphere shells of a digit lattice.

The construction picks a dimension n and digit bound s, slices the cube
{0..s-1}^n into shells of constant squared norm, and encodes a shell as
integers with digits below s.  Sums of two members then never carry, and
a 3-term arithmetic progression in the encoded set would force three
collinear points on a sphere.

Note on the radix: two digits below s sum to at most 2s - 2, so 2s - 1 is
the smallest radix that avoids carries (Behrend's own choice); the source
material writes 2s in the encoding and 2s+1 in the distinctness
equations.  ``behrend_set`` keeps the paper's parameter rule and radix 2s;
``tuned_behrend_set`` searches (n, s) to fit N and encodes in radix
2s - 1, which at desk scale gives several times more members (1,716
against 384 at N = 2^20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import isqrt

from .core import MatroidError


@dataclass(frozen=True)
class BehrendParams:
    N: int
    n: int
    s: int
    k: int
    carry_free_radix: bool = False

    @property
    def radix(self) -> int:
        return 2 * self.s - 1 if self.carry_free_radix else 2 * self.s


@dataclass(frozen=True)
class BehrendSet:
    members: tuple[int, ...]
    params: BehrendParams
    via_fallback: bool = False

    def __len__(self) -> int:
        return len(self.members)


def _dimension(N: int) -> int:
    # floor(sqrt(log2 N)), clamped to >= 1
    return max(isqrt(N.bit_length() - 1), 1)


def _digit_bound(N: int, n: int) -> int:
    # largest s with (2s)^n <= N, clamped to >= 1
    s = 1
    while (2 * (s + 1)) ** n <= N:
        s += 1
    return s


SHELL_BUDGET = 2_000_000


def sphere_shells(n: int, s: int) -> dict[int, list[tuple[int, ...]]]:
    """Partition {0..s-1}^n by squared Euclidean norm."""
    if s ** n > SHELL_BUDGET:
        raise MatroidError(f"shell enumeration of {s}^{n} points exceeds budget {SHELL_BUDGET}")
    shells: dict[int, list[tuple[int, ...]]] = {}
    for x in product(range(s), repeat=n):
        shells.setdefault(sum(v * v for v in x), []).append(x)
    return shells


def behrend_params(N: int) -> BehrendParams:
    """Construction parameters for N: dimension, digit bound, best shell."""
    return _params_and_shells(N)[0]


def _params_and_shells(N: int) -> tuple[BehrendParams, dict[int, list[tuple[int, ...]]]]:
    """``behrend_params(N)`` and the nonzero shells its k was picked from,
    so that ``behrend_set`` enumerates the cube once."""
    if N < 4:
        raise MatroidError("behrend_params requires N >= 4; use optimal_3ap_free for tiny N")
    n = _dimension(N)
    s = _digit_bound(N, n)
    shells = sphere_shells(n, s)
    shells.pop(0, None)  # the all-zero vector would encode 0, outside 1..N
    if shells:
        k = max(shells, key=lambda k: (len(shells[k]), -k))
    else:
        k = 1
    return BehrendParams(N=N, n=n, s=s, k=k), shells


def encode(digits: tuple[int, ...], radix: int) -> int:
    return sum(d * radix ** i for i, d in enumerate(digits))


def decode(value: int, radix: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        value, d = divmod(value, radix)
        digits.append(d)
    if value:
        raise MatroidError(f"value does not fit in {n} digits of radix {radix}")
    return tuple(digits)


def has_3ap(members) -> bool:
    """True iff some x < y < z in the set satisfies x + z = 2y."""
    s = set(members)
    elems = sorted(s)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if 2 * y - x in s:
                return True
    return False


def behrend_set(N: int) -> BehrendSet:
    """A verified 3-AP-free subset of {1..N} from the best sphere shell.

    Falls back to the brute-force optimum when the shell construction
    degenerates (n <= 1, which happens for N < 16).
    """
    if N < 1:
        raise MatroidError("behrend_set requires N >= 1")
    if N < 4:
        params, shells = BehrendParams(N=N, n=1, s=_digit_bound(N, 1), k=0), {}
    else:
        params, shells = _params_and_shells(N)
    if params.n <= 1:
        members = tuple(sorted(optimal_3ap_free(N)))
        return BehrendSet(members=members, params=params, via_fallback=True)
    return _verified_shell_set(shells[params.k], params)


def _verified_shell_set(shell, params: BehrendParams) -> BehrendSet:
    members = tuple(sorted(encode(x, params.radix) for x in shell))
    if len(set(members)) != len(members):
        raise MatroidError("internal error: shell encoding collided")
    if any(v < 1 or v > params.N for v in members):
        raise MatroidError("internal error: encoded member outside 1..N")
    if has_3ap(members):
        raise MatroidError("internal error: constructed set has a 3-term AP")
    return BehrendSet(members=members, params=params)


def _largest_shell_size(n: int, s: int) -> int:
    # coefficient j of (sum_{d<s} x^(d*d))^n counts the points of norm j;
    # 32-bit slots hold every count within the shell budget
    cube = (sum(1 << (32 * d * d) for d in range(s)) ** n).to_bytes(
        4 * (n * (s - 1) ** 2 + 1), "little"
    )
    return max(int.from_bytes(cube[i:i + 4], "little") for i in range(0, len(cube), 4))


def tuned_behrend_set(N: int) -> BehrendSet:
    """A verified 3-AP-free subset of {1..N}: the largest fitting sphere shell.

    Searches every n >= 2 and s >= 2 with s^n within the shell budget,
    encodes in the carry-free radix r = 2s - 1, and keeps the largest
    shell whose members are all <= N (ties go to the smallest n, s, k).
    Candidates are visited in order of an exact size bound: a shell is
    closed under permuting digits, so in a shell that fits every digit is
    <= N // r^(n-1), and the first n-1 digits fix the last.  A candidate
    is enumerated only if its largest shell could beat the best so far.
    Falls back like ``behrend_set`` when no shell fits (N < 3).
    """
    candidates = []
    n = 2
    while 3 ** (n - 1) <= N and 2 ** n <= SHELL_BUDGET:
        s = 2
        while (2 * s - 1) ** (n - 1) <= N and s ** n <= SHELL_BUDGET:
            bound = min(s, N // (2 * s - 1) ** (n - 1) + 1) ** (n - 1)
            candidates.append((-bound, n, s))
            s += 1
        n += 1
    best_key, best = (0,), None  # best_key = (size, -n, -s, -k)
    for neg_bound, n, s in sorted(candidates):
        if -neg_bound < best_key[0]:
            break
        if _largest_shell_size(n, s) < best_key[0]:
            continue
        r = 2 * s - 1
        for k, shell in sphere_shells(n, s).items():
            key = (len(shell), -n, -s, -k)
            if k and key > best_key and max(encode(x, r) for x in shell) <= N:
                best_key, best = key, (n, s, k, shell)
    if best is None:
        return behrend_set(N)
    n, s, k, shell = best
    params = BehrendParams(N=N, n=n, s=s, k=k, carry_free_radix=True)
    return _verified_shell_set(shell, params)


def optimal_3ap_free(N: int) -> tuple[int, ...]:
    """Lexicographically smallest maximum 3-AP-free subset of {1..N}.

    Branch-and-bound; restricted to N <= 30.  The optima r3[k] for
    {1..k}, k < N, are solved first: 3-AP-freeness is invariant under
    translation, so r3[k] bounds any k consecutive candidates, and
    r3[N] <= r3[N-1] + 1.  The search keeps a copy of each set longer
    than the best so far; its preorder visits sorted tuples in
    lexicographic order, so the first maximum it finds is the
    lexicographically smallest.
    """
    if N < 1 or N > 30:
        raise MatroidError("optimal_3ap_free supports 1 <= N <= 30")
    r3 = [0]
    best: tuple[int, ...] = ()
    chosen: list[int] = []

    def extend(n: int, start: int) -> None:
        nonlocal best
        if len(chosen) + r3[n - start + 1] <= len(best):
            return
        if len(chosen) > len(best):
            best = tuple(chosen)
        for v in range(start, n + 1):
            if any(2 * b - a == v for i, a in enumerate(chosen) for b in chosen[i + 1:]):
                continue
            chosen.append(v)
            extend(n, v + 1)
            chosen.pop()

    for n in range(1, N + 1):
        r3.append(r3[-1] + 1)  # the bound on r3[n] while {1..n} is searched
        best = ()
        extend(n, 1)
        r3[n] = len(best)
    return best

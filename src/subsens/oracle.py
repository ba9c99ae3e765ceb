"""Ground sets, monotone submodular value oracles, and the adversarial
function families used by the sensitivity experiments.

Subsets are plain Python ints used as bitmasks over element ids 0..n-1.
Families with separation-constant cascades (``prop_lb``, ``avg_prop_lb``)
use exact integer weights so that structural checks are exact even when
the top constant is ~1e22.

Interchangeable-element blocks: a ``ValueOracle`` may carry ``blocks``,
disjoint masks that cover the ground set, such that f is invariant under
every permutation inside a block.  Every element of a block outside S then
has a bit-identical marginal gain at S, and ``ValueOracle.block_gains``
makes one oracle call per block that meets the candidate pool instead of
one per candidate.  Ten families compute f with one of three value kernels
(``_gated``, ``_gated_unit``, ``_gated_eps``), which return the masks they
read as the blocks, so f is invariant inside each by construction;
``prop_lb``, ``large_element`` and ``appendixD_lb`` list theirs by hand.
``restrict`` carries blocks through a deletion.  Blocks are kept as runs of
consecutive ids, so gains come out in id order and greedy's lowest-id tie
rule picks what a per-element scan picks.  An oracle without blocks treats
every element as its own block, so its calls are unchanged.
``ValueOracle.signature`` packs a set's count in each run into one int.
Exact output distributions of an equivariant rule evaluate it once per
signature in each DP level, and exact sensitivity scans with such a rule
copy one deletion's measurement to its whole run, so blocks handed to
``ValueOracle`` that are not exactly invariant give wrong distributions,
and wrong scan values, without any error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional


class UnknownFamilyError(ValueError):
    """Requested function family does not exist."""


class InconsistentDimensionsError(ValueError):
    """Family index ranges do not fit the declared ground-set size."""


class NonPositiveScaleError(ValueError):
    """A scale constant is missing, non-positive, or below its safety floor."""


class ElementInSetError(ValueError):
    """Marginal requested for an element already in the set."""


class InvalidElementError(ValueError):
    """Element id outside the ground set."""


class ZeroSingletonError(ValueError):
    """Curvature undefined: some singleton has value 0."""


class GroundSetTooLargeError(ValueError):
    """Exhaustive structural check requested beyond the supported size."""


EXACT_ENUMERATION_LIMIT = 64  # bitmask representability
EXHAUSTIVE_CHECK_LIMIT = 20


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask for a collection of element ids."""
    m = 0
    for e in ids:
        m |= 1 << e
    return m


def ids_of(mask: int) -> list[int]:
    """Sorted element ids present in a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _block(lo: int, hi: int) -> int:
    """Mask with bits lo..hi-1 set."""
    if hi <= lo:
        return 0
    return ((1 << (hi - lo)) - 1) << lo


@dataclass(frozen=True)
class GroundSet:
    """Element ids are 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InconsistentDimensionsError(f"ground set needs n >= 1, got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def elements(self) -> range:
        return range(self.n)

    def require_exact(self):
        if self.n > EXACT_ENUMERATION_LIMIT:
            raise GroundSetTooLargeError(
                f"exact enumeration supports n <= {EXACT_ENUMERATION_LIMIT}, got {self.n}")


class ValueOracle:
    """Black-box monotone set function f: 2^E -> R with query counting.

    Instances are immutable after construction apart from the query tally;
    evaluation must be deterministic and pure.  ``index_map`` maps local ids
    to the ids of the original ground set after restrictions (None means
    identity).  ``blocks`` (None means every element is its own block) are
    disjoint masks covering the ground set under whose internal
    permutations f is invariant; they are stored as runs of consecutive
    ids in ascending order.
    """

    __slots__ = ("n", "name", "_fn", "calls", "index_map", "meta", "blocks")

    def __init__(self, n: int, fn: Callable[[int], float], name: str = "",
                 index_map: Optional[tuple[int, ...]] = None,
                 meta: Optional[dict] = None, check_empty: bool = True,
                 blocks: Optional[Iterable[int]] = None):
        if n < 1:
            raise InconsistentDimensionsError(f"oracle needs n >= 1, got {n}")
        if index_map is not None and len(index_map) != n:
            raise InconsistentDimensionsError("index_map length must equal n")
        self.n = n
        self.name = name
        self._fn = fn
        self.calls = 0
        self.index_map = index_map
        self.meta = dict(meta) if meta else {}
        self.blocks = None if blocks is None else _check_blocks(n, blocks)
        if check_empty:
            v0 = fn(0)
            if v0 != 0:
                raise NonPositiveScaleError(f"{name or 'oracle'}: f(empty)={v0!r}, expected 0")

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.n)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def value(self, mask: int) -> float:
        if mask >> self.n:
            raise InvalidElementError(f"mask {mask:#x} has bits beyond n={self.n}")
        self.calls += 1
        return self._fn(mask)

    def marginal(self, mask: int, e: int) -> float:
        if e < 0 or e >= self.n:
            raise InvalidElementError(f"element {e} outside ground set of size {self.n}")
        bit = 1 << e
        if mask & bit:
            raise ElementInSetError(f"element {e} already in set")
        return self.value(mask | bit) - self.value(mask)

    def block_gains(self, current: int, rem: int) -> list[tuple[int, float, int]]:
        """Marginal gains at ``current`` for the candidates in ``rem``, one
        oracle call per block that meets ``rem``.

        Returns (lowest id, gain, members) triples, where members =
        block & rem all share that gain; ids ascend within and across the
        triples.  ``rem`` must not meet ``current``; an empty ``rem`` costs
        no call.
        """
        if not rem:
            return []
        value = self.value
        base = value(current)
        out = []
        if self.blocks is None:
            while rem:
                b = rem & -rem
                rem ^= b
                out.append((b.bit_length() - 1, value(current | b) - base, b))
            return out
        for block in self.blocks:
            members = block & rem
            if members:
                b = members & -members
                out.append((b.bit_length() - 1, value(current | b) - base, members))
        return out

    def signature(self, mask: int) -> int:
        """The count of ``mask`` in each run of ``blocks``, packed into one
        int, n.bit_length() bits per run in run order.

        Two masks share a signature exactly when a permutation inside the
        runs maps one onto the other, so f takes one value on them.  An
        oracle without blocks returns ``mask``: every element is its own
        run.
        """
        if self.blocks is None:
            return mask
        width = self.n.bit_length()
        sig = 0
        for run in reversed(self.blocks):
            sig = (sig << width) | (mask & run).bit_count()
        return sig

    def to_original_ids(self, mask: int) -> int:
        """Translate a local-id mask into original ground-set ids."""
        if self.index_map is None:
            return mask
        out = 0
        for e in ids_of(mask):
            out |= 1 << self.index_map[e]
        return out

    def __repr__(self):
        return f"ValueOracle(n={self.n}, name={self.name!r}, calls={self.calls})"


def _check_blocks(n: int, blocks: Iterable[int]) -> tuple[int, ...]:
    """Validate a block partition of 0..n-1 and store it as runs of
    consecutive ids in ascending order.

    f stays invariant inside each run, and every id of a run precedes every
    id of the next one, so gains and their members come out in id order.
    """
    runs = []
    seen = 0
    for block in blocks:
        if block < 0 or block >> n:
            raise InconsistentDimensionsError(f"block {block:#x} has bits beyond n={n}")
        if block & seen:
            raise InconsistentDimensionsError(f"block {block:#x} overlaps another block")
        seen |= block
        while block:
            run = block & ~(block + (block & -block))
            runs.append(run)
            block ^= run
    if seen != (1 << n) - 1:
        raise InconsistentDimensionsError(
            f"blocks miss elements {ids_of(((1 << n) - 1) & ~seen)}")
    runs.sort()
    return tuple(runs)


def marginal(oracle: ValueOracle, mask: int, e: int) -> float:
    """f(S + e) - f(S); nonnegative for monotone f."""
    return oracle.marginal(mask, e)


def restrict(oracle: ValueOracle, e: int) -> ValueOracle:
    """The function f^{del e} on a ground set of size n-1.

    Local ids are re-indexed to stay contiguous; the returned oracle's
    ``index_map`` records original ids for reporting.
    """
    n = oracle.n
    if e < 0 or e >= n:
        raise InvalidElementError(f"element {e} outside ground set of size {n}")
    if n == 1:
        raise InconsistentDimensionsError("cannot restrict a singleton ground set")
    low = (1 << e) - 1
    fn = oracle._fn

    def restricted(mask: int) -> float:
        return fn(((mask >> e) << (e + 1)) | (mask & low))

    base_map = oracle.index_map or tuple(range(n))
    new_map = base_map[:e] + base_map[e + 1:]
    blocks = None
    if oracle.blocks is not None:
        blocks = [((b >> (e + 1)) << e) | (b & low) for b in oracle.blocks]
    return ValueOracle(n - 1, restricted, name=f"{oracle.name}\\{base_map[e]}",
                       index_map=new_map, meta=oracle.meta, check_empty=False,
                       blocks=blocks)


def curvature(oracle: ValueOracle) -> float:
    """1 - min_e f_{E-e}(e) / f({e}).  Costs 2 oracle calls per element."""
    full = oracle.value(oracle.full_mask)
    worst = 1.0
    for e in range(oracle.n):
        bit = 1 << e
        single = oracle.value(bit)
        if single <= 0:
            raise ZeroSingletonError(f"f({{{e}}}) = {single!r}; curvature undefined")
        top = full - oracle.value(oracle.full_mask ^ bit)
        ratio = top / single
        if ratio < worst:
            worst = ratio
    return min(1.0, max(0.0, 1.0 - worst))


# ---------------------------------------------------------------------------
# structural checks


@dataclass(frozen=True)
class StructureViolation:
    kind: str          # "monotone" | "submodular"
    base: int          # S as bitmask
    element: int       # element being added
    context: int       # second element for submodularity, -1 for monotonicity
    gap: float         # amount by which the inequality failed


@dataclass
class StructureReport:
    n: int
    mode: str
    checks: int
    violations: list[StructureViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"structure[{self.mode}] n={self.n} checks={self.checks}: {status}"


def check_monotone_submodular(oracle: ValueOracle, mode: str = "exhaustive",
                              tol: float = 1e-9, pair_budget: int = 20000,
                              seed: int = 0, max_violations: int = 20) -> StructureReport:
    """Verify monotonicity and diminishing returns, exhaustively or by sampling.

    Exhaustive mode tests every (S, e) for monotonicity and every
    (S, {e, e'}) for the local submodularity inequality
    f(S+e) + f(S+e') >= f(S) + f(S+e+e'), which is equivalent to
    submodularity.  Requires n <= 20.
    """
    n = oracle.n
    report = StructureReport(n=n, mode=mode, checks=0)

    def record(kind, base, element, context, gap):
        if len(report.violations) < max_violations:
            report.violations.append(StructureViolation(kind, base, element, context, gap))

    if mode == "exhaustive":
        if n > EXHAUSTIVE_CHECK_LIMIT:
            raise GroundSetTooLargeError(
                f"exhaustive check supports n <= {EXHAUSTIVE_CHECK_LIMIT}, got {n}")
        vals = [oracle.value(m) for m in range(1 << n)]
        for e in range(n):
            bit = 1 << e
            for m in range(1 << n):
                if m & bit:
                    continue
                report.checks += 1
                gap = vals[m] - vals[m | bit]
                if gap > tol:
                    record("monotone", m, e, -1, gap)
        for e in range(n):
            be = 1 << e
            for e2 in range(e + 1, n):
                b2 = 1 << e2
                both = be | b2
                for m in range(1 << n):
                    if m & both:
                        continue
                    report.checks += 1
                    gap = (vals[m] + vals[m | both]) - (vals[m | be] + vals[m | b2])
                    if gap > tol:
                        record("submodular", m, e, e2, gap)
        return report

    if mode == "sampled":
        import numpy as np
        rng = np.random.default_rng(seed)
        full = oracle.full_mask
        for _ in range(pair_budget):
            m = int(rng.integers(0, full + 1))
            e, e2 = (int(x) for x in rng.choice(n, size=2, replace=False))
            m &= ~((1 << e) | (1 << e2))
            report.checks += 2
            fm = oracle.value(m)
            fe = oracle.value(m | (1 << e))
            f2 = oracle.value(m | (1 << e2))
            fb = oracle.value(m | (1 << e) | (1 << e2))
            if fm - fe > tol:
                record("monotone", m, e, -1, fm - fe)
            if (fm + fb) - (fe + f2) > tol:
                record("submodular", m, e, e2, (fm + fb) - (fe + f2))
        return report

    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# function specs and families


@dataclass(frozen=True)
class FunctionSpec:
    """Tagged description of a function family plus its parameters.

    ``n`` is the family's size parameter.  For every family except
    ``appendixD_lb`` it equals the ground-set size; ``appendixD_lb`` counts
    the two weight classes only and its oracle has n+1 elements (the heavy
    element is extra).
    """

    family: str
    n: int
    k: Optional[int] = None
    c: Optional[float] = None
    weights: Optional[tuple[float, ...]] = None
    scale: Optional[float] = None   # "large constant" C, or M for appendixD_lb
    ratio: Optional[int] = None     # cascade ratio for separation-constant families
    eps: Optional[float] = None     # spacing for near-equality style families
    j: Optional[int] = None         # forced-element index (1-based, as e_j)
    i_max: Optional[int] = None     # largest ordinal position the schedule can address
    m: Optional[int] = None         # indicator prefix length for avg_* families

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if value is None:
                continue
            if name == "weights":
                value = ",".join(repr(float(w)) for w in value)
            lines.append(f"{name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FunctionSpec":
        kv = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line: {raw!r}")
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
        return cls.from_mapping(kv)

    @classmethod
    def from_mapping(cls, kv: dict) -> "FunctionSpec":
        known = {f.name for f in fields(cls)}
        args = {}
        for key, value in kv.items():
            if key not in known:
                raise ValueError(f"unknown FunctionSpec field {key!r}")
            if key == "family":
                args[key] = str(value)
            elif key == "weights":
                if isinstance(value, str):
                    args[key] = tuple(float(x) for x in value.split(",") if x.strip())
                else:
                    args[key] = tuple(float(x) for x in value)
            elif key in ("n", "k", "ratio", "j", "i_max", "m"):
                args[key] = int(value)
            else:
                args[key] = float(value)
        if "family" not in args or "n" not in args:
            raise ValueError("FunctionSpec needs at least 'family' and 'n'")
        return cls(**args)


def _require(cond: bool, err, msg: str):
    if not cond:
        raise err(msg)


def _check_c(c) -> float:
    _require(c is not None, InconsistentDimensionsError, "family needs a curvature parameter c")
    _require(0.0 <= c <= 1.0, NonPositiveScaleError, f"curvature c={c} outside [0, 1]")
    return float(c)


def _large_constant(spec: FunctionSpec, n: int):
    """Default 'large constant' C = 16 n (unit weights); floor at n."""
    scale = spec.scale if spec.scale is not None else 16 * n
    _require(scale >= n, NonPositiveScaleError,
             f"scale C={scale} below floor {n} needed for monotonicity")
    return scale


def _eps_spacing(spec: FunctionSpec, n: int) -> float:
    eps = spec.eps if spec.eps is not None else 1.0 / (4 * n)
    _require(0 < eps < 1, NonPositiveScaleError, f"spacing eps={eps} outside (0, 1)")
    return eps


def _cascade_ratio(spec: FunctionSpec, n: int) -> int:
    # 8 n^2 >= 16 n k for k <= n/2, which keeps all relative marginals above
    # 1 - 1/(2 * 8nk), twice the margin the proportional-rule claims need.
    r = spec.ratio if spec.ratio is not None else 8 * n * n
    _require(r >= 2, NonPositiveScaleError, f"cascade ratio {r} too small")
    return int(r)


def _weight_sum(mask: int, weights: list) :
    total = 0
    while mask:
        b = mask & -mask
        total += weights[b.bit_length() - 1]
        mask ^= b
    return total


def _build_modular(spec: FunctionSpec):
    n = spec.n
    _require(spec.weights is not None, InconsistentDimensionsError,
             "modular family needs explicit weights")
    _require(len(spec.weights) == n, InconsistentDimensionsError,
             f"modular family: {len(spec.weights)} weights for n={n}")
    for w in spec.weights:
        _require(math.isfinite(w) and w >= 0, NonPositiveScaleError,
                 f"modular weight {w} must be finite and >= 0")
    weights = [float(w) for w in spec.weights]

    def fn(mask: int) -> float:
        return _weight_sum(mask, weights)

    return n, fn, {"weights": tuple(weights)}, None


def _build_prop_lb(spec: FunctionSpec):
    # A x_1 + (1 - x_1) * sum B_i x_i (second half) + sum x_i (rest of first half),
    # with an integer geometric cascade A >> B_{n/2+1} >> ... >> B_n >> 1.
    n = spec.n
    _require(n >= 4 and n % 2 == 0, InconsistentDimensionsError,
             f"prop_lb needs even n >= 4, got {n}")
    r = _cascade_ratio(spec, n)
    half = n // 2
    unit_total = half - 1             # ids 1..half-1 carry weight 1
    weights = [0] * n
    below = unit_total
    for i in range(n - 1, half - 1, -1):   # B_n up to B_{n/2+1}
        weights[i] = r * below
        below += weights[i]
    big_a = r * below
    weights[0] = big_a
    for i in range(1, half):
        weights[i] = 1
    b_mask = _block(half, n)
    c_mask = _block(1, half)

    def fn(mask: int) -> int:
        total = big_a if mask & 1 else 0
        if not mask & 1:
            total += _weight_sum(mask & b_mask, weights)
        total += (mask & c_mask).bit_count()
        return total

    cascade = [1 << i for i in range(half, n)]
    return n, fn, {"weights": tuple(weights), "ratio": r,
                   "first_block": _block(0, half), "second_block": b_mask}, [1, c_mask, *cascade]


# Value kernels, g = [gate ⊆ S].  Each returns f and the disjoint masks it
# reads; f depends only on the count of S in each, so they are its blocks.
# Weights are computed once, by the expressions a per-call evaluation uses.


def _gated(scale, heavy: int, gate: int, c: float, mid: int, tail: int):
    """C |S ∩ heavy| + (1 - c g) |S ∩ mid| + (1 - c/2) |S ∩ tail|; gate ⊆ heavy."""
    on, off, tail_w = 1.0 - c * 1, 1.0 - c * 0, 1.0 - c / 2.0

    def fn(mask: int) -> float:
        mid_w = on if (mask & gate) == gate else off
        return (scale * (mask & heavy).bit_count() + mid_w * (mask & mid).bit_count()
                + tail_w * (mask & tail).bit_count())

    return fn, [heavy & ~gate, gate, mid, tail]


def _gated_unit(scale, prefix: int, mid: int, tail: int):
    """C |S ∩ prefix| + [prefix ⊄ S] |S ∩ mid| + 1/2 |S ∩ tail|."""

    def fn(mask: int) -> float:
        total = scale * (mask & prefix).bit_count()
        if (mask & prefix) != prefix:
            total += (mask & mid).bit_count()
        return total + 0.5 * (mask & tail).bit_count()

    return fn, [prefix, mid, tail]


def _gated_eps(c: float, eps: float, pre: int, gate: int, mid: int, shadow: int, rest: int):
    """(1 - c g) |S ∩ pre| + |S ∩ gate| + (1 - c + eps (1 - g)) |S ∩ mid|
    + (1 - c + eps/2) |S ∩ shadow| + eps |S ∩ rest|."""
    on = (1.0 - c * 1, 1.0 - c + eps * 0)     # (pre, mid) weights at g = 1
    off = (1.0 - c * 0, 1.0 - c + eps * 1)
    shadow_w = 1.0 - c + eps / 2.0

    def fn(mask: int) -> float:
        pre_w, mid_w = on if (mask & gate) == gate else off
        return (pre_w * (mask & pre).bit_count() + (mask & gate).bit_count()
                + mid_w * (mask & mid).bit_count() + shadow_w * (mask & shadow).bit_count()
                + eps * (mask & rest).bit_count())

    return fn, [pre, gate, mid, shadow, rest]


def _build_randgreedy_lb(spec: FunctionSpec):
    # C |S ∩ prefix| + (1 - I) |S ∩ mid| + 0.5 |S ∩ tail|, I = [prefix ⊆ S],
    # prefix = e_1..e_m, mid = e_{m+1}..e_{2k+1}; randgreedy_lb fixes m = 1.
    n, k, family = spec.n, spec.k, spec.family
    _require(k is not None and k >= 1, InconsistentDimensionsError, f"{family} needs k")
    _require(n >= 2 * k + 2, InconsistentDimensionsError,
             f"{family} needs n >= 2k+2 = {2 * k + 2}, got {n}")
    m = 1 if family == "randgreedy_lb" else _prefix_len(spec)
    _require(1 <= m <= k, InconsistentDimensionsError, f"prefix m={m} outside 1..k")
    scale = _large_constant(spec, n)
    prefix = _block(0, m)
    mid = _block(m, 2 * k + 1)
    tail = _block(2 * k + 1, n)
    fn, blocks = _gated_unit(scale, prefix, mid, tail)
    return n, fn, {"scale": scale, "prefix": prefix, "mid": mid, "tail": tail, "m": m}, blocks


def _build_curvature_lb(spec: FunctionSpec):
    # C x_1 + (1 - c x_1) |S ∩ mid| + (1 - c/2) |S ∩ tail|, mid and tail of
    # width k (curvature_det_lb) or 2k (curvature_rand_lb) after e_1.
    k, family = spec.k, spec.family
    _require(k is not None and k >= 1, InconsistentDimensionsError, f"{family} needs k")
    width = k if family == "curvature_det_lb" else 2 * k
    n = spec.n
    _require(n == 2 * width + 1, InconsistentDimensionsError,
             f"{family} needs n = {2 * width // k}k+1 = {2 * width + 1}, got {n}")
    c = _check_c(spec.c)
    scale = _large_constant(spec, n)
    mid = _block(1, width + 1)
    tail = _block(width + 1, n)
    fn, blocks = _gated(scale, 1, 1, c, mid, tail)
    return n, fn, {"scale": scale, "c": c, "mid": mid, "tail": tail}, blocks


def _build_large_element(spec: FunctionSpec):
    # |S ∩ e_1..e_k| + eps |S ∩ rest|; modular.
    n, k = spec.n, spec.k
    _require(k is not None and 1 <= k < n, InconsistentDimensionsError,
             f"large_element needs 1 <= k < n, got k={k}, n={n}")
    eps = _eps_spacing(spec, n)
    head = _block(0, k)
    tail = _block(k, n)

    def fn(mask: int) -> float:
        return (mask & head).bit_count() + eps * (mask & tail).bit_count()

    return n, fn, {"eps": eps, "head": head, "tail": tail}, [head, tail]


def _build_near_equality(spec: FunctionSpec):
    # _gated_eps with gate = {e_j}, pre = e_1..e_{j-1}, mid = e_{j+1}..e_{Imax+1},
    # shadow = e_{Imax+2}..e_{2 Imax+1}.
    n = spec.n
    c = _check_c(spec.c)
    eps = _eps_spacing(spec, n)
    i_max = spec.i_max if spec.i_max is not None else spec.k
    _require(i_max is not None and i_max >= 1, InconsistentDimensionsError,
             "near_equality needs i_max (or k to default it)")
    j = spec.j if spec.j is not None else 1
    _require(1 <= j <= i_max, InconsistentDimensionsError,
             f"near_equality needs 1 <= j <= i_max, got j={j}, i_max={i_max}")
    _require(2 * i_max + 1 <= n, InconsistentDimensionsError,
             f"near_equality needs n >= 2*i_max+1 = {2 * i_max + 1}, got {n}")
    _require(c > eps, NonPositiveScaleError,
             f"near_equality needs c > eps to keep the marginal ordering (c={c}, eps={eps})")
    _require(c * (j - 1) <= 1.0, NonPositiveScaleError,
             f"near_equality monotonicity needs c*(j-1) <= 1 (c={c}, j={j})")
    pre = _block(0, j - 1)
    mid = _block(j, i_max + 1)
    shadow = _block(i_max + 1, 2 * i_max + 1)
    rest = _block(2 * i_max + 1, n)
    fn, blocks = _gated_eps(c, eps, pre, 1 << (j - 1), mid, shadow, rest)
    return n, fn, {"c": c, "eps": eps, "j": j, "i_max": i_max,
                   "pre": pre, "mid": mid, "shadow": shadow, "rest": rest}, blocks


def _build_greedi_lb(spec: FunctionSpec):
    # C x_1 + (1 - c x_1) |S ∩ e_2..e_{n/2}| + (1 - c/2) |S ∩ e_{n/2+1}..e_n|.
    n = spec.n
    _require(n >= 4 and n % 2 == 0, InconsistentDimensionsError,
             f"greedi_lb needs even n >= 4, got {n}")
    c = _check_c(spec.c)
    scale = _large_constant(spec, n)
    mid = _block(1, n // 2)
    tail = _block(n // 2, n)
    fn, blocks = _gated(scale, 1, 1, c, mid, tail)
    return n, fn, {"scale": scale, "c": c, "mid": mid, "tail": tail}, blocks


def _build_framework_lb(spec: FunctionSpec):
    # C |S ∩ e_1..e_k| + (1 - c x_j) |S ∩ e_{k+1}..e_{n/2}| + (1 - c/2) |S ∩ tail|.
    n, k = spec.n, spec.k
    _require(k is not None and k >= 1, InconsistentDimensionsError, "framework_lb needs k")
    _require(n % 2 == 0 and n // 2 >= k + 1, InconsistentDimensionsError,
             f"framework_lb needs even n with n/2 >= k+1, got n={n}, k={k}")
    c = _check_c(spec.c)
    scale = _large_constant(spec, n)
    j = spec.j if spec.j is not None else k
    _require(1 <= j <= k, InconsistentDimensionsError,
             f"framework_lb needs 1 <= j <= k, got j={j}")
    head = _block(0, k)
    mid = _block(k, n // 2)
    tail = _block(n // 2, n)
    fn, blocks = _gated(scale, head, 1 << (j - 1), c, mid, tail)
    return n, fn, {"scale": scale, "c": c, "j": j, "head": head, "mid": mid, "tail": tail}, blocks


def _build_appendixD_lb(spec: FunctionSpec):
    # Ground set {e*} ∪ A ∪ B with |A| = (1-alpha) n, |B| = alpha n,
    # alpha = (1 - sqrt(1-c))/c.  f = M x* + |S ∩ A| + |S ∩ B| (weight 1-c once
    # e* is in S).  The oracle has n+1 elements; e* is id 0.
    n = spec.n
    c = _check_c(spec.c)
    _require(c > 0, NonPositiveScaleError, "appendixD_lb needs c > 0")
    alpha = (1.0 - math.sqrt(1.0 - c)) / c
    n_b = round(alpha * n)
    n_a = n - n_b
    _require(n_b >= 1, InconsistentDimensionsError,
             f"appendixD_lb: alpha*n rounds to {n_b}; need at least one B element")
    m_scale = spec.scale if spec.scale is not None else float(n) ** 3
    _require(m_scale >= n * n, NonPositiveScaleError,
             f"appendixD_lb needs M >= n^2 = {n * n}, got {m_scale}")
    total = n + 1
    a_mask = _block(1, 1 + n_a)
    b_mask = _block(1 + n_a, total)

    def fn(mask: int) -> float:
        star = 1 if mask & 1 else 0
        b_weight = (1.0 - c) if star else 1.0
        return (m_scale * star + (mask & a_mask).bit_count()
                + b_weight * (mask & b_mask).bit_count())

    return total, fn, {"scale": m_scale, "c": c, "alpha": alpha,
                       "n_a": n_a, "n_b": n_b, "a_mask": a_mask, "b_mask": b_mask}, \
        [1, a_mask, b_mask]


def _prefix_len(spec: FunctionSpec) -> int:
    if spec.m is not None:
        return spec.m
    _require(spec.k is not None, InconsistentDimensionsError,
             "indicator family needs m or k")
    return (spec.k + 1) // 2


def _build_avg_prop_lb(spec: FunctionSpec):
    # sum A_i x_i + (1 - I) sum B_i x_i + sum C_i x_i with indicator
    # I = [prefix fully selected]; integer cascade A_1 >> .. >> A_m >> B >> C.
    n, k = spec.n, spec.k
    _require(k is not None and k >= 1, InconsistentDimensionsError, "avg_prop_lb needs k")
    _require(n >= k + 2, InconsistentDimensionsError,
             f"avg_prop_lb needs n >= k+2, got n={n}, k={k}")
    m = _prefix_len(spec)
    _require(1 <= m <= k, InconsistentDimensionsError, f"avg_prop_lb prefix m={m} outside 1..k")
    r = _cascade_ratio(spec, n)
    weights = [0] * n
    below = 0
    for i in range(k, m - 1, -1):          # C_{k+1} .. C_{m+1}, bottom of the cascade
        weights[i] = max(1, r * below)
        below += weights[i]
    for i in range(n - 1, k, -1):          # B_n .. B_{k+2}
        weights[i] = r * below
        below += weights[i]
    for i in range(m - 1, -1, -1):         # A_m .. A_1
        weights[i] = r * below
        below += weights[i]
    prefix = _block(0, m)
    b_mask = _block(k + 1, n)
    c_mask = _block(m, k + 1)

    def fn(mask: int) -> int:
        total = _weight_sum(mask & (prefix | c_mask), weights)
        if (mask & prefix) != prefix:      # indicator off: B block still alive
            total += _weight_sum(mask & b_mask, weights)
        return total

    return n, fn, {"weights": tuple(weights), "ratio": r, "prefix": prefix,
                   "b_mask": b_mask, "c_mask": c_mask, "m": m}, None


def _build_avg_curvature_lb(spec: FunctionSpec):
    # _gated_eps with pre empty and gate = T = e_1..e_m, mid = e_{m+1}..e_{Imax+1}.
    n, k = spec.n, spec.k
    c = _check_c(spec.c)
    eps = _eps_spacing(spec, n)
    m = _prefix_len(spec)
    i_max = spec.i_max if spec.i_max is not None else (k - 1 if k else None)
    _require(i_max is not None and i_max >= m, InconsistentDimensionsError,
             f"avg_curvature_lb needs i_max >= m, got i_max={i_max}, m={m}")
    _require(2 * i_max + 1 <= n, InconsistentDimensionsError,
             f"avg_curvature_lb needs n >= 2*i_max+1 = {2 * i_max + 1}, got {n}")
    _require(c > eps, NonPositiveScaleError,
             f"avg_curvature_lb needs c > eps (c={c}, eps={eps})")
    prefix = _block(0, m)
    mid = _block(m, i_max + 1)
    shadow = _block(i_max + 1, 2 * i_max + 1)
    rest = _block(2 * i_max + 1, n)
    fn, blocks = _gated_eps(c, eps, 0, prefix, mid, shadow, rest)
    return n, fn, {"c": c, "eps": eps, "m": m, "i_max": i_max,
                   "prefix": prefix, "mid": mid, "shadow": shadow, "rest": rest}, blocks


def _build_avg_gated_lb(spec: FunctionSpec):
    # C |S ∩ prefix| + (1 - c I) |S ∩ mid| + (1 - c/2) |S ∩ tail|, I = [prefix ⊆ S]:
    # avg_greedi_lb has prefix e_1..e_m and k mid elements, avg_framework_lb
    # has prefix e_1..e_k and ceil(k/2) mid elements.
    n, k, family = spec.n, spec.k, spec.family
    _require(k is not None and k >= 1, InconsistentDimensionsError, f"{family} needs k")
    c = _check_c(spec.c)
    if family == "avg_greedi_lb":
        m, width = _prefix_len(spec), k
        _require(n >= m + k + 1, InconsistentDimensionsError,
                 f"avg_greedi_lb needs n >= m+k+1 = {m + k + 1}, got {n}")
    else:
        m, width = k, (k + 1) // 2
        _require(n >= k + width + 1, InconsistentDimensionsError,
                 f"avg_framework_lb needs n >= k + ceil(k/2) + 1 = {k + width + 1}, got {n}")
    scale = _large_constant(spec, n)
    prefix = _block(0, m)
    mid = _block(m, m + width)
    tail = _block(m + width, n)
    fn, blocks = _gated(scale, prefix, prefix, c, mid, tail)
    return n, fn, {"scale": scale, "c": c, "m": m, "prefix": prefix, "mid": mid, "tail": tail}, \
        blocks


_FAMILIES = {
    "modular": _build_modular,
    "prop_lb": _build_prop_lb,
    "randgreedy_lb": _build_randgreedy_lb,
    "curvature_det_lb": _build_curvature_lb,
    "curvature_rand_lb": _build_curvature_lb,
    "large_element": _build_large_element,
    "near_equality": _build_near_equality,
    "greedi_lb": _build_greedi_lb,
    "framework_lb": _build_framework_lb,
    "appendixD_lb": _build_appendixD_lb,
    "avg_prop_lb": _build_avg_prop_lb,
    "avg_randgreedy_lb": _build_randgreedy_lb,
    "avg_curvature_lb": _build_avg_curvature_lb,
    "avg_greedi_lb": _build_avg_gated_lb,
    "avg_framework_lb": _build_avg_gated_lb,
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def build_function(spec: FunctionSpec) -> ValueOracle:
    """Instantiate a function family as a ValueOracle with f(empty) = 0.

    Builders return (n, fn, meta, blocks); blocks is None when every element
    must stay its own block.  Ten families take their blocks from their
    value kernel.  ``modular`` and ``avg_prop_lb`` sum float or cascade
    weights element by element, so two elements with equal weights are not
    guaranteed bit-identical gains and they declare no blocks.
    """
    try:
        builder = _FAMILIES[spec.family]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown family {spec.family!r}; known: {', '.join(family_names())}") from None
    if spec.n < 1:
        raise InconsistentDimensionsError(f"n must be >= 1, got {spec.n}")
    n, fn, meta, blocks = builder(spec)
    meta["spec"] = spec
    label_bits = [spec.family, f"n={spec.n}"]
    if spec.k is not None:
        label_bits.append(f"k={spec.k}")
    if spec.c is not None:
        label_bits.append(f"c={spec.c:g}")
    return ValueOracle(n, fn, name="[" + ",".join(label_bits) + "]", meta=meta,
                       blocks=blocks)


def shipped_default_specs(n: int = 12) -> list[FunctionSpec]:
    """One representative spec per family at its default scales, sized for
    exhaustive structural checks (ground set <= n elements)."""
    return [
        FunctionSpec("modular", n=n, weights=tuple(float(n - i) for i in range(n))),
        FunctionSpec("prop_lb", n=n),
        FunctionSpec("randgreedy_lb", n=n, k=(n - 2) // 4 or 1),
        FunctionSpec("curvature_det_lb", n=11, k=5, c=0.5),
        FunctionSpec("curvature_rand_lb", n=9, k=2, c=0.5),
        FunctionSpec("large_element", n=n, k=max(1, n // 3)),
        FunctionSpec("near_equality", n=n, c=0.5, i_max=(n - 1) // 2),
        FunctionSpec("greedi_lb", n=n, c=0.5),
        FunctionSpec("framework_lb", n=n, k=max(1, n // 2 - 2), c=0.5),
        FunctionSpec("appendixD_lb", n=n - 1, c=0.75),
        FunctionSpec("avg_prop_lb", n=n, k=4),
        FunctionSpec("avg_randgreedy_lb", n=n, k=(n - 2) // 2 - 1, m=2),
        FunctionSpec("avg_curvature_lb", n=n, k=n // 2, c=0.5),
        FunctionSpec("avg_greedi_lb", n=n, k=4, c=0.5),
        FunctionSpec("avg_framework_lb", n=n, k=4, c=0.5),
    ]

"""Conditional queries and sampling over a circuit.

The two primitives every solver needs: exact evaluation of p(q | e) and
i.i.d. draws from P(Q | e), plus an exhaustive tabular distribution used as
ground truth at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .circuit import (
    MARGINAL,
    Circuit,
    _Op,
    _ball_plan,
    _check_entries,
    _chunk_rows,
    _evidence_row,
    _text_lines,
    enumerate_assignments,
    index_to_bits,
    pack_rows,
)
from .rng import DrawStream, _integer, as_stream, counter_keys, key_offsets, mix53, unit_thresholds

_TABULAR_CAP = 24
# Sampling scratch, in bytes per draw, of the leaf step per query column and
# of a sum or shared product step per pair it reached (see _compile_descent).
# A leaf entry holds its slot through the step, 1 byte or 2 where a column
# has more than 256 leaves, at most 3 bytes more during the slot passes, and
# the entries of one block of _LEAF_BLOCK 24 bytes more: their leaf index,
# key and threshold.  A pair holds its node and
# draw indices, key and one threshold gather, 8 bytes each, and a 1-byte
# compare.
_LEAF_BYTES = 26
_PAIR_BYTES = 33
_LEAF_BLOCK = 32768  # leaf entries per block of the leaf step: 256 KB per 8-byte array


class ZeroEvidenceError(ValueError):
    """The conditioning event has probability zero; no conditional exists."""


@dataclass(frozen=True)
class QuerySpec:
    """Partition of circuit variables into query, evidence and nuisance sets."""

    query_vars: tuple[int, ...]
    evidence: dict[int, int] = field(default_factory=dict)
    nuisance_vars: tuple[int, ...] = ()

    def validate(self, num_vars: int) -> None:
        for name, ids in (("query", self.query_vars), ("evidence", self.evidence), ("nuisance", self.nuisance_vars)):
            for var in ids:
                _integer(var, f"{name} variable")
        q, e, v = set(self.query_vars), set(self.evidence), set(self.nuisance_vars)
        if not self.query_vars:
            raise ValueError("query set must be nonempty")
        if len(q) != len(self.query_vars) or len(v) != len(self.nuisance_vars):
            raise ValueError("duplicate variable within a set")
        if q & e or q & v or e & v:
            raise ValueError("query, evidence and nuisance sets must be disjoint")
        union = q | e | v
        if union != set(range(num_vars)):
            raise ValueError(f"sets cover {sorted(union)}, expected all of 0..{num_vars - 1}")
        if any(val not in (0, 1) for val in self.evidence.values()):
            raise ValueError("evidence values must be 0 or 1")


def parse_query_spec(text: str, num_vars: int) -> QuerySpec:
    """Parse `Q <var>` / `E <var> <0|1>` / `V <var>` lines.

    Variables not mentioned default to nuisance; mentioning a variable twice
    is an error.
    """
    qs: list[int] = []
    ev: dict[int, int] = {}
    vs: list[int] = []
    seen: set[int] = set()
    for ln, line in _text_lines(text):
        tokens = line.split()
        try:
            var = int(tokens[1])
        except (IndexError, ValueError):
            raise ValueError(f"query spec line {ln}: expected 'Q|E|V <var> ...'") from None
        if not (0 <= var < num_vars):
            raise ValueError(f"query spec line {ln}: variable {var} out of range")
        if var in seen:
            raise ValueError(f"query spec line {ln}: variable {var} mentioned twice")
        seen.add(var)
        if tokens[0] == "Q" and len(tokens) == 2:
            qs.append(var)
        elif tokens[0] == "E" and len(tokens) == 3 and tokens[2] in ("0", "1"):
            ev[var] = int(tokens[2])
        elif tokens[0] == "V" and len(tokens) == 2:
            vs.append(var)
        else:
            raise ValueError(f"query spec line {ln}: malformed directive {line!r}")
    vs.extend(v for v in range(num_vars) if v not in seen)
    return QuerySpec(tuple(qs), ev, tuple(vs))


class ConditionalOracle:
    """Exact p(q | e) queries and i.i.d. conditional sampling.

    Construction runs one upward pass over three rows, evidence fixed,
    nuisance variables summed out and the query variables all MARGINAL,
    then all 0, then all 1, and caches ln p(e) from the first.  Every plan
    the oracle runs is built from that pass when first needed, and none at
    construction.  The first sample or log_prob_rows counts, once, the
    query variables each node meets (see _counts); the scoring plan and the
    descent tables both read those counts:

    - The scoring plan, at the first log_prob_rows (see Circuit._fold):
      every node whose scope meets five or more query variables stays an
      op, and each of its children that meets one to four, or the root if it
      does, becomes a table leaf.  A table leaf's value depends on its query
      columns alone, so it is an 81-entry table over the MARGINAL, 0 and 1
      of the columns it meets in ascending order, padded to four with the
      first: a one-column leaf's entries are its three of the upward pass,
      and the others' are built from their subtrees' entries by table
      algebra, with the arithmetic of a pass over rows.
      Nodes that meet no query variable are constants.  Scoring runs the
      (B, |Q|) query block through it, bit-identical to a full pass over the
      rows with evidence filled in.
    - The ball plan, at the first radius-1 Hamming ball scored (as
      smooth_pac_map scores them): a row that flips query column q changes
      only the nodes whose scope holds q, so one pass over the first row and
      a value slot per (scoring-plan node, q) gives every row's score, bit
      for bit the scoring plan's (see _ball_plan).  A table leaf has one
      slot per query column it meets.
    - The sampler's descent tables, at the first sample(), read straight
      from the circuit's full plan (see _compile_descent): the descent keeps
      the nodes whose count is above 0, keyed by node id.  Sampling walks
      the kept ops from the root down with a few numpy calls per op, whatever
      their node count: a (nodes, draws) bool matrix holds the draws that
      reach each node, sums choose children from per-op cumulative tables
      built from the upward pass, +inf from each node's last positive-mass
      child on, and leaves are resolved per query column.  Both compare a
      uniform's 53-bit integer with integer thresholds of those tables and
      of the leaf thetas (see pacmap.rng), so no float uniform is formed.
      A sum op of m nodes bounds the scratch per draw at m + _PAIR_BYTES *
      min(m, |Q|) bytes, and the leaf step at _LEAF_BYTES * |Q|.

    So a sampling-only oracle builds neither the scoring nor the ball plan,
    and sample_joint shares one all-variable oracle across its calls on a
    circuit (see _joint_oracle); the baselines score their rows by full
    passes and build nothing, not even the counts.
    Every Circuit is smooth, decomposable and rooted over every variable,
    so the root meets every query variable.  Instances are shareable and
    their answers never change (two threads that build a plan at once build
    the same one); sampling draws are indexed by a counter-based stream, so
    results do not depend on batching.
    """

    def __init__(self, circuit: Circuit, spec: QuerySpec):
        spec.validate(circuit.num_vars)
        self.circuit = circuit
        self.spec = spec
        self.query_vars = np.asarray(spec.query_vars, dtype=np.int64)
        self.num_query = len(spec.query_vars)

        rows = np.repeat(_evidence_row(circuit.num_vars, spec.evidence)[None, :], 3, axis=0)
        rows[1:, self.query_vars] = [[0], [1]]
        # By the full plan's value rows; columns: query all MARGINAL, all 0, all 1.
        self._upward = circuit._forward(rows, circuit._plan, maximize=False)
        self.log_p_evidence = float(self._upward[circuit._plan.root, 0])
        if self.log_p_evidence == -np.inf:
            raise ZeroEvidenceError("evidence has probability zero under the circuit")
        self._score_plan = None  # the scoring plan, built by the first log_prob_rows
        self._ball: tuple | None = None  # _ball_plan(self._score_plan), built by the first ball scored
        self._descent: list[tuple] | None = None  # the sampler's tables, built by the first sample

    # -- exact queries ------------------------------------------------------

    def log_prob_rows(self, query_rows: np.ndarray) -> np.ndarray:
        """ln p(q | e) for a batch of query assignments, shape (B, |Q|).

        Entries left at MARGINAL are summed out, so partial rows yield
        conditional marginals of the assigned variables; any entry other than
        0, 1 and MARGINAL is refused.

        Rows are scored through the scoring plan, built by the first call,
        whose table leaves read four query columns each, padded where they
        meet fewer, and whose ops all meet five or more.  A radius-1 Hamming
        ball (more than one row, entries 0/1 only, every row within distance
        1 of row 0) is scored in one pass over row 0 and its flipped variants
        (see _ball_plan); every other batch takes the scoring plan's chunked
        pass.  Both give the same bytes.
        """
        query_rows = _check_entries(query_rows)
        if query_rows.shape[1] != self.num_query:
            raise ValueError(f"query rows have {query_rows.shape[1]} vars, expected {self.num_query}")
        if self._score_plan is None:
            self._score_plan = self.circuit._fold(self._counts, self.num_query, self._upward)
        flips = _ball_flips(query_rows)
        if flips is None:
            out = self.circuit._root(query_rows, self._score_plan)
        else:
            out = self._score_ball(query_rows[0], flips)
        out -= self.log_p_evidence
        return out

    @cached_property
    def _counts(self) -> np.ndarray:
        """Circuit._column_counts of the query variables, run by the first reader and stored once."""
        return self.circuit._column_counts(self.spec.query_vars)

    def _score_ball(self, center: np.ndarray, flips: np.ndarray) -> np.ndarray:
        """Root values of the rows `center` with column flips[i] flipped (none
        where flips[i] is -1), from one pass over the center and every flip."""
        if self._ball is None:
            self._ball = _ball_plan(self._score_plan)
        plan, roots = self._ball
        values = self.circuit._forward(np.concatenate((center, 1 - center))[None, :], plan, maximize=False)
        return values[roots[flips + 1], 0]

    def conditional_log_prob(self, query: Sequence[int] | np.ndarray) -> float:
        return float(self.log_prob_rows(_one_row(query))[0])

    # -- sampling -----------------------------------------------------------

    def _compile_descent(self) -> None:
        """The sampler's kept ops and tables, read by full-plan row from the
        circuit's full plan and the cached upward pass.

        The marked rows are those that meet Q, whose count is above 0 (see
        _counts), and a leaf's count names its query column.  Each op keeps
        its marked nodes, the op itself where all are marked, as every op is
        when every variable is queried.  The `active` matrix holds one row
        of reached draws per marked row, except that a marked row whose one
        parent is a product shares that parent's row (it is reached by
        exactly the same draws), and one sink row stands for every unmarked
        row, which no draw needs to enter.  row_of maps
        full-plan rows to active rows.  _descent is set last, so a thread
        that sees it sees every other table.

        The uniform of (draw, node id) has counter draw * width + id, so its
        key is the draw's key plus key_offsets(id) (see pacmap.rng): each sum
        op and each leaf slot stores its nodes' offsets, and a chunk computes
        its draws' keys once.  Each cumulative table and leaf theta is stored
        as unit_thresholds, which the finalized 53-bit integers are compared
        with, so every choice is the float compare's.
        """
        full = self.circuit._plan
        live = self._counts > 0
        low = self._counts[: full.leaf_base.size] & 0xFFFFFFFF  # a leaf's query column + 1, or 0
        leaf_col = np.where(low > 0, low - 1, self.num_query)  # past every column where it meets none
        ops = []
        for op in full.ops:
            keep = live[op.ids]
            if keep.all():
                ops.append(op)
            elif keep.any():
                ops.append(_Op(op.ids[keep], op.kids[:, keep], None if op.logw is None else op.logw[:, keep]))

        kids = np.concatenate([np.empty(0, np.int64)] + [op.kids.ravel() for op in ops])
        parents = np.bincount(kids, minlength=full.size) * live  # an unmarked row counts none
        row_of = np.arange(full.size)
        shared = {}  # per product op with marked children that have other parents, those (child, parent) rows
        for i in reversed(range(len(ops))):  # parents first
            op = ops[i]
            if op.logw is None:
                sole, many = parents[op.kids] == 1, parents[op.kids] > 1
                row_of[op.kids[sole]] = row_of[op.ids[np.nonzero(sole)[1]]]
                if many.any():
                    shared[i] = op.kids[many], op.ids[np.nonzero(many)[1]]
        own = live & (row_of == np.arange(full.size))  # the rows that keep their own active row
        self._active_rows = int(own.sum())
        row_of = np.where(live, (np.cumsum(own) - 1)[row_of], self._active_rows)

        # Per op, the tables of its step, and a bound on the step's scratch
        # per draw: the m sums, or the m shared (child, parent) pairs, of one
        # op have disjoint scopes that each hold a query column, so a draw
        # reaches at most min(m, |Q|) of them.
        up = self._upward[:, 0]
        step_bytes = 0
        descent = []
        for i, op in enumerate(ops):
            if op.logw is None:
                pairs = tuple(row_of[rows] for rows in shared[i]) if i in shared else ()
                descent.append(pairs)
                if pairs:
                    m = pairs[0].size
                    step_bytes = max(step_bytes, m + _PAIR_BYTES * min(m, self.num_query))
                continue
            step_bytes = max(step_bytes, op.ids.size + _PAIR_BYTES * min(op.ids.size, self.num_query))
            # For the m sums of a k-child op: a (k - 1, m) table whose column
            # j holds node j's cumulative child-selection probabilities under
            # the cached upward pass, +inf from its last child with positive
            # mass onward, as unit_thresholds.  A draw picks the child at the
            # count of entries c <= u, which is the count of thresholds <= k
            # for its 53-bit integer k, so a u past a float cumsum that ends
            # below 1 still lands on that last child, never on a zero-mass
            # one.  No draw enters a zero-mass node, whose column holds no
            # entry a k reaches.
            with np.errstate(invalid="ignore"):
                probs = np.exp(op.logw[:, :, 0] + up[op.kids] - up[op.ids])
            later = np.logical_or.accumulate(probs[:0:-1] > 0.0, axis=0)[::-1]  # a later child has mass
            cums = np.where(later, np.cumsum(probs[:-1], axis=0), np.inf)
            descent.append((unit_thresholds(cums), row_of[op.kids], row_of[op.ids], key_offsets(full.live[op.ids])))

        # Leaves by query column: entry c * slots + s of the flat tables is
        # the s-th leaf of query column c (a column with fewer leaves repeats
        # its last), with its active row, key offset and the
        # unit_thresholds of its theta.  A draw reaches exactly one leaf per
        # column.  Unmarked leaves sort after every column's.
        order = np.argsort(leaf_col, kind="stable")
        count = np.bincount(leaf_col, minlength=self.num_query + 1)[: self.num_query]
        slot = np.minimum(np.arange(count.max()), count[:, None] - 1) + (np.cumsum(count) - count)[:, None]
        leaf = order[slot]  # (|Q|, slots) full-plan leaf rows
        self._ops = ops
        self._root_row = int(row_of[full.root])
        self._leaf_rows = row_of[leaf]
        self._leaf_base = np.arange(0, leaf.size, leaf.shape[1])  # each column's first entry
        self._slot_dtype = np.min_scalar_type(leaf.shape[1] - 1)
        self._leaf_keys = key_offsets(full.live[leaf].ravel())
        self._leaf_thresholds = unit_thresholds(self.circuit._leaf_theta[leaf].ravel())
        # Bytes per draw that one chunk of the descent holds at its peak: the
        # draw's column of `active` and its key, plus the larger of the op
        # steps' and the leaf step's scratch.
        self._sample_row_bytes = self._active_rows + 1 + 8 + max(step_bytes, _LEAF_BYTES * self.num_query)
        self._descent = descent

    def sample(self, count: int, rng: int | DrawStream) -> np.ndarray:
        """Draw i.i.d. samples from P(Q | e); returns (count, |Q|) int8.

        Ancestral descent from the root over the kept ops, in reverse, each
        op for all its kept nodes and draws at once: every (sum, draw) pair
        reached picks one child with the cached conditional probabilities, a
        product passes its draws to its marked children, and each query
        column's one reached leaf samples its variable as u < theta.  An
        unmarked child, whose scope misses Q, would only set evidence or
        nuisance values, which the result discards, so it is never entered.
        Draw j always consumes substream j; the uniform for (draw, node id)
        is a pure counter function, so it is materialized only where the
        descent lands, and neither skipping unmarked nodes nor the chunking
        of the batch (by the scratch bytes per draw, see _compile_descent)
        changes any draw.  A uniform is never formed as a float: its key is
        finalized to the 53-bit integer k with u = k * 2^-53, and u < theta
        and c <= u are read as integer compares of k with thresholds built
        once per oracle, which give the same answers (see pacmap.rng), so
        the draws are those of counter_uniforms.
        """
        count = _integer(count, "count", 1)
        stream = as_stream(rng)
        if self._descent is None:
            self._compile_descent()
        chunk = _chunk_rows(self._sample_row_bytes, 1)
        bits = np.empty((count, self.num_query), dtype=np.int8)  # the leaf step writes every entry
        for i in range(0, count, chunk):
            block = bits[i : i + chunk]
            self._descend(stream.seed, stream.cursor, block)
            stream.cursor += block.shape[0]
        return bits

    def _descend(self, seed: int, base: int, bits: np.ndarray) -> None:
        """Fill the (b, |Q|) block `bits` with draws base, ..., base + b - 1.

        `active` holds the draws that reach each node, and uniforms are keyed
        and compared as _compile_descent sets out.  Each op costs a few numpy
        calls, whatever its node count, and so does each leaf slot and each
        block of the leaf step.
        """
        b = bits.shape[0]
        width = np.uint64(len(self.circuit.nodes))
        draw_keys = counter_keys(seed, (np.uint64(base) + np.arange(b, dtype=np.uint64)) * width)
        active = np.zeros((self._active_rows + 1, b), dtype=bool)
        active[self._root_row] = True
        # Parents come in later ops than their children, so walking the ops
        # backwards settles each node's draws before it is entered.  A
        # product's children share its row unless they have other parents;
        # those get its draws pair by pair, as a sum's chosen children do.
        for op, step in zip(reversed(self._ops), reversed(self._descent)):
            if op.logw is not None:
                _descend_sums(step, active, draw_keys)
            elif step:
                kids, parents = step
                j, d = np.divmod(np.flatnonzero(active[parents]), b)
                _mark(active, kids[j], d)
        # The slot of each (column, draw)'s one reached leaf: the largest s
        # whose leaf row holds the draw, or 0.  A column's repeated last leaf
        # only ever raises it to another slot of that same leaf.
        rows = self._leaf_rows
        slot = np.zeros((rows.shape[0], b), dtype=self._slot_dtype)
        reached = np.empty(slot.shape, dtype=bool)
        weighted = np.empty_like(slot)
        for s in range(1, rows.shape[1]):
            np.take(active, rows[:, s], axis=0, out=reached)
            np.multiply(reached, slot.dtype.type(s), out=weighted)
            np.maximum(slot, weighted, out=slot)
        del active, reached, weighted
        # The rest runs block by block of draws, (rows, |Q|) as `bits` is,
        # through three buffers of one block that every block reuses, so
        # that they stay in cache and their pages are touched once.
        block = min(b, max(1, _LEAF_BLOCK // self.num_query))
        leaf = np.empty((block, self.num_query), dtype=np.intp)
        keys = np.empty(leaf.shape, dtype=np.uint64)
        thresholds = np.empty(leaf.shape, dtype=np.uint64)
        for i in range(0, b, block):
            n = min(block, b - i)
            np.copyto(leaf[:n], slot[:, i : i + n].T)
            leaf[:n] += self._leaf_base
            # Every index is in range, so mode="clip" changes none; it only
            # lets take write into `out` without a copy.
            np.take(self._leaf_keys, leaf[:n], out=keys[:n], mode="clip")
            np.take(self._leaf_thresholds, leaf[:n], out=thresholds[:n], mode="clip")
            keys[:n] += draw_keys[i : i + n, None]
            mix53(keys[:n], leaf[:n].view(np.uint64))
            # u < theta as k < threshold.  An indicator's theta is its value,
            # whose threshold, 0 or 2^53, no k or every k is below.
            np.less(keys[:n], thresholds[:n], out=bits[i : i + n].view(np.bool_))


def _descend_sums(step: tuple, active: np.ndarray, draw_keys: np.ndarray) -> None:
    """One sum op's descent step: every (node, draw) pair it reached picks a
    child, and the child's row of `active` gets the draw.  Its scratch is
    freed on return, before the next op allocates its own."""
    thresholds, kids, rows, node_keys = step
    m = rows.size
    j, d = np.divmod(np.flatnonzero(active[rows]), active.shape[1])
    k = draw_keys[d]
    k += node_keys[j]
    mix53(k)
    # The child is the count of node j's thresholds <= k, that is of its
    # cumulative entries <= u: searchsorted(side="right").  j steps down its
    # column of the flat table, one row per threshold <= k; a column never
    # decreases, so j stops at its first threshold above k, on its entry of
    # the chosen child's row of `kids`.
    flat = thresholds.reshape(-1)
    for _ in range(len(thresholds)):
        np.add(j, m, out=j, where=flat[j] <= k)
    del k
    _mark(active, kids.reshape(-1)[j], d)


def _mark(active: np.ndarray, kids: np.ndarray, d: np.ndarray) -> None:
    """Give draw d[i] to active row kids[i] for every i: one flat scatter,
    exact when a (row, draw) pair repeats, as a shared child's may.
    Overwrites `kids`."""
    kids *= active.shape[1]
    kids += d
    active.reshape(-1)[kids] = True


def _ball_flips(rows: np.ndarray) -> np.ndarray | None:
    """The column in which each row differs from row 0 (-1 for none) when the
    checked int8 block `rows` is a radius-1 ball; None otherwise.

    Row 1 is looked at first, so a batch of draws is refused without a
    (B, |Q|) temporary.
    """
    if len(rows) < 2 or np.count_nonzero(rows[1] != rows[0]) > 1 or rows.min() == MARGINAL:
        return None
    diff = rows != rows[0]
    counts = diff.sum(axis=1)
    if counts.max() > 1:
        return None
    return np.where(counts, diff.argmax(axis=1), -1)


def _one_row(query) -> np.ndarray:
    """One query assignment as a batch of one row; any other shape is refused."""
    q = np.asarray(query)
    if q.ndim != 1:
        raise ValueError("single query assignment expected")
    return q[None, :]


def make_oracle(circuit: Circuit, spec: QuerySpec) -> ConditionalOracle:
    """Build a conditional oracle; raises ZeroEvidenceError when p(e) = 0."""
    return ConditionalOracle(circuit, spec)


@lru_cache(maxsize=1)
def _joint_oracle(circuit: Circuit) -> ConditionalOracle:
    """The all-variable oracle of `circuit`, kept for the most recent circuit
    only.  The cache, not the circuit, holds it: an attribute would make the
    cycle circuit -> oracle -> circuit and leave every dropped circuit to the
    cyclic collector."""
    return ConditionalOracle(circuit, QuerySpec(tuple(range(circuit.num_vars))))


def sample_joint(circuit: Circuit, count: int, rng: int | DrawStream) -> np.ndarray:
    """Unconditional ancestral samples of all circuit variables.

    One all-variable sampler serves every call on a circuit, and the most
    recent circuit's sampler is kept, so callers that draw circuit by circuit
    build one per circuit.  A draw depends only on the circuit's full plan
    and the stream, so rows are those of a fresh oracle's sample.
    """
    return _joint_oracle(circuit).sample(count, rng)


# -- exhaustive ground truth --------------------------------------------------


class TabularDistribution:
    """Explicit pmf over n <= 24 binary query variables.

    Indexing follows bits_to_index: entry i is the probability of the
    assignment whose big-endian bit pattern is i.  Exposes the same
    sample/log_prob_rows surface as ConditionalOracle, so solvers run
    directly against it.
    """

    def __init__(self, log_probs: np.ndarray, check_tol: float = 1e-6):
        log_probs = np.asarray(log_probs, dtype=np.float64)
        n = len(log_probs).bit_length() - 1
        if 2**n != len(log_probs):  # an empty table too: 2**-1 != 0
            raise ValueError("table length must be a power of two")
        if n > _TABULAR_CAP:
            raise ValueError(f"table dimension {n} exceeds cap {_TABULAR_CAP}")
        if np.isnan(log_probs).any():
            raise ValueError("table holds NaN entries")
        total = float(np.exp(np.logaddexp.reduce(log_probs)))
        if abs(total - 1.0) > check_tol:
            raise ValueError(f"table mass {total!r} deviates from 1 beyond {check_tol}")
        self.log_probs = log_probs
        self.num_query = n
        self._cdf = np.cumsum(np.exp(log_probs))
        # A draw past the cdf's end (its mass may fall short of 1 within
        # check_tol) must land on an atom with positive mass: the first one at
        # which the cdf reaches its end.
        self._last_live = int(np.searchsorted(self._cdf, self._cdf[-1]))

    @classmethod
    def from_probs(cls, probs: Sequence[float] | np.ndarray) -> "TabularDistribution":
        p = np.asarray(probs, dtype=np.float64)
        if not (np.isfinite(p).all() and (p >= 0).all() and p.sum() > 0):
            raise ValueError("probabilities must be finite, non-negative and not all zero")
        p = p / p.sum()
        with np.errstate(divide="ignore"):
            return cls(np.log(p), check_tol=1e-9)

    def log_prob_rows(self, query_rows: np.ndarray) -> np.ndarray:
        """ln p(q) for complete 0/1 query rows; any other entry, MARGINAL too, is refused."""
        query_rows = np.atleast_2d(np.asarray(query_rows))
        if query_rows.shape[1] != self.num_query:
            raise ValueError("query arity mismatch")
        # An entry is 0 or 1 exactly when it equals its truth value.
        flags = query_rows.astype(bool)
        if not (flags == query_rows).all():
            raise ValueError("tabular query rows must be 0/1 valued")
        return self.log_probs[pack_rows(flags).astype(np.intp)]

    def conditional_log_prob(self, query) -> float:
        return float(self.log_prob_rows(_one_row(query))[0])

    def sample(self, count: int, rng: int | DrawStream) -> np.ndarray:
        count = _integer(count, "count", 1)
        stream = as_stream(rng)
        idx = np.searchsorted(self._cdf, stream.uniform_block(count, 1).ravel(), side="right")
        np.minimum(idx, self._last_live, out=idx)
        return index_to_bits(idx, self.num_query)


def tabulate_conditional(oracle: ConditionalOracle) -> TabularDistribution:
    """Exhaustive table of ln p(q | e) over all 2^|Q| query assignments."""
    if oracle.num_query > _TABULAR_CAP:
        raise ValueError(f"|Q| = {oracle.num_query} exceeds tabulation cap {_TABULAR_CAP}")
    rows = enumerate_assignments(oracle.num_query)
    return TabularDistribution(oracle.log_prob_rows(rows))


def brute_force_map(table: TabularDistribution) -> tuple[np.ndarray, float]:
    """Exact mode by full scan; ties resolve to the smallest bit pattern."""
    idx = int(np.argmax(table.log_probs))
    return index_to_bits(idx, table.num_query), float(table.log_probs[idx])


def superlevel_mass(table: TabularDistribution, epsilon: float) -> float:
    """Total probability of atoms within a factor 1 - epsilon of the mode."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    log_pstar = float(np.max(table.log_probs))
    threshold = log_pstar + np.log1p(-epsilon)
    selected = table.log_probs[table.log_probs >= threshold]
    return float(np.exp(np.logaddexp.reduce(selected)))


def min_entropy(p_star: float) -> float:
    """Bits encoded by the mode: -log2(p*)."""
    if not (0.0 < p_star <= 1.0):
        raise ValueError("p_star must lie in (0, 1]")
    return float(-np.log2(p_star))

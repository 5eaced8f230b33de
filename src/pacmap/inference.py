"""Conditional queries and sampling over a circuit.

The two primitives every solver needs: exact evaluation of p(q | e) and
i.i.d. draws from P(Q | e), plus an exhaustive tabular distribution used as
ground truth at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuit import (
    MARGINAL,
    Circuit,
    _ball_plan,
    _check_entries,
    _chunk_rows,
    _evidence_row,
    enumerate_assignments,
    index_to_bits,
    pack_rows,
)
from .rng import DrawStream, as_stream, counter_uniforms

_TABULAR_CAP = 24
# Sampling scratch, in bytes per draw, of the leaf step per query column and
# of a sum step per (node, draw) pair it reached (see _compile_descent).
_LEAF_BYTES = 36
_PAIR_BYTES = 64


class ZeroEvidenceError(ValueError):
    """The conditioning event has probability zero; no conditional exists."""


@dataclass(frozen=True)
class QuerySpec:
    """Partition of circuit variables into query, evidence and nuisance sets."""

    query_vars: tuple[int, ...]
    evidence: dict[int, int] = field(default_factory=dict)
    nuisance_vars: tuple[int, ...] = ()

    def validate(self, num_vars: int) -> None:
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
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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

    Construction runs one upward pass with evidence fixed and query/nuisance
    variables summed out, caching ln p(e), and folds the circuit's plan on
    the query: a node is live when its scope meets Q, and every other node
    takes its cached upward value in every row.  Scoring evaluates only the
    live nodes, straight on the (B, |Q|) query block, bit-identical to a
    full pass over the rows with evidence filled in.  A batch that is a
    radius-1 Hamming ball around its first row (as smooth_pac_map scores)
    is scored incrementally instead: a row that flips query column q
    changes only the nodes whose scope holds q, so one pass over the first
    row and a value slot per (live node, q) gives every row's score, bit for
    bit the folded pass's.  The slot plan is compiled once per oracle, at
    the first such batch.  Sampling walks the folded plan's ops from the
    root down with a few numpy calls per op, whatever its node count: a
    (nodes, draws) bool matrix holds the draws that reach each node, sums
    choose children from per-op cumulative tables built from the upward
    pass at construction, +inf from each node's last positive-mass child on,
    and leaves are resolved per query column.  A sum op of m nodes bounds the
    scratch per draw at m + _PAIR_BYTES * min(m, |Q|) bytes.  Every Circuit
    is smooth, decomposable and rooted over every variable, so the root is live.
    Instances are shareable and their answers never change (two threads
    that compile the slot plan at once build the same one); sampling draws
    are indexed by a counter-based stream, so results do not depend on
    batching.
    """

    def __init__(self, circuit: Circuit, spec: QuerySpec):
        spec.validate(circuit.num_vars)
        self.circuit = circuit
        self.spec = spec
        self.query_vars = np.asarray(spec.query_vars, dtype=np.int64)
        self.num_query = len(spec.query_vars)

        upward = circuit.log_forward(_evidence_row(circuit.num_vars, spec.evidence)[None, :])[:, 0]
        self.log_p_evidence = float(upward[circuit.root])
        if self.log_p_evidence == -np.inf:
            raise ZeroEvidenceError("evidence has probability zero under the circuit")
        self._plan = plan = circuit._fold(spec.query_vars, upward)

        self._compile_descent(upward)
        self._ball: tuple | None = None  # _ball_plan(self._plan), built by the first ball scored

    # -- exact queries ------------------------------------------------------

    def log_prob_rows(self, query_rows: np.ndarray) -> np.ndarray:
        """ln p(q | e) for a batch of query assignments, shape (B, |Q|).

        Entries left at MARGINAL are summed out, so partial rows yield
        conditional marginals of the assigned variables; any entry other than
        0, 1 and MARGINAL is refused.

        A radius-1 Hamming ball (more than one row, entries 0/1 only, every
        row within distance 1 of row 0) is scored in one pass over row 0 and
        its flipped variants (see _ball_plan); every other batch takes the
        folded pass.  Both give the same bytes.
        """
        query_rows = _check_entries(query_rows)
        if query_rows.shape[1] != self.num_query:
            raise ValueError(f"query rows have {query_rows.shape[1]} vars, expected {self.num_query}")
        flips = _ball_flips(query_rows)
        if flips is None:
            out = self.circuit._root(query_rows, self._plan)
        else:
            out = self._score_ball(query_rows[0], flips)
        out -= self.log_p_evidence
        return out

    def _score_ball(self, center: np.ndarray, flips: np.ndarray) -> np.ndarray:
        """Root values of the rows `center` with column flips[i] flipped (none
        where flips[i] is -1), from one pass over the center and every flip."""
        if self._ball is None:
            self._ball = _ball_plan(self._plan)
        plan, roots = self._ball
        values = self.circuit._forward(np.concatenate((center, 1 - center))[None, :], plan, maximize=False)
        return values[roots[flips + 1], 0]

    def conditional_log_prob(self, query: Sequence[int] | np.ndarray) -> float:
        q = np.asarray(query, dtype=np.int8)
        if q.ndim != 1:
            raise ValueError("single query assignment expected")
        return float(self.log_prob_rows(q[None, :])[0])

    # -- sampling -----------------------------------------------------------

    def _compile_descent(self, upward: np.ndarray) -> None:
        """The sampler's tables, from the plan and the cached upward pass.

        The descent's `active` matrix holds one row of reached draws per live
        node, except that a live node whose one parent is a product shares
        that parent's row (it is reached by exactly the same draws), and one
        sink row stands for every constant child, which no draw needs to
        enter.  row_of maps plan rows to active rows.
        """
        plan, n_live = self._plan, self._plan.live.size
        kids = np.concatenate([np.empty(0, np.int64)] + [op.kids.ravel() for op in plan.ops])
        parents = np.bincount(kids, minlength=plan.size)
        row_of = np.arange(plan.size)
        shared = {}  # per product op with live children that have other parents, those (child, parent) plan rows
        for i in reversed(range(len(plan.ops))):  # parents first
            op = plan.ops[i]
            if op.logw is None:
                live = op.kids < n_live
                sole = live & (parents[op.kids] == 1)
                row_of[op.kids[sole]] = row_of[op.ids[np.nonzero(sole)[1]]]
                many = live > sole
                if many.any():
                    shared[i] = op.kids[many], op.ids[np.nonzero(many)[1]]
        own = row_of[:n_live] == np.arange(n_live)  # the rows that keep their own active row
        self._active_rows = int(own.sum())
        row_of[:n_live] = (np.cumsum(own) - 1)[row_of[:n_live]]
        row_of[n_live:] = self._active_rows
        self._root_row = int(row_of[plan.root])

        # Per op, the tables of its step, and a bound on the step's scratch
        # per draw: the reached sums of one op have disjoint scopes that each
        # hold a query column, so a draw reaches at most min(m, |Q|) of them.
        up = np.concatenate((upward[plan.live], plan.consts))
        sum_bytes = 0
        self._descent: list[tuple] = []
        for i, op in enumerate(plan.ops):
            if op.logw is None:
                self._descent.append(_rounds(*(row_of[rows] for rows in shared[i])) if i in shared else ())
                continue
            sum_bytes = max(sum_bytes, op.ids.size + _PAIR_BYTES * min(op.ids.size, self.num_query))
            # For the m sums of a k-child op: an (m, k - 1) table whose row j
            # holds node j's cumulative child-selection probabilities under
            # the cached upward pass, +inf from its last child with positive
            # mass onward.  A draw picks the child at the count of entries <=
            # u, so a u past a float cumsum that ends below 1 still lands on
            # that last child, never on a zero-mass one.  No draw enters a
            # zero-mass node, whose row holds no finite entry.
            with np.errstate(invalid="ignore"):
                probs = np.exp(op.logw[:, :, 0] + up[op.kids] - up[op.ids])
            later = np.logical_or.accumulate(probs[:0:-1] > 0.0, axis=0)[::-1]  # a later child has mass
            cums = np.where(later, np.cumsum(probs[:-1], axis=0), np.inf).T.copy()
            self._descent.append((cums, row_of[op.kids], row_of[op.ids], plan.live[op.ids].astype(np.uint64)))

        # Leaves by query column, flattened: entry c * slots + s is the s-th
        # leaf of query column c (a column with fewer leaves repeats its
        # last), with its active row, node id and theta.  A draw reaches
        # exactly one leaf per column.
        order = np.lexsort((plan.leaf_rows, plan.leaf_cols))
        count = np.bincount(plan.leaf_cols, minlength=self.num_query)
        slot = np.minimum(np.arange(count.max()), count[:, None] - 1) + (np.cumsum(count) - count)[:, None]
        leaf = order[slot]  # (|Q|, slots) indices into the plan's leaf arrays
        self._leaf_slots = np.arange(leaf.size).reshape(leaf.shape)
        self._leaf_rows = row_of[plan.leaf_rows[leaf]]
        self._leaf_ids = plan.live[plan.leaf_rows[leaf]].ravel().astype(np.uint64)
        self._leaf_theta = plan.leaf_theta[leaf].ravel()
        # Bytes per draw that one chunk of the descent holds at its peak: the
        # draw's column of `active` and its counter base, plus the larger of
        # the sum steps' and the leaf step's scratch.
        self._sample_row_bytes = self._active_rows + 1 + 8 + max(sum_bytes, _LEAF_BYTES * self.num_query)

    def sample(self, count: int, rng: int | DrawStream) -> np.ndarray:
        """Draw i.i.d. samples from P(Q | e); returns (count, |Q|) int8.

        Ancestral descent from the root over the folded plan, op by op in
        reverse, each op for all its nodes and draws at once: every (sum,
        draw) pair reached picks one child with the cached conditional
        probabilities, a product passes its draws to its live children, and
        each query column's one reached leaf samples its variable as u <
        theta.  A dead child, a constant row of the plan, would only set
        evidence or nuisance values, which the result discards, so it is
        never entered.  Draw j always consumes substream j; the uniform for
        (draw, node id) is a pure counter function, so it is materialized
        only where the descent actually lands, and neither skipping dead
        nodes nor the chunking of the batch (by the scratch bytes per draw,
        see _compile_descent) changes any draw.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        stream = as_stream(rng)
        chunk = _chunk_rows(self._sample_row_bytes, 1)
        bits = np.empty((count, self.num_query), dtype=np.int8)  # the leaf step writes every entry
        for i in range(0, count, chunk):
            block = bits[i : i + chunk]
            self._descend(stream.seed, stream.cursor, block)
            stream.cursor += block.shape[0]
        return bits

    def _descend(self, seed: int, base: int, bits: np.ndarray) -> None:
        """Fill the (b, |Q|) block `bits` with draws base, ..., base + b - 1.

        `active` holds the draws that reach each node (see _compile_descent).
        Each op costs a few numpy calls, whatever its node count, and so does
        each leaf slot.
        """
        b = bits.shape[0]
        width = np.uint64(len(self.circuit.nodes))
        draw_keys = (np.uint64(base) + np.arange(b, dtype=np.uint64)) * width  # + node id: the counter
        active = np.zeros((self._active_rows + 1, b), dtype=bool)
        active[self._root_row] = True
        # Parents come in later ops than their children, so walking the ops
        # backwards settles each node's draws before it is entered.  A
        # product's children share its row unless they have other parents.
        for op, step in zip(reversed(self._plan.ops), reversed(self._descent)):
            if op.logw is None:
                for kids, parents in step:
                    active[kids] |= active[parents]
            else:
                _descend_sums(step, active, draw_keys, seed)
        slots = self._leaf_slots
        which = np.repeat(slots[:, :1], b, axis=1)
        for s in range(1, slots.shape[1]):
            np.copyto(which, slots[:, s : s + 1], where=active[self._leaf_rows[:, s]])
        del active
        keys = self._leaf_ids[which]
        keys += draw_keys
        u = counter_uniforms(seed, keys)
        del keys
        # An indicator's theta is its value, which u < theta gives for u in [0, 1).
        bits[...] = (u < self._leaf_theta[which]).T


def _descend_sums(step: tuple, active: np.ndarray, draw_keys: np.ndarray, seed: int) -> None:
    """One sum op's descent step: every (node, draw) pair it reached picks a
    child, and the child's row of `active` gets the draw.  Its scratch is
    freed on return, before the next op allocates its own."""
    cums, kids, rows, node_ids = step
    b = active.shape[1]
    j, d = np.divmod(np.flatnonzero(active[rows]), b)
    keys = draw_keys[d]
    keys += node_ids[j]
    u = counter_uniforms(seed, keys)
    del keys
    # The count of table entries <= u, which is searchsorted(side="right").
    choice = np.zeros(j.size, dtype=np.intp)
    for i in range(cums.shape[1]):
        choice += cums[j, i] <= u
    del u
    reached = kids[choice, j]
    reached *= b
    reached += d
    active.reshape(-1)[reached] = True


def _rounds(kids: np.ndarray, parents: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(child, parent) row pairs split into rounds in which no child repeats,
    so that one fancy-indexed OR per round is exact: the i-th pair of a child
    goes to round i."""
    order = np.argsort(kids, kind="stable")
    ranked = kids[order]
    first = np.r_[True, ranked[1:] != ranked[:-1]]
    rank = np.empty(kids.size, dtype=np.int64)
    rank[order] = np.arange(kids.size) - np.maximum.accumulate(np.where(first, np.arange(kids.size), 0))
    return tuple((kids[rank == r], parents[rank == r]) for r in range(int(rank.max(initial=-1)) + 1))


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


def make_oracle(circuit: Circuit, spec: QuerySpec) -> ConditionalOracle:
    """Build a conditional oracle; raises ZeroEvidenceError when p(e) = 0."""
    return ConditionalOracle(circuit, spec)


def sample_joint(circuit: Circuit, count: int, rng: int | DrawStream) -> np.ndarray:
    """Unconditional ancestral samples of all circuit variables."""
    spec = QuerySpec(tuple(range(circuit.num_vars)))
    return ConditionalOracle(circuit, spec).sample(count, rng)


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
        n = int(np.log2(len(log_probs)))
        if 2**n != len(log_probs):
            raise ValueError("table length must be a power of two")
        if n > _TABULAR_CAP:
            raise ValueError(f"table dimension {n} exceeds cap {_TABULAR_CAP}")
        if np.isnan(log_probs).any():
            raise ValueError("table holds NaN entries")
        total = np.exp(np.logaddexp.reduce(log_probs))
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
        if not ((query_rows == 0) | (query_rows == 1)).all():
            raise ValueError("tabular query rows must be 0/1 valued")
        return self.log_probs[pack_rows(query_rows.astype(np.int8, copy=False)).astype(np.intp)]

    def conditional_log_prob(self, query) -> float:
        return float(self.log_prob_rows(np.asarray(query)[None, :])[0])

    def sample(self, count: int, rng: int | DrawStream) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        stream = as_stream(rng)
        u = stream.uniform_block(count, 1).ravel()
        idx = np.searchsorted(self._cdf, u, side="right")
        np.clip(idx, 0, self._last_live, out=idx)
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

"""Smooth, decomposable probabilistic circuits over binary variables.

A circuit is a DAG of Bernoulli/indicator leaves, weighted sum nodes
(mixtures) and product nodes (factorizations), stored as a topologically
ordered array: every edge points from a higher node id to a lower one.
Circuits are immutable after construction and safe to share across threads;
evaluation allocates only per-call scratch.

Text format (UTF-8, line oriented, ``#`` starts a comment)::

    spn v1
    vars <n>
    leaf <id> bernoulli <var> <theta>
    leaf <id> indicator <var> <value>
    sum <id> <child>:<weight> [<child>:<weight> ...]
    prod <id> <child> [<child> ...]
    root <id>

Node ids are consecutive integers starting at 0, children must be declared
on earlier lines, and the single ``root`` line comes last.  Sum weights that
sum to 1 within 1e-6 are kept as written, so parse(serialize(c)) reproduces
c exactly; others are normalized at load with a WeightNormalizationWarning
when every weight and their sum are positive and finite.

Assignments are int8 vectors with values 0/1; the sentinel ``MARGINAL``
(-1) marks a variable summed out during evaluation.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .rng import _integer
MARGINAL = -1

# Cap on the bytes of one chunk's scratch matrix (plan rows x batch rows).
_CHUNK_BYTES = 4_000_000

# Finite stand-in for a -inf running max in the log-sum-exp of a sum node.
_LOG_FLOOR = np.finfo(np.float64).min


class CircuitFormatError(ValueError):
    """Malformed circuit text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class CircuitStructureError(ValueError):
    """A circuit that Circuit refuses.  `.node` is the id of the node that a node
    rule refuses, or None for a rule on the whole circuit (no nodes, the root
    id, num_vars, root-scope coverage); `.report` is a structural violation's
    StructureReport, else None; `.line`, set by parse_circuit, is the refused
    node's line, or the root line when `.node` is None."""

    def __init__(
        self, message: str, report: "StructureReport | None" = None, line: int | None = None, node: int | None = None
    ):
        self.report = report
        self.line = line
        self.node = node
        super().__init__(f"line {line}: {message}" if line is not None else message)


class WeightNormalizationWarning(UserWarning):
    """Raw sum weights deviated from sum 1 by more than 1e-6 at load."""


@dataclass(frozen=True)
class BernoulliLeaf:
    var: int
    theta: float


@dataclass(frozen=True)
class IndicatorLeaf:
    var: int
    value: int


@dataclass(frozen=True)
class SumNode:
    children: tuple[int, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ProductNode:
    children: tuple[int, ...]


Node = Union[BernoulliLeaf, IndicatorLeaf, SumNode, ProductNode]


@dataclass(frozen=True)
class StructureReport:
    is_smooth: bool
    is_decomposable: bool
    violations: tuple[tuple[int, str, str], ...]


class Circuit:
    """Immutable circuit with a level-grouped vectorized evaluator.

    Construction walks the nodes once, children first.  The walk refuses, at
    the first node that breaks one, bad references and parameters; it keeps
    each node's scope as an int bitmask (bit v set <=> var v in scope) and
    the node's smoothness or decomposability violation, and files the node
    as a leaf or in its op group.  A circuit with any violation, or whose
    root scope misses a variable, is refused with the StructureReport of
    every violation in node order, the root's last.
    """

    def __init__(self, nodes: Sequence[Node], root: int, num_vars: int):
        if not nodes:
            raise CircuitStructureError("circuit has no nodes")
        root, num_vars = _checked_int(root, "root id"), _checked_int(num_vars, "num_vars")
        if not (0 <= root < len(nodes)):
            raise CircuitStructureError(f"root id {root} out of range")
        if num_vars < 1:
            raise CircuitStructureError("num_vars must be >= 1")
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.root = root
        self.num_vars = num_vars
        scopes: list[int] = []
        level: list[int] = []
        leaves: list[int] = []
        # Per (level, products before sums, child count), its nodes in id order.
        groups: dict[tuple[int, bool, int], list[int]] = {}
        violations: list[tuple[int, str, str]] = []
        for i, node in enumerate(self.nodes):
            if isinstance(node, (SumNode, ProductNode)):
                is_sum, kids = isinstance(node, SumNode), node.children
                if not kids:
                    raise CircuitStructureError(f"node {i} has no children", node=i)
                for ch in kids:
                    if not (0 <= _checked_int(ch, "child id", i) < i):
                        msg = f"node {i} has a non-topological child reference to node {ch}"
                        raise CircuitStructureError(msg, node=i)
                if is_sum:
                    if len(node.weights) != len(kids):
                        msg = f"node {i} has {len(node.weights)} weights for its children"
                        raise CircuitStructureError(msg, node=i)
                    for w in node.weights:
                        if not (0.0 < _checked_real(w, "weight", i) < np.inf):  # NaN fails too
                            msg = f"node {i} has a weight that is not positive and finite ({w!r})"
                            raise CircuitStructureError(msg, node=i)
                    if abs(sum(node.weights) - 1.0) > 1e-6:
                        raise CircuitStructureError(f"node {i} weights sum to {sum(node.weights)!r}, not 1", node=i)
                # A sum breaks smoothness where a child's scope is not its
                # first child's, a product decomposability where two share a
                # variable; the node's scope is its children's union.
                first = scopes[kids[0]]
                scope, lev, broken = 0, 0, False
                for ch in kids:
                    broken = broken or (scopes[ch] != first if is_sum else (scope & scopes[ch]) != 0)
                    scope |= scopes[ch]
                    lev = max(lev, level[ch] + 1)
                if broken and is_sum:
                    violations.append((i, "smoothness", "sum children have differing scopes"))
                elif broken:
                    violations.append((i, "decomposability", "product children share variables"))
                groups.setdefault((lev, is_sum, len(kids)), []).append(i)
            else:
                var = _checked_int(node.var, "variable index", i)
                if not (0 <= var < num_vars):
                    raise CircuitStructureError(f"node {i} references variable {var} >= {num_vars}", node=i)
                if isinstance(node, BernoulliLeaf) and not (0.0 <= _checked_real(node.theta, "theta", i) <= 1.0):
                    raise CircuitStructureError(f"node {i} has theta {node.theta} outside [0, 1]", node=i)
                if isinstance(node, IndicatorLeaf) and node.value not in (0, 1):
                    raise CircuitStructureError(f"node {i} has indicator value {node.value!r}, not 0 or 1", node=i)
                scope, lev = 1 << var, 0
                leaves.append(i)
            scopes.append(scope)
            level.append(lev)
        self.scopes: tuple[int, ...] = tuple(scopes)
        if scopes[self.root] != (1 << self.num_vars) - 1:
            violations.append((self.root, "scope", "root scope does not cover all declared variables"))
        if violations:
            props = {prop for _, prop, _ in violations}
            report = StructureReport("smoothness" not in props, "decomposability" not in props, tuple(violations))
            nid, prop, desc = violations[0]  # root-scope coverage refuses the circuit, not a node
            msg = f"node {nid}: {prop} violation ({desc})"
            raise CircuitStructureError(msg, report, node=None if prop == "scope" else nid)
        # Each level runs its products, then its sums, one op per child count.
        self._plan = self._compile(leaves, [groups[key] for key in sorted(groups)])
        self._node_rows = np.argsort(self._plan.live)  # the full plan's value row of each node id

    # -- evaluation ---------------------------------------------------------

    def _compile(self, leaves: list[int], groups: list[list[int]]) -> "_Plan":
        """The full plan over the walk's `leaves` and its op `groups`, in op
        order; also sets the leaves' _max_table and _leaf_theta."""
        nodes = self.nodes
        # An indicator leaf for value v is a Bernoulli leaf with theta = v.
        is_ind = np.asarray([isinstance(nodes[i], IndicatorLeaf) for i in leaves], dtype=bool)
        self._leaf_theta = theta = np.asarray(
            [nodes[i].value if ind else nodes[i].theta for i, ind in zip(leaves, is_ind)], dtype=np.float64
        )
        with np.errstate(divide="ignore"):  # theta 0 or 1 gives a -inf entry
            log1 = np.log(theta)
            # log1p(-0) is -0.0; an indicator's exact log(1 - v) keeps +0.0.
            log0 = np.where(is_ind, np.log(1.0 - theta), np.log1p(-theta))
        # A MARGINAL entry sums the leaf over its domain (ln 1 = 0) or, in a
        # max pass, takes its larger value.
        leaf_table = np.stack((np.zeros_like(log0), log0, log1), axis=1)
        self._max_table = np.stack((np.maximum(log0, log1), log0, log1), axis=1)

        # Packed rows: the leaves, then each op's nodes in op order.
        live = np.asarray(leaves + [i for group in groups for i in group], dtype=np.int64)
        row_of = np.empty(len(nodes), dtype=np.int64)
        row_of[live] = np.arange(live.size)
        ops = []
        for group in groups:
            kids = row_of[np.asarray([nodes[i].children for i in group], dtype=np.int64).T]
            logw = None
            if isinstance(nodes[group[0]], SumNode):
                logw = np.log(np.asarray([nodes[i].weights for i in group], dtype=np.float64)).T[:, :, None]
            ops.append(_Op(row_of[group], kids, logw))
        return _Plan(
            width=self.num_vars,
            root=int(row_of[self.root]),
            live=live,
            leaf_cols=np.asarray([[nodes[i].var] for i in leaves], dtype=np.int64),
            leaf_base=np.arange(1, 3 * len(leaves), 3),
            leaf_table=leaf_table,
            ops=tuple(ops),
            consts=np.empty(0, dtype=np.float64),
        )

    def _column_counts(self, columns: Sequence[int]) -> np.ndarray:
        """Per full-plan row, the columns its scope meets, as (count << 32) +
        the sum of column + 1 over them, column j holding columns[j].  A
        product's count is the sum of its children's, because products are
        decomposable, and a sum's is its first child's, because sums are
        smooth.  A carry out of the low bits can only raise a count of 5 or
        more, so every count reads as 0 to 4 or at least 5, and the low bits
        of a count of 1 name its column."""
        full = self._plan
        col_of = np.full(self.num_vars, len(columns), dtype=np.int64)
        col_of[np.asarray(columns, dtype=np.int64)] = np.arange(len(columns))
        col = col_of[full.leaf_cols[:, 0]]
        counts = np.zeros(full.size, dtype=np.int64)
        counts[: col.size] = np.where(col < len(columns), (1 << 32) + 1 + col, 0)
        for op in full.ops:
            rows = slice(op.ids[0], op.ids[-1] + 1)  # the full plan is packed
            counts[rows] = counts[op.kids].sum(axis=0) if op.logw is None else counts[op.kids[0]]
        return counts

    def _fold(self, counts: np.ndarray, width: int, upward: np.ndarray) -> "_Plan":
        """The scoring plan: ops for the nodes that meet five or more columns.

        `counts` is _column_counts of the variables that its `width` input
        columns hold.  `upward` is the full plan's (size, 3) value matrix for
        three rows with every other variable fixed and those variables all
        MARGINAL, then all 0, then all 1.  A node whose scope misses the
        columns takes the same value in every row, so a dead child of a
        kept node becomes a constant row holding its first entry of `upward`.
        It keeps its place in its parent's child list, so every kept node
        sums the same terms in the same order as in the full plan, and its
        value is bit-identical to the full evaluation of the rows with the
        other variables filled in.

        Each child of a kept node, or the root, that meets one to four
        columns becomes a table leaf: its value is a function of the entries
        of its columns alone, and its 81-entry table holds that function at
        sum_i 3**(3 - i) * (x[c_i] + 1) over its column tuple c, the columns
        it meets in ascending order, padded to four with its first column;
        the table does not depend on the padded digits.  A one-column node's
        entries are its three entries of `upward`.  A node that meets two to
        four columns gets its entries bottom-up over the full plan's ops,
        with no pass over rows (see _fill_tables): each child's entries are
        read through _MAP, by the positions of the node's tuple that hold the
        child's columns, and the op's arithmetic runs on them through
        _op_step, the op body of a pass over rows.  So every entry is
        bit-identical to the node's value in a pass over a row with those
        entries.

        The plan is packed: its leaves, then each kept op's nodes in op
        order, then the constants, each in full-plan row order.
        """
        full = self._plan
        inner = counts >= (5 << 32)  # the kept ops' nodes; never a leaf, which meets at most one column
        read = np.zeros(full.size, dtype=bool)  # the kept ops' children, and the root
        read[full.root] = True
        kept = []
        for op in full.ops:
            keep = inner[op.ids]
            if keep.any():
                kept.append(_Op(op.ids[keep], op.kids[:, keep], None if op.logw is None else op.logw[:, keep]))
                read[kept[-1].kids] = True

        leaves = np.flatnonzero(read & ~inner & (counts > 0))
        dead = np.flatnonzero(read & (counts == 0))
        order = np.concatenate((leaves, np.flatnonzero(inner), dead))
        row_of = np.full(full.size, -1, dtype=np.int64)
        row_of[order] = np.arange(order.size)
        leaf_cols, leaf_table = _fill_tables(full, counts >> 32, counts & 0xFFFFFFFF, upward, leaves)
        return _Plan(
            width=width,
            root=int(row_of[full.root]),
            live=full.live[order[: order.size - dead.size]],
            leaf_cols=leaf_cols,
            leaf_base=np.arange(40, 81 * leaves.size, 81),
            leaf_table=leaf_table,
            ops=tuple(_Op(row_of[op.ids], row_of[op.kids], op.logw) for op in kept),
            consts=upward[dead, 0],
        )

    def log_forward(self, rows: np.ndarray) -> np.ndarray:
        """Log value of every node for a batch of (possibly partial) rows.

        `rows` has shape (B, num_vars) with entries in {0, 1, MARGINAL}; a
        MARGINAL entry sums the corresponding leaf over its domain.  Returns
        (num_nodes, B) float64.  For large batches prefer log_root, which
        chunks to bound scratch memory.  This and max_forward run the full
        plan through the same level loop that runs an oracle's plans, then
        put its packed rows in node-id order.  Any other entry raises
        ValueError.
        """
        return self._forward(_check_entries(rows), self._plan, maximize=False)[self._node_rows]

    def max_forward(self, rows: np.ndarray) -> np.ndarray:
        """log_forward with every sum replaced by its largest weighted child.

        A MARGINAL entry is maximized over {0, 1} at the leaves rather than
        summed out.  Same shapes and checks as log_forward.
        """
        return self._forward(_check_entries(rows), self._plan, maximize=True)[self._node_rows]

    def _forward(self, rows: np.ndarray, plan: "_Plan", maximize: bool) -> np.ndarray:
        """The one level loop: evaluate the packed `plan` on (B, plan.width) rows.

        Returns the (plan rows, B) value matrix in the plan's packed order
        (see _Plan): the leaves, then each op's nodes, then the constants.
        Every op writes its one slice of it.  The entries of `rows` must be
        0, 1 or MARGINAL (see _check_entries): the leaf step does not check.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int8))
        if rows.shape[1] != plan.width:
            raise ValueError(f"assignment rows have {rows.shape[1]} variables, expected {plan.width}")
        b = rows.shape[0]
        values = np.empty((plan.size, b), dtype=np.float64)
        values[plan.live.size :] = plan.consts[:, None]

        # One take from the flat leaf table, at leaf_base[l] + an int8 offset
        # (see _Plan): the int8 sum_i 3**(w - 1 - i) * x_i over a leaf's w
        # columns, in [-40, 40], summed by Horner's rule, which is entry x of
        # a one-column leaf's column.  mode="clip" spares the buffered copy
        # that mode="raise" makes for `out`; the entries were range-checked
        # before this point.  Each gather copies whole rows of the transposed
        # block, which took half the time of gathering from the strided view
        # rows.T.  Only the full plan runs max passes.
        n_leaves = plan.leaf_base.size
        cols = np.ascontiguousarray(rows.T)
        index = cols[plan.leaf_cols[:, 0]]
        for i in range(1, plan.leaf_cols.shape[1]):
            index *= np.int8(3)
            index += cols[plan.leaf_cols[:, i]]
        del cols
        index = index + plan.leaf_base[:, None]
        table = self._max_table if maximize else plan.leaf_table
        np.take(table.reshape(-1), index, out=values[:n_leaves], mode="clip")
        del index

        for op in plan.ops:
            out = values[op.ids[0] : op.ids[0] + op.ids.size]
            _op_step(np.take(values, op.kids, axis=0), op.logw, out, maximize)
        return values

    def log_root(self, rows: np.ndarray) -> np.ndarray:
        """Root log value per row, chunking the batch to bound memory."""
        return self._root(_check_entries(rows), self._plan)

    def _root(self, rows: np.ndarray, plan: "_Plan", at: np.ndarray | None = None) -> np.ndarray:
        """Root value of `plan` per row (row i's value at plan row at[i] where
        `at` is given), one chunk of rows at a time.

        Only one entry per row of each chunk's value matrix is copied out, so
        peak memory is one chunk's matrix however many rows there are.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int8))
        chunk = _chunk_rows(plan.size, np.dtype(np.float64).itemsize)
        out = np.empty(rows.shape[0], dtype=np.float64)
        for i in range(0, rows.shape[0], chunk):
            block = rows[i : i + chunk]
            where = plan.root if at is None else (at[i : i + chunk], np.arange(block.shape[0]))
            # No name holds a chunk's matrix, so it is freed before the next one.
            out[i : i + chunk] = self._forward(block, plan, maximize=False)[where]
        return out

    def _max_product(self, row: np.ndarray, amp: bool) -> np.ndarray:
        """The max-product baselines' assignment for the evidence row `row`.

        Both start from one max pass over the full plan.  mp walks down from
        the root, op by op: a sum passes the walk to its first child with the
        largest weighted max value, a product to every child, and each leaf
        reached sets its column to its evidence entry, else to 1 only where
        theta > 0.5.  Every variable is in the root's scope, so the walk sets
        every column.

        amp runs one bottom-up loop that keeps per node the trace of the max
        pass, which is the assignment mp's walk from that node would set, and
        a candidate.  A leaf's trace is as above; a product joins its
        children's traces, whose scopes are disjoint, as their elementwise
        max (MARGINAL is -1); a sum takes the trace of its first child with
        the largest weighted max value.  The candidate is the trace at leaves
        and products; at a sum it is the first best of the children's
        candidates and the sum's own trace, scored at the sum node, and all
        candidates of one op are scored together.

        Returns mp's assignment, or amp's root candidate: a (num_vars,) row
        that keeps the evidence.
        """
        plan = self._plan
        cols = plan.leaf_cols[:, 0]
        max_vals = self._forward(row[None, :], plan, maximize=True)[:, 0]
        leaf_vals = np.where(row[cols] == MARGINAL, self._leaf_theta > 0.5, row[cols])
        if not amp:
            reached = np.zeros(plan.size, dtype=bool)
            reached[plan.root] = True
            for op in reversed(plan.ops):
                at = reached[op.ids]
                kids = op.kids[:, at]
                if op.logw is not None:
                    best = np.argmax(max_vals[kids] + op.logw[:, at, 0], axis=0)
                    kids = kids[best, np.arange(kids.shape[1])]
                reached[kids] = True
            out = row.copy()
            leaves = reached[: cols.size]
            out[cols[leaves]] = leaf_vals[leaves]
            return out
        trace = np.full((plan.size, plan.width), MARGINAL, dtype=np.int8)
        trace[np.arange(cols.size), cols] = leaf_vals
        cand = trace.copy()
        for op in plan.ops:
            m = op.ids.size
            if op.logw is None:
                trace[op.ids] = trace[op.kids].max(axis=0)
                cand[op.ids] = cand[op.kids].max(axis=0)
                continue
            trace[op.ids] = trace[op.kids[np.argmax(max_vals[op.kids] + op.logw[:, :, 0], axis=0), np.arange(m)]]
            rows = np.concatenate((cand[op.kids], trace[op.ids][None]))  # (k + 1, m, width)
            scores = self._root(rows.reshape(-1, plan.width), plan, np.tile(op.ids, len(rows)))
            cand[op.ids] = rows[scores.reshape(len(rows), m).argmax(axis=0), np.arange(m)]
        return cand[plan.root]


def _checked_int(value, what: str, node: int | None = None) -> int:
    """`value` through operator.index (numpy integers pass); else a
    CircuitStructureError naming `what` of node `node`, or of the circuit."""
    try:
        return operator.index(value)
    except TypeError:
        owner = "circuit" if node is None else f"node {node}"
        raise CircuitStructureError(f"{owner} has {what} {value!r}, not an integer", node=node) from None


def _checked_real(value, what: str, node: int) -> float:
    """`value` if it is a Python or numpy int or float; else a
    CircuitStructureError naming `what` of node `node`."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise CircuitStructureError(f"node {node} has {what} {value!r}, not a number", node=node)
    return value


def _check_entries(rows) -> np.ndarray:
    """`rows` as an int8 block; raises ValueError on entries other than 0, 1
    and MARGINAL, which the leaf step would read as some other entry."""
    rows = np.atleast_2d(np.asarray(rows))
    if not ((rows == 0) | (rows == 1) | (rows == MARGINAL)).all():
        raise ValueError("assignment entries must be 0, 1 or MARGINAL")
    return rows.astype(np.int8, copy=False)


def _chunk_rows(plan_size: int, itemsize: int) -> int:
    """Rows per chunk that keep a (plan_size, rows) scratch matrix of
    `itemsize`-byte entries within _CHUNK_BYTES (read at call time)."""
    return max(1, _CHUNK_BYTES // (plan_size * itemsize))


def _op_step(terms: np.ndarray, logw: np.ndarray | None, out: np.ndarray, maximize: bool) -> None:
    """One op's arithmetic: write into the (m, B) `out` its m nodes' values
    from their children's, terms[j] holding each node's j-th child's.

    A product adds its children, a sum takes the log-sum-exp of its weighted
    children, or their max in a max pass.  Children are added in
    np.add.reduceat's order (see _reduceat_sum), so every value is the one a
    segmented reduceat over the children gives; reduceat along axis 0 runs
    column by column and took about ten times as long.  Each entry of `out`
    depends on its own column of `terms` alone.  Overwrites `terms`.
    """
    if logw is None:
        _reduceat_sum(list(terms), out)
        return
    terms += logw
    if maximize:
        terms.max(axis=0, out=out)
        return
    mx = terms.max(axis=0)
    # A sum whose children are all -inf keeps exp(-inf - floor) = 0 and
    # log(0) = -inf, instead of the NaN from -inf - -inf.
    np.maximum(mx, _LOG_FLOOR, out=mx)
    terms -= mx
    np.exp(terms, out=terms)
    _reduceat_sum(list(terms), out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += mx


def _fill_tables(
    full: "_Plan", count: np.ndarray, low: np.ndarray, upward: np.ndarray, leaves: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The column tuples and 81-entry tables of the scoring plan's table
    leaves, the full-plan rows `leaves` (see Circuit._fold).

    `count` holds the columns each full-plan row meets, exact up to 4, and
    `low` holds column + 1 where the count is 1.  A row's tuple t is the
    columns it meets in ascending order, and a row that meets c columns
    needs only its 3**c entries, at sum_{j < c} 3**(c - 1 - j) * (x[t_j] +
    1): a one-column row has its three of `upward`, and a constant row is
    read at its first.  Only the ops that hold rows meeting two to four
    columns run, and only on those rows, with one _op_step call per count.
    A child's columns are an ascending subset of its parent's tuple, so it
    reads its entries through _MAP by the mask of the positions they hold.
    The leaves' entries are spread to 81 at the end.  Returns the (leaves,
    4) tuples, padded with their first column, and the (leaves, 81) tables.
    """
    size = full.size
    past = np.iinfo(np.int64).max  # sorts after every column
    tup = np.full((size, 4), past, dtype=np.int64)  # each row's column tuple, `past` after its count
    one = np.flatnonzero(count == 1)
    tup[one, 0] = low[one] - 1
    # One flat array of entries: each row's three of `upward`, then the 3**c
    # of each row that meets c = 2 to 4 columns, in the order they are
    # filled.  Row r's entries start at base[r].
    table = (count >= 2) & (count <= 4)
    base = 3 * np.arange(size)
    entries = np.empty(3 * size + int((3 ** count[table]).sum()))
    entries[: 3 * size] = upward.ravel()
    free = 3 * size  # where the next row's entries go
    for op in full.ops:
        at = np.flatnonzero(table[op.ids[0] : op.ids[-1] + 1])  # the full plan is packed
        if not at.size:
            continue
        at = at[np.argsort(count[op.ids[at]], kind="stable")]  # so each count's nodes are one range
        kids, ids = op.kids[:, at], op.ids[at]
        if op.logw is None:
            # The children's columns are disjoint, so sorting their joined
            # tuples gives the node's, and its position p came from child
            # pick[p] // 4.  A child's mask sets the positions below the
            # node's count that came from it.
            joined = tup[kids.T].reshape(at.size, -1)
            pick = np.argsort(joined, axis=1)[:, :4]
            tup[ids] = joined[np.arange(at.size)[:, None], pick]
            from_kid = pick // 4 == np.arange(len(kids))[:, None, None]  # (k, nodes, 4)
            mask = (from_kid @ _BITS) & ((1 << count[ids]) - 1)
        else:
            # A sum's children meet exactly its columns: each holds its
            # first c positions.
            tup[ids] = tup[kids[0]]
            mask = (1 << count[kids]) - 1
        logw = None if op.logw is None else op.logw[:, at]
        lo = 0
        for n, m in enumerate(np.bincount(count[ids], minlength=5).tolist()):
            if not m:
                continue
            g = slice(lo, lo + m)
            lo += m
            # A node's entries are those of its 81 whose last 4 - n digits are 0.
            index = base[kids[:, g]][..., None] + _MAP[:, :: 3 ** (4 - n)][mask[:, g]]
            base[ids[g]] = np.arange(free, free + m * 3**n, 3**n)
            out = entries[free : free + m * 3**n].reshape(m, 3**n)
            free += m * 3**n
            _op_step(entries[index], None if logw is None else logw[:, g], out, maximize=False)
    cols = tup[leaves]
    own = base[leaves][:, None] + _MAP[(1 << count[leaves]) - 1]
    return np.where(cols == past, cols[:, :1], cols), entries[own]


def _child_map() -> np.ndarray:
    """_MAP: row `mask` reads, for each of a parent's 81 entries, the entry
    of a child whose columns sit at the parent's tuple positions p_0 < p_1 <
    ... that `mask` sets.  Entry e has digit p, e // 3**(3 - p) % 3, which
    is x + 1 for the parent's p-th column, so it reads the child's entry
    sum_j 3**(c - 1 - j) * digit(e, p_j) over the c positions.  A constant
    child has mask 0 and is read at its first entry."""
    digits = (np.arange(81) // 3 ** np.arange(3, -1, -1)[:, None] % 3).astype(np.int8)  # (4, 81)
    out = np.zeros((16, 81), dtype=np.int8)
    for mask in range(16):
        for p in range(4):
            if mask >> p & 1:
                out[mask] = 3 * out[mask] + digits[p]
    return out


_MAP = _child_map()
_BITS = 1 << np.arange(4)  # the mask bit of each tuple position


@dataclass(frozen=True)
class _Op:
    """One level's product or sum nodes that have k children each."""

    ids: np.ndarray  # (m,) value rows of the nodes, one contiguous range
    kids: np.ndarray  # (k, m): row j holds every node's j-th child
    logw: np.ndarray | None  # (k, m, 1) log sum weights aligned with kids; None for products


def _reduceat_sum(terms: list[np.ndarray], out: np.ndarray) -> None:
    """Write terms[0] + terms[1] + ... into `out`, bit for bit as
    np.add.reduceat along axis 0.

    reduceat adds a segment's first row to the pairwise sum of its other
    rows.  Overwrites the arrays in `terms`.
    """
    if len(terms) == 1:
        np.copyto(out, terms[0])
    else:
        np.add(terms[0], _pairwise_sum(terms[1:]), out=out)


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Sum of equal-shape arrays in the order of numpy's pairwise summation.

    Overwrites the arrays in `terms`.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total
    if n <= 128:
        acc = terms[:8]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                acc[j] += terms[i + j]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for t in terms[i:]:
            total += t
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


@dataclass(frozen=True)
class _Plan:
    """A compiled evaluation plan: leaf tables, level ops and constant rows.

    A plan is a circuit's full plan, an oracle's scoring plan (see
    Circuit._fold) or its ball plan (see _ball_plan).  Every plan is packed:
    its value rows are the leaves, row l holding leaf l, then each op's
    nodes in op order, each op one contiguous range, then the consts.size
    constant rows.  Row r < len(live) holds node live[r], which is not
    ascending; a ball plan's slot rows sit after the nodes of their leaf
    block or op, and hold the node they are a slot of.

    Leaf l reads the w input columns c = leaf_cols[l] of a (B, width) block
    and takes entry sum_i 3**(w - 1 - i) * (x[c_i] + 1) of a 3**w-entry row
    of leaf_table.  In the full plan, w = 1 and leaf l is a circuit leaf,
    whose row holds its value for its column's MARGINAL, 0 or 1.  In a
    scoring plan and its ball plan, w = 4 and leaf l is a table leaf, a node
    whose value depends on at most four columns: c is its column tuple (the
    columns it meets in ascending order, padded with the first where it
    meets fewer), and its row does not depend on the padded digits.
    leaf_base[l] is the index into the flat leaf_table of leaf l's entry
    where its columns all read 0, r * 3**w + (3**w - 1) // 2 for its row r,
    which a ball plan's slot leaves share with their leaf.
    """

    width: int
    root: int
    live: np.ndarray
    leaf_cols: np.ndarray  # (leaves, w): the input columns each leaf reads
    leaf_base: np.ndarray  # (leaves,) the flat leaf_table index at which each leaf's columns all read 0
    leaf_table: np.ndarray  # (rows, 3**w): the sum pass's values, by the entries read
    ops: tuple[_Op, ...]
    consts: np.ndarray

    @property
    def size(self) -> int:
        return self.live.size + self.consts.size


def _ball_plan(plan: _Plan) -> tuple[_Plan, np.ndarray]:
    """`plan` extended to score a row and all its one-flip neighbours in one pass.

    A row that differs from the center only in column q changes only the
    nodes whose scope holds q.  The extended plan keeps plan's value rows,
    which hold the center's values, and adds one slot row per (node, q) with
    q in the node's scope, which holds the node's value with column q
    flipped.  Its input row is [center, 1 - center].  A leaf has one slot
    per column it meets: its slot for q reads the flipped copy of column q
    wherever its tuple holds q, the padded copies included, and its other
    columns as the leaf does.  Each op evaluates its nodes and their slots
    together; a slot's child is the child's slot for q where the child has
    one and the child's center row elsewhere.  So every slot is computed from the same inputs by the same
    arithmetic as in a full pass over the flipped row, and is bit-identical
    to it.

    The extended plan is packed: its value rows are plan's leaves, their
    slots, then per op its nodes and their slots, then plan's constants.
    It shares plan's leaf_table, which each slot reads at its leaf's
    leaf_base.  Returns it and the (width + 1,) value rows of the root for
    the center and for each flipped column.
    """
    width, n_live, n_leaves, cols = plan.width, plan.live.size, plan.leaf_base.size, plan.leaf_cols
    # holds[r, q]: the scope of value row r holds input column q.
    holds = np.zeros((plan.size, width), dtype=bool)
    holds[np.arange(n_leaves)[:, None], cols] = True
    for op in plan.ops:
        holds[op.ids] = holds[op.kids].any(axis=0)
    flat = holds.ravel()
    keys = np.flatnonzero(flat)  # slot k is (row, column) divmod(keys[k], width)
    # Plan rows in blocks: the leaves, each op's nodes, the constants.  A
    # block's slots follow it, so its rows move past the slots of earlier
    # blocks, and slot k, in block [lo, hi), lands on row hi + k.
    edges = np.asarray([0, n_leaves] + [op.ids[-1] + 1 for op in plan.ops] + [n_live, plan.size])
    lo, hi = np.repeat(edges[:-1], np.diff(edges)), np.repeat(edges[1:], np.diff(edges))
    shift = np.concatenate(([0], np.cumsum(holds.sum(axis=1))))[lo]

    def slot(r: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Extended value row of the slot (r, q), which must exist."""
        return hi[r] + np.searchsorted(keys, r * width + q)

    def flipped(r: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Extended value row of plan row r when column q is flipped."""
        return np.where(flat[r * width + q], slot(r, q), r + shift[r])

    ops = []
    for op in plan.ops:
        j, q = np.divmod(np.flatnonzero(holds[op.ids]), width)
        ops.append(
            _Op(
                np.concatenate((op.ids + shift[op.ids], slot(op.ids[j], q))),
                np.concatenate((op.kids + shift[op.kids], flipped(op.kids[:, j], q)), axis=1),
                None if op.logw is None else np.concatenate((op.logw, op.logw[:, j]), axis=1),
            )
        )
    live = np.empty(n_live + keys.size, dtype=np.int64)
    live[np.arange(n_live) + shift[:n_live]] = plan.live
    slot_rows = keys // width
    live[hi[slot_rows] + np.arange(keys.size)] = plan.live[slot_rows]
    root = plan.root + int(shift[plan.root])
    roots = np.concatenate(([root], flipped(np.full(width, plan.root), np.arange(width))))
    # The leaves' slots come first; the slot (leaf, q) reads the flipped copy
    # of each of the leaf's columns that is q, and its other column as the
    # leaf does.
    leaf, q = np.divmod(keys[: np.searchsorted(keys, n_leaves * width)], width)
    slot_cols = cols[leaf] + width * (cols[leaf] == q[:, None])
    ball = _Plan(
        width=2 * width,
        root=root,
        live=live,
        leaf_cols=np.concatenate((cols, slot_cols)),
        leaf_base=np.concatenate((plan.leaf_base, plan.leaf_base[leaf])),
        leaf_table=plan.leaf_table,
        ops=tuple(ops),
        consts=plan.consts,
    )
    return ball, roots


def evaluate_complete(circuit: Circuit, assignment: Sequence[int] | np.ndarray) -> float:
    """ln p(x) for a complete assignment of all variables."""
    x = np.asarray(assignment, dtype=np.int8)
    if x.ndim != 1 or x.shape[0] != circuit.num_vars:
        raise ValueError(f"assignment has length {x.shape}, expected ({circuit.num_vars},)")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("complete assignment must be 0/1 valued")
    return float(circuit.log_root(x[None, :])[0])


def evaluate_marginal(
    circuit: Circuit, evidence: dict[int, int], marginalized: Iterable[int]
) -> float:
    """ln p(evidence) with the given variables summed out.

    Evidence keys and the marginalized set must be disjoint and together
    cover every circuit variable.
    """
    marg = {_integer(v, "marginalized variable") for v in marginalized}
    keys = {_integer(v, "evidence variable") for v in evidence}
    if marg & keys:
        raise ValueError(f"variables {sorted(marg & keys)} are both evidence and marginalized")
    missing = set(range(circuit.num_vars)) - marg - keys
    if missing:
        raise ValueError(f"variables {sorted(missing)} neither assigned nor marginalized")
    if (marg | keys) - set(range(circuit.num_vars)):
        raise ValueError("variable index out of range")
    for v, val in evidence.items():
        if val not in (0, 1):
            raise ValueError(f"evidence value for variable {v} must be 0 or 1")
    return float(circuit.log_root(_evidence_row(circuit.num_vars, evidence)[None, :])[0])


def _evidence_row(num_vars: int, evidence: dict[int, int]) -> np.ndarray:
    """The (num_vars,) int8 row holding the evidence, MARGINAL elsewhere."""
    row = np.full(num_vars, MARGINAL, dtype=np.int8)
    row[list(evidence)] = list(evidence.values())
    return row


# -- text format ------------------------------------------------------------


def _text_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of a circuit, query spec or bench
    config text that holds more than a `#` comment, comment and edges cut."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format (see the module docstring).

    Only the text format is checked here (header, vars line, directives,
    token counts, number syntax, node order, a child per sum and product,
    nothing after root); its first error raises CircuitFormatError with the
    line number.  Every node rule is Circuit's, checked once the whole file
    is read, so a format error on any line is reported first; a refusal
    raises Circuit's CircuitStructureError with `.line` set from its `.node`.
    """
    nodes: list[Node] = []
    node_lines: list[int] = []  # the line of each node, then of the root
    num_vars: int | None = None
    root: int | None = None
    saw_header = False

    def fail(msg: str, ln: int):
        raise CircuitFormatError(msg, ln)

    for ln, line in _text_lines(text):
        tokens = line.split()
        if root is not None:
            fail("content after root line", ln)
        if not saw_header:
            if tokens != ["spn", "v1"]:
                fail("expected header 'spn v1'", ln)
            saw_header = True
            continue
        kind = tokens[0]
        if kind == "vars":
            if num_vars is not None:
                fail("duplicate vars line", ln)
            if len(tokens) != 2:
                fail("vars line takes one integer", ln)
            num_vars = _parse_int(tokens[1], "variable count", ln)
            if num_vars < 1:
                fail("vars must be >= 1", ln)
            continue
        if num_vars is None:
            fail("vars line must precede node declarations", ln)
        node_lines.append(ln)

        if kind == "root":
            if len(tokens) != 2:
                fail("root line takes one node id", ln)
            root = _parse_int(tokens[1], "root id", ln)
            continue

        if kind not in ("leaf", "sum", "prod"):
            fail(f"unknown directive {kind!r}", ln)
        if len(tokens) < 2:
            fail(f"{kind} line missing node id", ln)
        nid = _parse_int(tokens[1], "node id", ln)
        if nid != len(nodes):
            fail(f"node id {nid} out of order (expected {len(nodes)})", ln)

        if kind == "leaf":
            if len(tokens) != 5:
                fail("leaf line takes: leaf <id> <kind> <var> <param>", ln)
            var = _parse_int(tokens[3], "variable index", ln)
            if tokens[2] == "bernoulli":
                try:
                    nodes.append(BernoulliLeaf(var, float(tokens[4])))
                except ValueError:
                    fail(f"bad theta {tokens[4]!r}", ln)
            elif tokens[2] == "indicator":
                nodes.append(IndicatorLeaf(var, _parse_int(tokens[4], "indicator value", ln)))
            else:
                fail(f"unknown leaf kind {tokens[2]!r}", ln)
        elif kind == "sum":
            if len(tokens) < 3:
                fail("sum node needs at least one child", ln)
            children: list[int] = []
            weights: list[float] = []
            for tok in tokens[2:]:
                if ":" not in tok:
                    fail(f"sum child {tok!r} must be <child>:<weight>", ln)
                cs, ws = tok.split(":", 1)
                children.append(_parse_int(cs, "child id", ln))
                try:
                    weights.append(float(ws))
                except ValueError:
                    fail(f"bad weight {ws!r}", ln)
            total = sum(weights)
            # Weights that are not all positive and finite, with a finite sum,
            # pass through unchanged for Circuit to refuse at this line.
            if abs(total - 1.0) > 1e-6 and all(0.0 < w < np.inf for w in (*weights, total)):
                warnings.warn(
                    f"sum node {nid}: raw weights sum to {total!r}, normalizing",
                    WeightNormalizationWarning,
                    stacklevel=2,
                )
                weights = [w / total for w in weights]
            nodes.append(SumNode(tuple(children), tuple(weights)))
        else:  # prod
            if len(tokens) < 3:
                fail("product node needs at least one child", ln)
            nodes.append(ProductNode(tuple(_parse_int(tok, "child id", ln) for tok in tokens[2:])))

    if not saw_header:
        raise CircuitFormatError("empty input: expected 'spn v1' header")
    if num_vars is None:
        raise CircuitFormatError("missing vars line")
    if root is None:
        raise CircuitFormatError("root undeclared")
    try:
        return Circuit(nodes, root, num_vars)
    except CircuitStructureError as exc:
        line = node_lines[-1 if exc.node is None else exc.node]
        raise CircuitStructureError(str(exc), exc.report, line, exc.node) from None


def _parse_int(token: str, what: str, ln: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise CircuitFormatError(f"bad {what} {token!r}", ln) from None
    if value < 0:
        raise CircuitFormatError(f"{what} must be non-negative", ln)
    return value


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c exactly.

    Numbers are written as Python ints and floats, so numpy scalars and bools,
    which Circuit accepts, are written in a form parse_circuit reads."""
    out = ["spn v1", f"vars {circuit.num_vars}"]
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, BernoulliLeaf):
            out.append(f"leaf {i} bernoulli {int(node.var)} {float(node.theta)!r}")
        elif isinstance(node, IndicatorLeaf):
            out.append(f"leaf {i} indicator {int(node.var)} {int(node.value)}")
        elif isinstance(node, SumNode):
            pairs = " ".join(f"{int(c)}:{float(w)!r}" for c, w in zip(node.children, node.weights))
            out.append(f"sum {i} {pairs}")
        else:
            out.append(f"prod {i} " + " ".join(str(int(c)) for c in node.children))
    out.append(f"root {circuit.root}")
    return "\n".join(out) + "\n"


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_circuit(circuit))


# -- generators --------------------------------------------------------------


def generate_random_circuit(n: int, depth: int, fanout: int, seed: int) -> Circuit:
    """Random smooth decomposable circuit over n variables.

    Recursive region splitting: a singleton region becomes a Bernoulli leaf;
    while depth remains, a region becomes a mixture of `fanout` products,
    each product splitting the region by a fresh random balanced bipartition;
    exhausted depth factorizes straight down to leaves.  Deterministic in
    seed.
    """
    if n < 1 or depth < 1 or fanout < 2:
        raise ValueError("need n >= 1, depth >= 1, fanout >= 2")
    rng = np.random.default_rng(seed)
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def leaf(var: int) -> int:
        return add(BernoulliLeaf(var, float(rng.uniform(0.05, 0.95))))

    def product_split(region: np.ndarray, depth_left: int) -> int:
        perm = rng.permutation(region)
        half = len(perm) // 2
        left = gen_region(perm[:half], depth_left)
        right = gen_region(perm[half:], depth_left)
        return add(ProductNode((left, right)))

    def gen_region(region: np.ndarray, depth_left: int) -> int:
        if len(region) == 1:
            return leaf(int(region[0]))
        if depth_left <= 0:
            return product_split(region, 0)
        children = tuple(product_split(region, depth_left - 1) for _ in range(fanout))
        weights = tuple(float(w) for w in rng.dirichlet(np.ones(fanout)))
        return add(SumNode(children, weights))

    root = gen_region(np.arange(n), depth)
    return Circuit(nodes, root, n)


def generate_deterministic_circuit(n: int, seed: int) -> Circuit:
    """Circuit whose sums are partitioned by indicator leaves.

    Each sum splits on the first remaining variable with one indicator-gated
    branch per value, so at most one child of any sum is nonzero on a
    complete input.  Size grows as O(2^n): intended for small test fixtures.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 16:
        raise ValueError("deterministic construction is exponential; n > 16 refused")
    rng = np.random.default_rng(seed)
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def build(vars_left: tuple[int, ...]) -> int:
        v, rest = vars_left[0], vars_left[1:]
        branches = []
        for bit in (0, 1):
            ind = add(IndicatorLeaf(v, bit))
            if rest:
                branches.append(add(ProductNode((ind, build(rest)))))
            else:
                branches.append(ind)
        w = rng.dirichlet((1.0, 1.0))
        return add(SumNode(tuple(branches), (float(w[0]), float(w[1]))))

    root = build(tuple(range(n)))
    return Circuit(nodes, root, n)


def circuit_from_pmf(probs: Sequence[float] | np.ndarray) -> Circuit:
    """Circuit realizing an explicit pmf over n = log2(len(probs)) variables.

    Builds one indicator product per positive atom under a single mixture
    node.  Probabilities must be non-negative and sum to 1 within 1e-9.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = len(p).bit_length() - 1
    if 2**n != len(p):  # an empty pmf too: 2**-1 != 0
        raise ValueError("pmf length must be a power of two")
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9):  # NaN fails both
        raise ValueError("pmf must be non-negative and sum to 1")
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    atoms = np.flatnonzero(p > 0.0)
    children = []
    for bits in index_to_bits(atoms, n):
        leaves = tuple(add(IndicatorLeaf(v, int(bit))) for v, bit in enumerate(bits))
        children.append(add(ProductNode(leaves)))
    root = add(SumNode(tuple(children), tuple(p[atoms].tolist())))
    return Circuit(nodes, root, n)


# -- assignment packing ------------------------------------------------------


def bits_to_index(bits: Sequence[int] | np.ndarray) -> int:
    """Big-endian integer for a 0/1 vector (bits[0] is the most significant)."""
    value = 0
    for b in np.asarray(bits).tolist():
        value = (value << 1) | int(b)
    return value


def index_to_bits(index: int | np.ndarray, n: int) -> np.ndarray:
    """Inverse of bits_to_index for indices below 2**63: an int8 (n,) vector, or (len(index), n)."""
    bits = np.asarray(index, dtype=np.int64)[..., None] >> np.arange(n - 1, -1, -1)
    bits &= 1
    return bits.astype(np.int8)


# Widths up to this pack by a weighted sum, wider ones through np.packbits.
_WEIGHTED_PACK_MAX = 24
# 2^(n-1), ..., 2, 1 for the weighted sum at width n: the last n entries.
_PACK_WEIGHTS = np.uint64(1) << np.arange(_WEIGHTED_PACK_MAX - 1, -1, -1, dtype=np.uint64)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack each 0/1 row into one sortable key (uint64, or raw bytes if n > 64).

    Keys preserve the big-endian ordering of bits_to_index, so sorting keys
    sorts assignments lexicographically.  ``keys.tolist()`` yields hashable
    Python values for either representation.  Any nonzero entry reads as 1,
    and the layout of `rows` does not matter.  Extra memory is O(B) bytes.

    Up to _WEIGHTED_PACK_MAX (24) columns a key is the sum of its row's
    powers of two, one uint64 matrix-vector product.  numpy runs integer
    products in its own loop; a float32 product, exact below 2^24 too, was
    faster but hands blocks of 9216 entries or more to BLAS threads, and a
    20000 x 24 block then took up to 8 ms against 0.2 ms while the other
    core was busy.  The product takes 9 bytes per entry (a bool and its
    uint64), so a block past _CHUNK_BYTES of them is summed chunk by chunk.
    Wider rows are packed 8 bits to a byte and read as big-endian words.
    On a shared 2-core x86 host the sum took 6.4/4.7/7.4 us against the
    bytes' 8.0/7.4/11.1 us at 64 rows and 8/16/24 columns, and 91/135/192
    against 200/316/247 us at 5000 rows; at 32 columns and 5000 rows it
    took 253 against 75 us, so the switch is at 24.
    """
    rows = np.atleast_2d(np.asarray(rows))
    n = rows.shape[1]
    if n <= _WEIGHTED_PACK_MAX:
        step = _chunk_rows(max(n, 1), 9)
        if rows.shape[0] > step:
            return np.concatenate([pack_rows(rows[i : i + step]) for i in range(0, rows.shape[0], step)])
        return (rows != 0) @ _PACK_WEIGHTS[_WEIGHTED_PACK_MAX - n :]
    # Zero-padded on the right to whole bytes; C-ordered, as the views below
    # need, whatever the layout of `rows` (no copy when it is C-ordered).
    packed = np.ascontiguousarray(np.packbits(rows, axis=1))
    if n > 64:
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    k = packed.shape[1]
    width = 1 << (k - 1).bit_length()  # bytes in the smallest word that holds k
    if k < width:
        packed = np.concatenate((np.zeros((packed.shape[0], width - k), dtype=np.uint8), packed), axis=1)
    keys = packed.view(f">u{width}").ravel().astype(np.uint64)
    keys >>= np.uint64(8 * k - n)
    return keys


def enumerate_assignments(n: int) -> np.ndarray:
    """All 2^n assignments as an int8 matrix in bits_to_index order."""
    if n > 24:
        raise ValueError("refusing to enumerate more than 2^24 assignments")
    return index_to_bits(np.arange(2**n), n)

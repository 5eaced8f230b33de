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
c exactly; others are normalized at load with a WeightNormalizationWarning.

Assignments are int8 vectors with values 0/1; the sentinel ``MARGINAL``
(-1) marks a variable summed out during evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

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
    """A refused circuit; `.report` is the StructureReport of a structural violation, else None."""

    def __init__(self, message: str, report: "StructureReport | None" = None):
        self.report = report
        super().__init__(message)


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


def compute_scopes(circuit_or_nodes) -> list[int]:
    """Per-node variable scopes as int bitmasks (bit v set <=> var v in scope).

    Accepts a Circuit or a topologically ordered node sequence.
    """
    nodes = getattr(circuit_or_nodes, "nodes", circuit_or_nodes)
    scopes: list[int] = []
    for node in nodes:
        if isinstance(node, (BernoulliLeaf, IndicatorLeaf)):
            scopes.append(1 << node.var)
        else:
            acc = 0
            for ch in node.children:
                acc |= scopes[ch]
            scopes.append(acc)
    return scopes


def validate_structure(circuit: "Circuit") -> StructureReport:
    """Check smoothness, decomposability and that the root covers every variable."""
    violations: list[tuple[int, str, str]] = []
    scopes = circuit.scopes
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, SumNode):
            first = scopes[node.children[0]]
            if any(scopes[ch] != first for ch in node.children[1:]):
                violations.append((i, "smoothness", "sum children have differing scopes"))
        elif isinstance(node, ProductNode):
            acc = 0
            for ch in node.children:
                if acc & scopes[ch]:
                    violations.append((i, "decomposability", "product children share variables"))
                    break
                acc |= scopes[ch]
    if scopes[circuit.root] != (1 << circuit.num_vars) - 1:
        violations.append((circuit.root, "scope", "root scope does not cover all declared variables"))
    is_smooth = not any(v[1] == "smoothness" for v in violations)
    is_decomposable = not any(v[1] == "decomposability" for v in violations)
    return StructureReport(is_smooth, is_decomposable, tuple(violations))


class Circuit:
    """Immutable circuit with a level-grouped vectorized evaluator; construction
    refuses bad references and parameters and any validate_structure violation."""

    def __init__(self, nodes: Sequence[Node], root: int, num_vars: int):
        if not nodes:
            raise CircuitStructureError("circuit has no nodes")
        if not (0 <= root < len(nodes)):
            raise CircuitStructureError(f"root id {root} out of range")
        if num_vars < 1:
            raise CircuitStructureError("num_vars must be >= 1")
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.root = int(root)
        self.num_vars = int(num_vars)
        for i, node in enumerate(self.nodes):
            if isinstance(node, (SumNode, ProductNode)):
                if not node.children:
                    raise CircuitStructureError(f"node {i} has no children")
                if any(not (0 <= ch < i) for ch in node.children):
                    raise CircuitStructureError(f"node {i} has a non-topological child reference")
                if isinstance(node, SumNode):
                    if len(node.weights) != len(node.children):
                        raise CircuitStructureError(f"node {i} has {len(node.weights)} weights for its children")
                    if not all(0.0 < w < np.inf for w in node.weights):  # NaN fails too
                        raise CircuitStructureError(f"node {i} has a weight that is not positive and finite")
                    if abs(sum(node.weights) - 1.0) > 1e-6:
                        raise CircuitStructureError(f"node {i} weights sum to {sum(node.weights)!r}, not 1")
            else:
                if not (0 <= node.var < num_vars):
                    raise CircuitStructureError(f"node {i} references variable {node.var} >= {num_vars}")
                if isinstance(node, BernoulliLeaf) and not (0.0 <= node.theta <= 1.0):
                    raise CircuitStructureError(f"node {i} has theta {node.theta} outside [0, 1]")
                if isinstance(node, IndicatorLeaf) and node.value not in (0, 1):
                    raise CircuitStructureError(f"node {i} has indicator value {node.value}, not 0 or 1")
        self.scopes: tuple[int, ...] = tuple(compute_scopes(self.nodes))
        report = validate_structure(self)
        if report.violations:
            nid, prop, desc = report.violations[0]
            raise CircuitStructureError(f"node {nid}: {prop} violation ({desc})", report)
        self._plan = self._compile()

    # -- evaluation ---------------------------------------------------------

    def _compile(self) -> "_Plan":
        nodes = self.nodes
        level = np.zeros(len(nodes), dtype=np.int64)
        for i, node in enumerate(nodes):
            if isinstance(node, (SumNode, ProductNode)):
                level[i] = 1 + max(level[ch] for ch in node.children)

        # An indicator leaf for value v is a Bernoulli leaf with theta = v.
        leaves = [i for i, n in enumerate(nodes) if isinstance(n, (BernoulliLeaf, IndicatorLeaf))]
        is_ind = np.asarray([isinstance(nodes[i], IndicatorLeaf) for i in leaves], dtype=bool)
        theta = np.asarray(
            [nodes[i].value if ind else nodes[i].theta for i, ind in zip(leaves, is_ind)], dtype=np.float64
        )
        with np.errstate(divide="ignore"):  # theta 0 or 1 gives a -inf entry
            log1 = np.log(theta)
            # log1p(-0) is -0.0; an indicator's exact log(1 - v) keeps +0.0.
            log0 = np.where(is_ind, np.log(1.0 - theta), np.log1p(-theta))
        # A MARGINAL entry sums the leaf over its domain (ln 1 = 0) or, in a
        # max pass, takes its larger value.
        leaf_table = np.stack(
            (
                np.stack((log0, log1, np.zeros_like(log0)), axis=1),
                np.stack((log0, log1, np.maximum(log0, log1)), axis=1),
            )
        )

        # Each level runs its products, then its sums, one op per child count.
        def op(group: list[int]) -> "_Op":
            kids = np.asarray([nodes[i].children for i in group], dtype=np.int64).T
            logw = None
            if isinstance(nodes[group[0]], SumNode):
                logw = np.log(np.asarray([nodes[i].weights for i in group], dtype=np.float64)).T[:, :, None]
            return _Op(np.asarray(group, dtype=np.int64), kids, logw)

        ops = []
        for lev in range(1, int(level.max()) + 1 if len(nodes) > 1 else 1):
            ids = np.nonzero(level == lev)[0].tolist()
            for kind in (ProductNode, SumNode):
                groups: dict[int, list[int]] = {}
                for i in ids:
                    if isinstance(nodes[i], kind):
                        groups.setdefault(len(nodes[i].children), []).append(i)
                ops.extend(op(groups[k]) for k in sorted(groups))
        return _Plan(
            width=self.num_vars,
            root=self.root,
            live=np.arange(len(nodes), dtype=np.int64),
            leaf_rows=np.asarray(leaves, dtype=np.int64),
            leaf_cols=np.asarray([nodes[i].var for i in leaves], dtype=np.int64),
            leaf_table=leaf_table,
            leaf_theta=theta,
            ops=tuple(ops),
            consts=np.empty(0, dtype=np.float64),
        )

    def _fold(self, columns: Sequence[int], upward: np.ndarray) -> "_Plan":
        """The plan restricted to the nodes whose scope meets `columns`.

        `columns` lists the variables that the plan's input columns hold, in
        order; `upward` is one upward pass (num_nodes,) with every other
        variable fixed.  A node whose scope misses `columns` takes the same
        value in every row, so a dead child of a live node becomes a constant
        row holding its entry of `upward`.  It keeps its place in its
        parent's child list, so every live node sums the same terms in the
        same order as in the full plan, and its value is bit-identical to the
        full evaluation of the rows with the other variables filled in.
        """
        full = self._plan
        if tuple(columns) == tuple(range(self.num_vars)):
            return full  # every node is live and column v holds variable v
        col_of = np.full(self.num_vars, -1, dtype=np.int64)
        col_of[np.asarray(columns, dtype=np.int64)] = np.arange(len(columns))
        leaf_cols = col_of[full.leaf_cols]
        live = np.zeros(len(self.nodes), dtype=bool)
        live[full.leaf_rows] = leaf_cols >= 0
        kept = []
        for op in full.ops:
            keep = live[op.kids].any(axis=0)
            live[op.ids] = keep
            if keep.any():
                kept.append(_Op(op.ids[keep], op.kids[:, keep], None if op.logw is None else op.logw[:, keep]))

        # Value rows: live nodes in id order, then the constants.
        live_ids = np.flatnonzero(live)
        const = np.zeros(len(self.nodes), dtype=bool)
        for op in kept:
            const[op.kids] = True
        dead = np.flatnonzero(const & ~live)
        row_of = np.full(len(self.nodes), -1, dtype=np.int64)
        row_of[live_ids] = np.arange(live_ids.size)
        row_of[dead] = live_ids.size + np.arange(dead.size)
        on = live[full.leaf_rows]
        return _Plan(
            width=len(columns),
            root=int(row_of[self.root]),
            live=live_ids,
            leaf_rows=row_of[full.leaf_rows[on]],
            leaf_cols=leaf_cols[on],
            leaf_table=full.leaf_table[:, on],
            leaf_theta=full.leaf_theta[on],
            ops=tuple(_Op(row_of[op.ids], row_of[op.kids], op.logw) for op in kept),
            consts=np.asarray(upward, dtype=np.float64)[dead],
        )

    def log_forward(self, rows: np.ndarray) -> np.ndarray:
        """Log value of every node for a batch of (possibly partial) rows.

        `rows` has shape (B, num_vars) with entries in {0, 1, MARGINAL}; a
        MARGINAL entry sums the corresponding leaf over its domain.  Returns
        (num_nodes, B) float64.  For large batches prefer log_root, which
        chunks to bound scratch memory.  This and max_forward run the full
        plan through the same level loop that runs a query-folded plan.
        Any other entry raises ValueError.
        """
        return self._forward(_check_entries(rows), self._plan, maximize=False)

    def max_forward(self, rows: np.ndarray) -> np.ndarray:
        """log_forward with every sum replaced by its largest weighted child.

        A MARGINAL entry is maximized over {0, 1} at the leaves rather than
        summed out.  Same shapes and checks as log_forward.
        """
        return self._forward(_check_entries(rows), self._plan, maximize=True)

    def _forward(self, rows: np.ndarray, plan: "_Plan", maximize: bool) -> np.ndarray:
        """The one level loop: evaluate `plan` on (B, plan.width) rows.

        Returns the (plan rows, B) value matrix: for the full plan one row per
        node; for a folded plan (see _fold) its live nodes, then its constant
        rows; for a ball plan (see _ball_plan) the slots come before them.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int8))
        if rows.shape[1] != plan.width:
            raise ValueError(f"assignment rows have {rows.shape[1]} variables, expected {plan.width}")
        b = rows.shape[0]
        values = np.empty((plan.size, b), dtype=np.float64)
        values[plan.size - plan.consts.size :] = plan.consts[:, None]

        if plan.leaf_rows.size:
            # One gather: entry 0 or 1 picks log0 or log1, and MARGINAL (-1)
            # picks the last column.
            table = plan.leaf_table[int(maximize)]
            values[plan.leaf_rows] = table[np.arange(table.shape[0])[:, None], rows.T[plan.leaf_cols]]

        # Children are added in np.add.reduceat's order (see _reduceat_sum), so
        # every value is the one a segmented reduceat over the children gives;
        # reduceat along axis 0 runs column by column and took about ten times
        # as long.
        for op in plan.ops:
            if op.logw is None:
                values[op.ids] = _reduceat_sum(list(values[op.kids]))
                continue
            terms = values[op.kids] + op.logw
            mx = terms.max(axis=0)
            if maximize:
                values[op.ids] = mx
                continue
            # A sum whose children are all -inf keeps exp(-inf - floor) = 0
            # and log(0) = -inf, instead of the NaN from -inf - -inf.
            np.maximum(mx, _LOG_FLOOR, out=mx)
            total = _reduceat_sum(list(np.exp(terms - mx)))
            with np.errstate(divide="ignore"):
                values[op.ids] = mx + np.log(total)
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

        One bottom-up loop over the full plan keeps per node the trace of the
        max pass.  A leaf takes its evidence entry, else 1 only where theta >
        0.5; a product joins its children's traces, whose scopes are disjoint,
        as their elementwise max (MARGINAL is -1); a sum takes the trace of
        its first child with the largest weighted max value.  With `amp` each
        node also keeps a candidate, built as the trace at leaves and
        products; at a sum it is the first best of the children's candidates
        and the sum's own trace, scored at the sum node, and all candidates of
        one op are scored together.  Returns the root's candidate with `amp`,
        else the root's trace: a (num_vars,) row that keeps the evidence.
        """
        plan = self._plan
        max_vals = self._forward(row[None, :], plan, maximize=True)[:, 0]
        trace = np.full((plan.size, plan.width), MARGINAL, dtype=np.int8)
        fixed = row[plan.leaf_cols]
        trace[plan.leaf_rows, plan.leaf_cols] = np.where(fixed == MARGINAL, plan.leaf_theta > 0.5, fixed)
        cand = trace.copy() if amp else None
        for op in plan.ops:
            m = op.ids.size
            if op.logw is None:
                trace[op.ids] = trace[op.kids].max(axis=0)
                if amp:
                    cand[op.ids] = cand[op.kids].max(axis=0)
                continue
            trace[op.ids] = trace[op.kids[np.argmax(max_vals[op.kids] + op.logw[:, :, 0], axis=0), np.arange(m)]]
            if amp:
                rows = np.concatenate((cand[op.kids], trace[op.ids][None]))  # (k + 1, m, width)
                scores = self._root(rows.reshape(-1, plan.width), plan, np.tile(op.ids, len(rows)))
                cand[op.ids] = rows[scores.reshape(len(rows), m).argmax(axis=0), np.arange(m)]
        return (cand if amp else trace)[plan.root]


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


@dataclass(frozen=True)
class _Op:
    """One level's product or sum nodes that have k children each."""

    ids: np.ndarray  # (m,) value rows of the nodes
    kids: np.ndarray  # (k, m): row j holds every node's j-th child
    logw: np.ndarray | None  # (k, m, 1) log sum weights aligned with kids; None for products


def _reduceat_sum(terms: list[np.ndarray]) -> np.ndarray:
    """terms[0] + terms[1] + ..., bit for bit as np.add.reduceat along axis 0.

    reduceat adds a segment's first row to the pairwise sum of its other
    rows.  Overwrites the arrays in `terms`.
    """
    total = terms[0]
    if len(terms) > 1:
        total += _pairwise_sum(terms[1:])
    return total


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
    """A compiled evaluation plan: leaf table, level ops and constant rows.

    Value rows 0..len(live)-1 hold the nodes in `live` (ascending ids; a ball
    plan follows them with its slots, see _ball_plan) and the last
    consts.size rows hold constants.  Leaf rows read input columns
    `leaf_cols` of a (B, width) block.
    """

    width: int
    root: int
    live: np.ndarray
    leaf_rows: np.ndarray
    leaf_cols: np.ndarray
    leaf_table: np.ndarray  # (2, leaves, 3): [log0, log1, MARGINAL value] for the sum pass, the max pass
    leaf_theta: np.ndarray  # (leaves,) p(leaf = 1): theta, or an indicator's value
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
    flipped.  Its input row is [center, 1 - center], and a leaf's slot reads
    the flipped copy of its column.  Each op evaluates its nodes and their
    slots together; a slot's child is the child's slot for q where the child
    has one and the child's center row elsewhere.  So every slot is computed
    from the same inputs by the same arithmetic as in a full pass over the
    flipped row, and is bit-identical to it.

    Returns the plan, with value rows plan's live rows, then the slots, then
    plan's constants, and the (width + 1,) value rows of the root for the
    center and for each flipped column.
    """
    width, n_live = plan.width, plan.live.size
    # holds[r, q]: the scope of value row r holds input column q.
    holds = np.zeros((plan.size, width), dtype=bool)
    holds[plan.leaf_rows, plan.leaf_cols] = True
    for op in plan.ops:
        holds[op.ids] = holds[op.kids].any(axis=0)
    flat = holds.ravel()
    keys = np.flatnonzero(flat)  # slot k is (row, column) divmod(keys[k], width)
    shift = np.where(np.arange(plan.size) < n_live, 0, keys.size)  # constants move past the slots

    def slot(r: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Extended value row of the slot (r, q), which must exist."""
        return n_live + np.searchsorted(keys, r * width + q)

    def flipped(r: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Extended value row of plan row r when column q is flipped."""
        return np.where(flat[r * width + q], slot(r, q), r + shift[r])

    ops = []
    for op in plan.ops:
        j, q = np.divmod(np.flatnonzero(holds[op.ids]), width)
        ops.append(
            _Op(
                np.concatenate((op.ids, slot(op.ids[j], q))),
                np.concatenate((op.kids + shift[op.kids], flipped(op.kids[:, j], q)), axis=1),
                None if op.logw is None else np.concatenate((op.logw, op.logw[:, j]), axis=1),
            )
        )
    root = plan.root + int(shift[plan.root])
    roots = np.concatenate(([root], flipped(np.full(width, plan.root), np.arange(width))))
    ball = _Plan(
        width=2 * width,
        root=root,
        live=np.concatenate((plan.live, plan.live[keys // width])),
        leaf_rows=np.concatenate((plan.leaf_rows, slot(plan.leaf_rows, plan.leaf_cols))),
        leaf_cols=np.concatenate((plan.leaf_cols, plan.leaf_cols + width)),
        leaf_table=np.concatenate((plan.leaf_table, plan.leaf_table), axis=1),
        leaf_theta=np.concatenate((plan.leaf_theta, plan.leaf_theta)),
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
    marg = set(marginalized)
    keys = set(evidence)
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


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format (see the module docstring).

    A malformed line raises CircuitFormatError with its line number, and a
    circuit that Circuit refuses raises its CircuitStructureError.
    """
    nodes: list[Node] = []
    num_vars: int | None = None
    root: int | None = None
    saw_header = False

    def fail(msg: str, ln: int):
        raise CircuitFormatError(msg, ln)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            try:
                num_vars = int(tokens[1])
            except ValueError:
                fail(f"bad variable count {tokens[1]!r}", ln)
            if num_vars < 1:
                fail("vars must be >= 1", ln)
            continue
        if num_vars is None:
            fail("vars line must precede node declarations", ln)

        if kind == "root":
            if len(tokens) != 2:
                fail("root line takes one node id", ln)
            rid = _parse_int(tokens[1], "root id", ln)
            if rid >= len(nodes):
                fail(f"root references undeclared node {rid}", ln)
            root = rid
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
            if var >= num_vars:
                fail(f"variable index {var} >= declared vars {num_vars}", ln)
            if tokens[2] == "bernoulli":
                try:
                    theta = float(tokens[4])
                except ValueError:
                    fail(f"bad theta {tokens[4]!r}", ln)
                if not (0.0 <= theta <= 1.0):
                    fail(f"theta {theta} outside [0, 1]", ln)
                nodes.append(BernoulliLeaf(var, theta))
            elif tokens[2] == "indicator":
                val = _parse_int(tokens[4], "indicator value", ln)
                if val not in (0, 1):
                    fail(f"indicator value must be 0 or 1, got {val}", ln)
                nodes.append(IndicatorLeaf(var, val))
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
                ch = _parse_int(cs, "child id", ln)
                if ch >= nid:
                    fail(f"forward reference to node {ch}", ln)
                try:
                    w = float(ws)
                except ValueError:
                    fail(f"bad weight {ws!r}", ln)
                if not np.isfinite(w):
                    fail(f"weight {ws!r} is not finite", ln)
                if w <= 0.0:
                    fail(f"weight {w} must be strictly positive", ln)
                children.append(ch)
                weights.append(w)
            total = sum(weights)
            if abs(total - 1.0) > 1e-6:
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
            children = []
            for tok in tokens[2:]:
                ch = _parse_int(tok, "child id", ln)
                if ch >= nid:
                    fail(f"forward reference to node {ch}", ln)
                children.append(ch)
            nodes.append(ProductNode(tuple(children)))

    if not saw_header:
        raise CircuitFormatError("empty input: expected 'spn v1' header")
    if num_vars is None:
        raise CircuitFormatError("missing vars line")
    if root is None:
        raise CircuitFormatError("root undeclared")
    return Circuit(nodes, root, num_vars)


def _parse_int(token: str, what: str, ln: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise CircuitFormatError(f"bad {what} {token!r}", ln) from None
    if value < 0:
        raise CircuitFormatError(f"{what} must be non-negative", ln)
    return value


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c exactly."""
    out = ["spn v1", f"vars {circuit.num_vars}"]
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, BernoulliLeaf):
            out.append(f"leaf {i} bernoulli {node.var} {node.theta!r}")
        elif isinstance(node, IndicatorLeaf):
            out.append(f"leaf {i} indicator {node.var} {node.value}")
        elif isinstance(node, SumNode):
            pairs = " ".join(f"{c}:{w!r}" for c, w in zip(node.children, node.weights))
            out.append(f"sum {i} {pairs}")
        else:
            out.append(f"prod {i} " + " ".join(str(c) for c in node.children))
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
    n = int(np.log2(len(p)))
    if 2**n != len(p):
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
    if not children:
        raise ValueError("pmf has no positive atoms")
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
    return ((np.asarray(index, dtype=np.int64)[..., None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack each 0/1 row into one sortable key (uint64, or raw bytes if n > 64).

    Keys preserve the big-endian ordering of bits_to_index, so sorting keys
    sorts assignments lexicographically.  ``keys.tolist()`` yields hashable
    Python values for either representation.  Extra memory is O(B) bytes:
    the rows are packed 8 bits to a byte and read as big-endian words.
    """
    rows = np.atleast_2d(np.asarray(rows))
    n = rows.shape[1]
    packed = np.packbits(rows, axis=1)  # zero-padded on the right to whole bytes
    if n > 64:
        return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1]))).ravel()
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

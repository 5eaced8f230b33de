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
on earlier lines, and the single ``root`` line comes last.  Sum weights are
normalized at load; a WeightNormalizationWarning is emitted when the raw
weights deviate from sum 1 by more than 1e-6.

Assignments are int8 vectors with values 0/1; the sentinel ``MARGINAL``
(-1) marks a variable summed out during evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

MARGINAL = -1

# Cap on scratch elements (nodes x batch rows) per evaluation chunk.
_CHUNK_ELEMS = 4_000_000

# Finite stand-in for a -inf running max in the log-sum-exp of a sum node.
_LOG_FLOOR = np.finfo(np.float64).min


class CircuitFormatError(ValueError):
    """Malformed circuit text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class CircuitStructureError(ValueError):
    """Circuit violates smoothness/decomposability or scope coverage."""


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
    """Check smoothness of sums and decomposability of products."""
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
    is_smooth = not any(v[1] == "smoothness" for v in violations)
    is_decomposable = not any(v[1] == "decomposability" for v in violations)
    return StructureReport(is_smooth, is_decomposable, tuple(violations))


class Circuit:
    """Immutable circuit with a level-grouped vectorized evaluator."""

    def __init__(self, nodes: Sequence[Node], root: int, num_vars: int, validate: bool = True):
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
            else:
                if not (0 <= node.var < num_vars):
                    raise CircuitStructureError(f"node {i} references variable {node.var} >= {num_vars}")
        self.scopes: tuple[int, ...] = tuple(compute_scopes(self.nodes))
        if validate:
            report = validate_structure(self)
            if report.violations:
                nid, prop, desc = report.violations[0]
                raise CircuitStructureError(f"node {nid}: {prop} violation ({desc})")
            full = (1 << num_vars) - 1
            if self.scopes[self.root] != full:
                raise CircuitStructureError("root scope does not cover all declared variables")
        self._plan = self._compile()

    # -- evaluation ---------------------------------------------------------

    def _compile(self):
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
        leaf_plan = {
            "ids": np.asarray(leaves, dtype=np.int64),
            "vars": np.asarray([nodes[i].var for i in leaves], dtype=np.int64),
            "log0": log0,
            "log1": log1,
            # A MARGINAL entry sums the leaf over its domain (ln 1 = 0) or,
            # in a max pass, takes its larger value.
            "max_marginal": np.maximum(log0, log1),
        }

        levels = []
        for lev in range(1, int(level.max()) + 1 if len(nodes) > 1 else 1):
            ids = np.nonzero(level == lev)[0]
            prods = [i for i in ids if isinstance(nodes[i], ProductNode)]
            sums = [i for i in ids if isinstance(nodes[i], SumNode)]
            entry = {}
            if prods:
                flat = np.concatenate([np.asarray(nodes[i].children, dtype=np.int64) for i in prods])
                counts = np.asarray([len(nodes[i].children) for i in prods], dtype=np.int64)
                entry["prod"] = (
                    np.asarray(prods, dtype=np.int64),
                    flat,
                    np.concatenate(([0], np.cumsum(counts)[:-1])),
                )
            if sums:
                flat = np.concatenate([np.asarray(nodes[i].children, dtype=np.int64) for i in sums])
                logw = np.concatenate(
                    [np.log(np.asarray(nodes[i].weights, dtype=np.float64)) for i in sums]
                )
                counts = np.asarray([len(nodes[i].children) for i in sums], dtype=np.int64)
                entry["sum"] = (
                    np.asarray(sums, dtype=np.int64),
                    flat,
                    logw,
                    np.concatenate(([0], np.cumsum(counts)[:-1])),
                    counts,
                )
            levels.append(entry)
        return leaf_plan, levels

    def log_forward(self, rows: np.ndarray) -> np.ndarray:
        """Log value of every node for a batch of (possibly partial) rows.

        `rows` has shape (B, num_vars) with entries in {0, 1, MARGINAL}; a
        MARGINAL entry sums the corresponding leaf over its domain.  Returns
        (num_nodes, B) float64.  For large batches prefer log_root, which
        chunks to bound scratch memory.
        """
        return self._forward(rows, maximize=False)

    def max_forward(self, rows: np.ndarray) -> np.ndarray:
        """log_forward with every sum replaced by its largest weighted child.

        A MARGINAL entry is maximized over {0, 1} at the leaves rather than
        summed out.  Same shapes as log_forward.
        """
        return self._forward(rows, maximize=True)

    def _forward(self, rows: np.ndarray, maximize: bool) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int8))
        if rows.shape[1] != self.num_vars:
            raise ValueError(f"assignment rows have {rows.shape[1]} variables, expected {self.num_vars}")
        leaf_plan, levels = self._plan
        nn, b = len(self.nodes), rows.shape[0]
        values = np.empty((nn, b), dtype=np.float64)

        if leaf_plan["ids"].size:
            col = rows[:, leaf_plan["vars"]].T
            marginal = leaf_plan["max_marginal"][:, None] if maximize else 0.0
            values[leaf_plan["ids"]] = np.where(
                col == MARGINAL,
                marginal,
                np.where(col == 1, leaf_plan["log1"][:, None], leaf_plan["log0"][:, None]),
            )

        for entry in levels:
            if "prod" in entry:
                ids, flat, offsets = entry["prod"]
                values[ids] = np.add.reduceat(values[flat], offsets, axis=0)
            if "sum" in entry:
                ids, flat, logw, offsets, counts = entry["sum"]
                terms = values[flat] + logw[:, None]
                mx = np.maximum.reduceat(terms, offsets, axis=0)
                if maximize:
                    values[ids] = mx
                    continue
                # A sum whose children are all -inf keeps exp(-inf - floor) = 0
                # and log(0) = -inf, instead of the NaN from -inf - -inf.
                np.maximum(mx, _LOG_FLOOR, out=mx)
                total = np.add.reduceat(np.exp(terms - np.repeat(mx, counts, axis=0)), offsets, axis=0)
                with np.errstate(divide="ignore"):
                    values[ids] = mx + np.log(total)
        return values

    def log_root(self, rows: np.ndarray) -> np.ndarray:
        """Root log value per row, chunking the batch to bound memory."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int8))
        chunk = max(1, _CHUNK_ELEMS // len(self.nodes))
        if rows.shape[0] <= chunk:
            return self.log_forward(rows)[self.root]
        parts = [self.log_forward(rows[i : i + chunk])[self.root] for i in range(0, rows.shape[0], chunk)]
        return np.concatenate(parts)


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
    row = np.full(circuit.num_vars, MARGINAL, dtype=np.int8)
    for v, val in evidence.items():
        if val not in (0, 1):
            raise ValueError(f"evidence value for variable {v} must be 0 or 1")
        row[v] = val
    return float(circuit.log_root(row[None, :])[0])


# -- text format ------------------------------------------------------------


def parse_circuit(text: str, validate: bool = True) -> Circuit:
    """Parse the line-oriented circuit format.

    With validate=False the structural checks (smoothness, decomposability,
    root scope) are skipped so that validate_structure can report violations
    on otherwise well-formed files.
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
            nodes.append(SumNode(tuple(children), tuple(w / total for w in weights)))
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
    return Circuit(nodes, root, num_vars, validate=validate)


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


def load_circuit(path, validate: bool = True) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read(), validate=validate)


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
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("pmf must be non-negative and sum to 1")
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    children, weights = [], []
    for idx in range(len(p)):
        if p[idx] <= 0.0:
            continue
        bits = index_to_bits(idx, n)
        leaves = tuple(add(IndicatorLeaf(v, int(bits[v]))) for v in range(n))
        children.append(add(ProductNode(leaves)))
        weights.append(float(p[idx]))
    if not children:
        raise ValueError("pmf has no positive atoms")
    root = add(SumNode(tuple(children), tuple(weights)))
    return Circuit(nodes, root, n)


# -- assignment packing ------------------------------------------------------


def bits_to_index(bits: Sequence[int] | np.ndarray) -> int:
    """Big-endian integer for a 0/1 vector (bits[0] is the most significant)."""
    value = 0
    for b in np.asarray(bits).tolist():
        value = (value << 1) | int(b)
    return value


def index_to_bits(index: int, n: int) -> np.ndarray:
    """Inverse of bits_to_index; returns an int8 vector of length n."""
    return np.array([(index >> (n - 1 - j)) & 1 for j in range(n)], dtype=np.int8)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack each 0/1 row into one sortable key (uint64, or raw bytes if n > 64).

    Keys preserve the big-endian ordering of bits_to_index, so sorting keys
    sorts assignments lexicographically.  ``keys.tolist()`` yields hashable
    Python values for either representation.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    n = rows.shape[1]
    if n <= 64:
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
        return (rows.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
    packed = np.packbits(rows, axis=1)
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1]))).ravel()


def enumerate_assignments(n: int) -> np.ndarray:
    """All 2^n assignments as an int8 matrix in bits_to_index order."""
    if n > 24:
        raise ValueError("refusing to enumerate more than 2^24 assignments")
    idx = np.arange(2**n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)

"""Correctness gate and answer fingerprint for one pass of a workload.

Every returned ``q_hat`` is re-scored by a reference evaluator that shares no
code with ``pacmap``'s circuit evaluator (or by a table lookup).  Where
|Q| <= 20, exact and det-eps certificates are checked against the brute-force
mode, whose own value is re-scored the same way, and no answer may beat it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from pacmap.circuit import BernoulliLeaf, IndicatorLeaf, ProductNode, bits_to_index
from pacmap.inference import brute_force_map, make_oracle, tabulate_conditional

from workloads import ADAPTIVE_METHODS, BASELINE_METHODS, EPSILON, Answer, Instance, Workload

BRUTE_FORCE_MAX_QUERY = 20
TOL = 1e-9


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def reference_log_value(circuit, assignment: dict[int, int]) -> float:
    """ln of the circuit's value with `assignment` fixed and every other variable summed out.

    A plain loop over the nodes in id order (children come first), one
    assignment at a time; summing a variable out sets its leaves to one, which
    is exact on the smooth, decomposable circuits pacmap accepts.
    """
    vals: list[float] = []
    for node in circuit.nodes:
        if isinstance(node, BernoulliLeaf):
            x = assignment.get(node.var)
            vals.append(0.0 if x is None else _log(node.theta if x == 1 else 1.0 - node.theta))
        elif isinstance(node, IndicatorLeaf):
            x = assignment.get(node.var)
            vals.append(0.0 if x is None or x == node.value else -math.inf)
        elif isinstance(node, ProductNode):
            vals.append(math.fsum(vals[c] for c in node.children))
        else:
            terms = [vals[c] + _log(w) for c, w in zip(node.children, node.weights)]
            top = max(terms)
            vals.append(top if top == -math.inf else top + math.log(math.fsum(math.exp(t - top) for t in terms)))
    return vals[circuit.root]


def evidence_log_prob(inst: Instance) -> float:
    return reference_log_value(inst.circuit, inst.spec.evidence)


def rescore(inst: Instance, q_hat: np.ndarray, log_p_evidence: float | None = None) -> float:
    """ln p(q_hat | e) computed without pacmap's evaluator or the oracle."""
    if inst.table is not None:
        return float(inst.table.log_probs[bits_to_index(q_hat)])
    spec = inst.spec
    if log_p_evidence is None:
        log_p_evidence = evidence_log_prob(inst)
    joint = dict(spec.evidence)
    joint.update(zip(spec.query_vars, (int(b) for b in q_hat)))
    return reference_log_value(inst.circuit, joint) - log_p_evidence


def brute_force_mode(inst: Instance) -> tuple[np.ndarray, float]:
    """The mode of p(Q | e) as brute_force_map finds it over the tabulated conditional."""
    table = inst.table if inst.table is not None else tabulate_conditional(make_oracle(inst.circuit, inst.spec))
    return brute_force_map(table)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_pass(wl: Workload, answers: list[Answer | str]) -> list[tuple[int, str]]:
    """(solve index, reason) for every failed check of one pass; `answers[i]`
    is solve i's result or the 'Type: message' of the exception it raised."""
    cfg = wl.settings
    failures: list[tuple[int, str]] = []
    log_pe = {k: evidence_log_prob(inst) for k, inst in enumerate(wl.instances) if inst.table is None}
    needs_mode = {
        s.instance
        for s, a in zip(wl.solves, answers)
        if isinstance(a, Answer)
        and wl.instances[s.instance].num_query <= BRUTE_FORCE_MAX_QUERY
        and (a.cert in ("exact", "det-eps") or wl.instances[s.instance].table is not None)
    }
    modes, bad_modes = {}, {}
    for k in sorted(needs_mode):
        try:
            bits, mode = brute_force_mode(wl.instances[k])
        except Exception as exc:  # a broken oracle fails the instance's solves, not the run
            bad_modes[k] = f"brute-force mode raised {type(exc).__name__}: {exc}"
            continue
        expect = rescore(wl.instances[k], bits, log_pe.get(k))
        if _close(mode, expect):
            modes[k] = mode
        else:
            bad_modes[k] = f"brute-force mode {mode!r} but its q re-scores to {expect!r}"

    for i, (solve, ans) in enumerate(zip(wl.solves, answers)):
        inst = wl.instances[solve.instance]
        where = f"solve {i} ({inst.label}, {solve.method})"
        if not isinstance(ans, Answer):
            failures.append((i, f"{where}: raised {ans}"))
            continue
        q = ans.q_hat
        if q is None or q.shape != (inst.num_query,) or not np.isin(q, (0, 1)).all():
            failures.append((i, f"{where}: q_hat is not a 0/1 vector over the {inst.num_query} query variables"))
            continue
        expect = rescore(inst, q, log_pe.get(solve.instance))
        if not math.isfinite(ans.log_p_hat) or not _close(ans.log_p_hat, expect):
            failures.append((i, f"{where}: log_p_hat {ans.log_p_hat!r} but q_hat re-scores to {expect!r}"))

        if solve.method in BASELINE_METHODS:
            ok_cert, ok_draws = ans.cert == "", ans.draws == 0
        elif solve.method in ADAPTIVE_METHODS:
            ok_cert = ans.cert in ("exact", "det-eps", "pac", "budget")
            ok_draws = ans.draws >= 1 and (
                cfg.cap is None or (ans.draws <= cfg.cap and (ans.cert != "budget" or ans.draws == cfg.cap))
            )
        else:
            ok_cert, ok_draws = ans.cert in ("exact", "budget"), ans.draws == cfg.budget
        if not ok_cert:
            failures.append((i, f"{where}: unexpected certificate {ans.cert!r}"))
        if not ok_draws:
            failures.append((i, f"{where}: draws_used {ans.draws} inconsistent with certificate {ans.cert!r}"))

        if solve.instance in bad_modes:
            failures.append((i, f"{where}: {bad_modes[solve.instance]}"))
        mode = modes.get(solve.instance)
        if mode is not None:
            if ans.log_p_hat > mode + TOL * max(1.0, abs(mode)):
                failures.append((i, f"{where}: log_p_hat {ans.log_p_hat!r} exceeds the mode {mode!r}"))
            floor = {"exact": mode, "det-eps": mode + math.log1p(-EPSILON)}.get(ans.cert)
            if floor is not None and ans.log_p_hat < floor - TOL * max(1.0, abs(floor)):
                failures.append((i, f"{where}: {ans.cert} certificate but log_p_hat {ans.log_p_hat!r} < {floor!r}"))
    return failures


def fingerprint(answers: list[Answer | str]) -> str:
    """sha256 over (q_hat, certificate kind, draws_used) in solve order."""
    h = hashlib.sha256()
    for i, ans in enumerate(answers):
        if isinstance(ans, Answer):
            bits = "".join(str(int(b)) for b in ans.q_hat)
            h.update(f"{i}:{bits}:{ans.cert}:{ans.draws}\n".encode())
        else:
            h.update(f"{i}:error:{ans}\n".encode())
    return h.hexdigest()

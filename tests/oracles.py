"""Independent oracles used to derive and cross-check expected values.

Nothing here reuses the checker's exploration or liveness algorithms: the
workflow systems are hand-coded from their informal descriptions, exploration
is a plain set fixpoint, and liveness verdicts come from direct enumeration
of admitted lassos (every simple cycle of state-changing edges plus every
quiescent state, each with a reachability prefix).
"""

from __future__ import annotations

import operator
import random
from collections import deque

from spacheck import model
from spacheck.semantics import SET_LIMIT, EvalError, successors

# --- hand-coded math workflow (independent of the .spa corpus) ---------------

MATH_VARS = (
    "num", "count_right", "count_wrong", "result",
    "input_enabled", "check_enabled", "new_question_enabled",
)


def math_init() -> dict:
    return {
        "num": 1, "count_right": 0, "count_wrong": 0, "result": "",
        "input_enabled": True, "check_enabled": False,
        "new_question_enabled": False,
    }


def math_moves(s: dict, max_num_q: int, buggy: bool = False) -> list:
    out = []
    if s["input_enabled"]:
        t = dict(s)
        t["input_enabled"] = False
        t["check_enabled"] = True
        out.append(("Input_Answer", t))
    if s["check_enabled"]:
        for correct in (True, False):
            t = dict(s)
            t["check_enabled"] = False
            t["new_question_enabled"] = True
            if correct:
                t["count_right"] += 1
                t["result"] = "Right"
            else:
                t["count_wrong"] += 1
                t["result"] = "Wrong"
            out.append(("Check", t))
    limit = max_num_q + 1 if buggy else max_num_q
    if s["num"] < limit and s["new_question_enabled"]:
        t = dict(s)
        t["new_question_enabled"] = False
        t["num"] += 1
        t["input_enabled"] = True
        t["result"] = ""
        out.append(("New_Question", t))
    if s["num"] == max_num_q:
        out.append(("Terminating", dict(s)))
    return out


def _freeze(record: dict) -> tuple:
    return tuple(record[name] for name in MATH_VARS)


def math_reachable(max_num_q: int, buggy: bool = False) -> set:
    """Set fixpoint over the hand-coded transition function."""
    seen = {_freeze(math_init())}
    frontier = [math_init()]
    while frontier:
        nxt = []
        for s in frontier:
            for _, t in math_moves(s, max_num_q, buggy):
                key = _freeze(t)
                if key not in seen:
                    seen.add(key)
                    nxt.append(t)
        frontier = nxt
    return seen


# --- hand-coded clock ---------------------------------------------------------


def clock_states() -> set:
    return {(hr, period) for hr in range(1, 13) for period in ("am", "pm")}


def clock_move(state: tuple) -> tuple:
    hr, period = state
    new_hr = 1 if hr == 12 else hr + 1
    if hr == 11:
        period = "pm" if period == "am" else "am"
    return (new_hr, period)


# --- exploration fixpoint over the package's own successor relation ------------


def fixpoint_reachable(bound) -> set:
    """Iterate successor application on a plain set until no growth; checks
    the explorer's bookkeeping without its queue or indices."""
    from spacheck.semantics import initial_states

    seen = set(initial_states(bound))
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for _, t in successors(s, bound):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


# --- expressions by direct AST interpretation -----------------------------------

_COMPARE = {
    "=": operator.eq, "/=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def evaluate(e, state, binders: dict, bound, where: str = "<expr>"):
    """The value of expression `e` at `state` (None where only constants
    and binders may appear), by plain recursion over the AST.  Operands are
    evaluated left to right; `and`, `or`, `implies`, `if` and the chained
    `lo <= item <= hi` of a range, like Python's, skip what cannot change
    the result, and a set literal stops at the first equal member.  An
    integer overflow is a located EvalError, as the checker reports it."""
    def ev(x):
        return evaluate(x, state, binders, bound, where)

    if isinstance(e, model.Lit):
        return e.value
    if isinstance(e, model.Name):
        if e.name in bound.var_index:
            return state[bound.var_index[e.name]]
        return bound.constants[e.name] if e.name in bound.constants else binders[e.name]
    if isinstance(e, model.Unary):
        return not ev(e.operand)
    if isinstance(e, model.Binary):
        left = ev(e.left)
        if e.op == "and":
            return left and ev(e.right)
        if e.op == "or":
            return left or ev(e.right)
        if e.op == "implies":
            return not left or ev(e.right)
        right = ev(e.right)
        if e.op in _COMPARE:
            return _COMPARE[e.op](left, right)
        value = _ARITH[e.op](left, right)
        if not model.INT_MIN <= value <= model.INT_MAX:
            raise EvalError("integer overflow", where, e.line, e.col, state)
        return value
    if isinstance(e, model.InSet):
        if isinstance(e.over, model.RangeSet):
            lo = ev(e.over.lo)
            item = ev(e.item)
            return lo <= item and item <= ev(e.over.hi)
        item = ev(e.item)
        return any(item == ev(x) for x in e.over.elems)
    if isinstance(e, model.Cond):
        return ev(e.then) if ev(e.cond) else ev(e.orelse)
    raise TypeError(f"not an expression: {e!r}")


def members(se, state, binders: dict, bound, where: str = "<set>") -> list:
    """The ordered distinct members of a set expression, as `evaluate`
    would give them."""
    if isinstance(se, model.RangeSet):
        lo = evaluate(se.lo, state, binders, bound, where)
        hi = evaluate(se.hi, state, binders, bound, where)
        if hi - lo + 1 > SET_LIMIT:
            raise EvalError(f"range {lo}..{hi} exceeds the {SET_LIMIT}-element set limit",
                            where, se.line, se.col, state)
        return list(range(lo, hi + 1))
    values = [evaluate(x, state, binders, bound, where) for x in se.elems]
    return list(dict.fromkeys(values))


# --- next-state relation by direct AST interpretation ---------------------------


def step(bound, state) -> list:
    """(action name, successor) pairs of `state`, in the order
    `successors` defines: actions in declaration order, each action's
    successors in enumeration order with repeats dropped.

    A plain recursive interpreter over the statement AST: every statement
    sees the rest of its path as a list, an `any` runs that list once per
    choice, and primed values live in a dict.  Expressions go through
    `evaluate` and `members`, which share no code with the checker's
    expression compiler.
    """
    domains = {
        i: members(v.domain, None, {}, bound, f"var {v.name}")
        for i, v in enumerate(bound.spec.variables) if v.domain is not None
    }
    out = []
    for action in bound.spec.actions:
        where = f"action {action.name}"
        found: list = []

        def run(stmts: list, binders: dict, primed: dict) -> None:
            if not stmts:
                t = tuple(primed.get(i, v) for i, v in enumerate(state))
                if t not in found:
                    found.append(t)
                return
            st, rest = stmts[0], list(stmts[1:])
            if isinstance(st, model.Assign):
                i = bound.var_index[st.target]
                value = evaluate(st.value, state, binders, bound, where)
                if i in domains and value not in domains[i]:
                    raise EvalError(
                        f"value {value!r} assigned to {st.target} is outside its domain",
                        where, st.line, st.col, state,
                    )
                run(rest, binders, {**primed, i: value})
            elif isinstance(st, model.If):
                branch = evaluate(st.cond, state, binders, bound, where)
                run((st.then if branch else st.orelse) + rest, binders, primed)
            else:
                for v in members(st.over, state, binders, bound, where):
                    run(st.body + rest, {**binders, st.binder: v}, primed)

        if all(evaluate(g, state, {}, bound, where) for g in action.guards):
            run(list(action.body), {}, {})
        out.extend((action.name, t) for t in found)
    return out


# --- brute-force liveness oracle ------------------------------------------------


def graph_quiescent(graph) -> set:
    return {i for i in range(graph.n_states) if all(t == i for _, t in graph.out_edges(i))}


def _changing_adj(graph, allowed: set) -> dict:
    adj = {}
    for i in allowed:
        adj[i] = sorted(
            {t for _, t in graph.out_edges(i) if t != i and t in allowed}
        )
    return adj


def _tarjan_sccs(adj: dict) -> list:
    """Iterative Tarjan over an adjacency dict (own implementation; the
    oracle shares nothing with the checker's SCC machinery)."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    out: list = []
    counter = 0
    for root in sorted(adj):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in onstack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out


def simple_cycles(graph, allowed: set, first_only: bool = False,
                  step_cap: int = 10_000_000) -> list:
    """Simple cycles of state-changing edges inside `allowed` (Johnson-style
    enumeration with blocking, so cycle-free regions cost almost nothing).

    With first_only the enumeration stops at the first cycle, which is all
    the boolean oracle verdicts need.
    """
    from collections import defaultdict

    adj = _changing_adj(graph, allowed)
    cycles: list = []
    steps = 0
    work = [set(c) for c in _tarjan_sccs(adj) if len(c) >= 2]
    while work:
        comp = work.pop()
        start = min(comp)
        comp_adj = {u: [v for v in adj[u] if v in comp] for u in comp}
        path = [start]
        blocked = {start}
        closed: set = set()
        B = defaultdict(set)
        stack = [(start, list(reversed(comp_adj[start])))]
        while stack:
            steps += 1
            if steps > step_cap:
                raise RuntimeError("cycle enumeration exceeded the step cap")
            node, nbrs = stack[-1]
            if nbrs:
                nxt = nbrs.pop()
                if nxt == start:
                    cycles.append(path[:])
                    if first_only:
                        return cycles
                    closed.update(path)
                elif nxt not in blocked:
                    path.append(nxt)
                    closed.discard(nxt)
                    blocked.add(nxt)
                    stack.append((nxt, list(reversed(comp_adj[nxt]))))
                    continue
            if not nbrs:
                if node in closed:
                    unblock_stack = {node}
                    while unblock_stack:
                        u = unblock_stack.pop()
                        if u in blocked:
                            blocked.discard(u)
                            unblock_stack.update(B[u])
                            B[u].clear()
                else:
                    for nbr in comp_adj[node]:
                        B[nbr].add(node)
                stack.pop()
                path.pop()
        rest = comp - {start}
        rest_adj = {u: [v for v in adj[u] if v in rest] for u in rest}
        work.extend(set(c) for c in _tarjan_sccs(rest_adj) if len(c) >= 2)
    return cycles


def first_cycle_through(graph, entry: int, members, step_cap: int = 10_000_000) -> list:
    """The first simple cycle through `entry` inside `members` that a
    depth-first walk over all simple paths finds, taking successors in
    ascending index order; returns the path from `entry`, without the
    closing edge.  Exponential in the worst case."""
    def nbrs(u: int) -> list:
        return sorted({t for _, t in graph.out_edges(u) if t != u and t in members})

    path = [entry]
    onpath = {entry}
    iters = [iter(nbrs(entry))]
    steps = 0
    while iters:
        steps += 1
        if steps > step_cap:
            raise RuntimeError("cycle search exceeded the step cap")
        try:
            v = next(iters[-1])
        except StopIteration:
            iters.pop()
            onpath.discard(path.pop())
            continue
        if v == entry:
            return path
        if v in onpath:
            continue
        path.append(v)
        onpath.add(v)
        iters.append(iter(nbrs(v)))
    raise AssertionError("no cycle through the entry")


def bfs_within(graph, starts, allowed: set) -> tuple:
    """Multi-source BFS over state-changing edges inside `allowed`: sources
    in ascending index order, each state's edges in the graph's edge order,
    so parents are deterministic.  Returns (dist, parent) dicts; a source's
    parent is None."""
    dist: dict = {}
    par: dict = {}
    dq = deque()
    for s in sorted(starts):
        if s in allowed and s not in dist:
            dist[s] = 0
            par[s] = None
            dq.append(s)
    while dq:
        u = dq.popleft()
        for _, v in graph.out_edges(u):
            if v != u and v in allowed and v not in dist:
                dist[v] = dist[u] + 1
                par[v] = u
                dq.append(v)
    return dist, par


def restricted_reach(graph, starts, allowed: set) -> set:
    return set(bfs_within(graph, starts, allowed)[0])


def lasso_prefix(graph, starts, allowed: set, candidates) -> list:
    """The `bfs_within` path from a start to the nearest of `candidates`
    (fewest steps, then lowest index), as state indices."""
    dist, par = bfs_within(graph, starts, allowed)
    entry = min((i for i in candidates if i in dist), key=lambda i: (dist[i], i))
    path = [entry]
    while par[path[-1]] is not None:
        path.append(par[path[-1]])
    path.reverse()
    return path


def oracle_eventually(graph, pred: list) -> bool:
    """True when every admitted behavior reaches a pred-state: no lasso can
    avoid pred from start to loop.  `reach` is closed under the restricted
    edges, so a cycle avoiding pred that touches it lies entirely inside it."""
    avoid = {i for i, ok in enumerate(pred) if not ok}
    reach = restricted_reach(graph, [i for i in graph.initial if i in avoid], avoid)
    if reach & graph_quiescent(graph):
        return False
    return not simple_cycles(graph, reach, first_only=True)


def oracle_leadsto(graph, p: list, q: list) -> bool:
    avoid = {i for i, ok in enumerate(q) if not ok}
    starts = [i for i in range(len(p)) if p[i] and i in avoid]
    reach = restricted_reach(graph, starts, avoid)
    if reach & graph_quiescent(graph):
        return False
    return not simple_cycles(graph, reach, first_only=True)


def oracle_always_eventually(graph, pred: list) -> bool:
    avoid = {i for i, ok in enumerate(pred) if not ok}
    if avoid & graph_quiescent(graph):
        return False
    return not simple_cycles(graph, avoid, first_only=True)


# --- random small specs (seeded, deterministic) ----------------------------------

_INT_POOL = (0, 1, 2)
_STR_POOL = ("a", "b", "c")


def _gen_value_expr(rng: random.Random, kind: str, var_pool: list, binders: dict):
    """A kind-correct expression with values confined to the finite pools, so
    every generated spec has a small finite reachable space.  Rotations keep
    the graphs interesting: they induce cycles rather than fixed points."""
    choices = ["lit"]
    same_kind_vars = [v for v, k in var_pool if k == kind]
    if same_kind_vars:
        choices += ["var", "rotate", "rotate"]
    same_kind_binders = [b for b, k in binders.items() if k == kind]
    if same_kind_binders:
        choices.append("binder")
    pick = rng.choice(choices)
    if pick == "var":
        return model.Name(name=rng.choice(same_kind_vars))
    if pick == "binder":
        return model.Name(name=rng.choice(same_kind_binders))
    if pick == "rotate":
        name = model.Name(name=rng.choice(same_kind_vars))
        if kind == "int":
            # stays in 0..2 for in-pool inputs
            return model.Cond(
                cond=model.Binary(op="=", left=name, right=model.Lit(value=2)),
                then=model.Lit(value=0),
                orelse=model.Binary(op="+", left=name, right=model.Lit(value=1)),
            )
        if kind == "bool":
            return model.Unary(op="not", operand=name)
        return model.Cond(
            cond=model.Binary(op="=", left=name, right=model.Lit(value="a")),
            then=model.Lit(value="b"),
            orelse=model.Lit(value="a"),
        )
    if kind == "int":
        return model.Lit(value=rng.choice(_INT_POOL))
    if kind == "bool":
        return model.Lit(value=rng.choice((True, False)))
    return model.Lit(value=rng.choice(_STR_POOL))


def _gen_pred(rng: random.Random, var_pool: list, binders: dict, depth: int = 0):
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        op = rng.choice(("and", "or", "implies"))
        return model.Binary(
            op=op,
            left=_gen_pred(rng, var_pool, binders, depth + 1),
            right=_gen_pred(rng, var_pool, binders, depth + 1),
        )
    if depth < 2 and roll < 0.4:
        return model.Unary(op="not", operand=_gen_pred(rng, var_pool, binders, depth + 1))
    name, kind = rng.choice(var_pool)
    if kind == "bool" and rng.random() < 0.5:
        return model.Name(name=name)
    if kind == "int" and rng.random() < 0.3:
        lo = rng.choice((0, 1))
        hi = rng.choice((1, 2))
        return model.InSet(
            item=model.Name(name=name),
            over=model.RangeSet(lo=model.Lit(value=lo), hi=model.Lit(value=hi)),
        )
    op = rng.choice(("=", "/=")) if kind != "int" else rng.choice(("=", "/=", "<", "<=", ">", ">="))
    return model.Binary(
        op=op,
        left=model.Name(name=name),
        right=_gen_value_expr(rng, kind, var_pool, binders),
    )


def _assigned_targets(stmts: list) -> set:
    out = set()
    for s in stmts:
        if isinstance(s, model.Assign):
            out.add(s.target)
        elif isinstance(s, model.If):
            out |= _assigned_targets(s.then) | _assigned_targets(s.orelse)
        elif isinstance(s, model.AnyChoice):
            out |= _assigned_targets(s.body)
    return out


def _gen_stmts(rng: random.Random, var_pool: list, binders: dict,
               assignable: list, budget: int) -> list:
    """Generated bodies keep the single-assignment-per-path discipline: a
    variable assigned anywhere in a statement leaves `assignable` for every
    later statement (the two branches of an `if` may both assign it)."""
    stmts = []
    for _ in range(budget):
        if not assignable:
            break
        roll = rng.random()
        if roll < 0.6:
            name, kind = assignable.pop(rng.randrange(len(assignable)))
            stmts.append(
                model.Assign(target=name, value=_gen_value_expr(rng, kind, var_pool, binders))
            )
            continue
        if roll < 0.8:
            then = _gen_stmts(rng, var_pool, binders, list(assignable), 1)
            orelse = _gen_stmts(rng, var_pool, binders, list(assignable), 1) if rng.random() < 0.5 else []
            new = model.If(cond=_gen_pred(rng, var_pool, binders), then=then, orelse=orelse)
        else:
            bname = f"b{len(binders)}"
            kind = rng.choice(("int", "bool"))
            pool = _INT_POOL if kind == "int" else (True, False)
            members = rng.sample(pool, rng.randint(1, len(pool)))
            inner_binders = dict(binders)
            inner_binders[bname] = kind
            body = _gen_stmts(rng, var_pool, inner_binders, list(assignable), 1)
            if not body:
                continue
            new = model.AnyChoice(
                binder=bname,
                over=model.SetLit(elems=[model.Lit(value=v) for v in members]),
                body=body,
            )
        stmts.append(new)
        used = _assigned_targets([new])
        assignable[:] = [(n, k) for n, k in assignable if n not in used]
    return stmts


def gen_spec(seed: int) -> model.SpecModel:
    """A small well-formed spec: <= 3 variables over pools of <= 3 values,
    <= 4 actions, and a few liveness properties of each shape."""
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    var_pool = []
    variables = []
    for i in range(nvars):
        kind = rng.choice(("int", "bool", "string"))
        name = f"v{i}"
        var_pool.append((name, kind))
        pool = {"int": _INT_POOL, "bool": (True, False), "string": _STR_POOL}[kind]
        if rng.random() < 0.5:
            init_vals = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            variables.append(
                model.VarDecl(
                    name=name, kind=kind,
                    init_set=model.SetLit(elems=[model.Lit(value=v) for v in init_vals]),
                )
            )
        else:
            variables.append(
                model.VarDecl(name=name, kind=kind, init=model.Lit(value=rng.choice(pool)))
            )

    actions = []
    for i in range(rng.randint(1, 4)):
        n_guards = rng.choice((0, 0, 0, 1, 1, 2))
        guards = [_gen_pred(rng, var_pool, {}) for _ in range(n_guards)]
        body = _gen_stmts(rng, var_pool, {}, list(var_pool), rng.randint(1, 3))
        actions.append(model.ActionDef(name=f"A{i}", guards=guards, body=body))

    properties = []
    for i in range(rng.randint(2, 4)):
        shape_pick = rng.choice(("eventually", "leadsto", "always_eventually"))
        if shape_pick == "eventually":
            shape = model.Eventually(pred=_gen_pred(rng, var_pool, {}))
        elif shape_pick == "leadsto":
            shape = model.LeadsTo(
                lhs=_gen_pred(rng, var_pool, {}), rhs=_gen_pred(rng, var_pool, {})
            )
        else:
            shape = model.AlwaysEventually(pred=_gen_pred(rng, var_pool, {}))
        properties.append(model.TemporalProperty(name=f"P{i}", shape=shape))

    return model.SpecModel(
        name=f"rand{seed}",
        variables=variables,
        actions=actions,
        properties=properties,
    )


def gen_forall_spec(seed: int, count: int, overflow_at: int = -1) -> model.SpecModel:
    """`gen_spec(seed)`'s variables and actions with `forall x in S`
    properties of each liveness shape, whose predicates name `x`.  S is
    -1..count-2, as a range or shuffled into a set literal, which puts the
    values the int variables take (0..2) at scattered positions.  With
    `overflow_at` >= 0, S is the set, its member there is INT_MAX, and each
    predicate adds `x` to an int variable, so that instance's columns
    overflow wherever the variable is not 0."""
    spec = gen_spec(seed)
    rng = random.Random(f"forall {seed} {count}")
    var_pool = [(v.name, v.kind) for v in spec.variables]
    ints = [name for name, kind in var_pool if kind == "int"]
    members = list(range(-1, count - 1))
    if overflow_at < 0 and rng.random() < 0.5:
        over = model.RangeSet(lo=model.Lit(value=members[0]), hi=model.Lit(value=members[-1]))
    else:
        rng.shuffle(members)
        if overflow_at >= 0:
            members[overflow_at] = model.INT_MAX
        over = model.SetLit(elems=[model.Lit(value=v) for v in members])

    def pred():
        p = _gen_pred(rng, var_pool, {"x": "int"})
        if not ints:
            return p
        name = model.Name(name=rng.choice(ints))
        x = model.Name(name="x")
        if overflow_at >= 0:
            atom = model.Binary(op=">", left=model.Binary(op="+", left=name, right=x),
                                right=model.Lit(value=rng.choice(_INT_POOL)))
        else:
            atom = model.Binary(op=rng.choice(("=", "/=", "<", ">=")), left=name, right=x)
        return model.Binary(op=rng.choice(("and", "or")), left=p, right=atom)

    spec.properties = [
        model.TemporalProperty(name="Ev", shape=model.Eventually(pred=pred()), binder=("x", over)),
        model.TemporalProperty(name="To", shape=model.LeadsTo(lhs=pred(), rhs=pred()),
                               binder=("x", over)),
        model.TemporalProperty(name="Rec", shape=model.AlwaysEventually(pred=pred()),
                               binder=("x", over)),
    ]
    return spec

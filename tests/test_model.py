"""Core model: state identity and state records."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from conftest import build, build_graph
from spacheck import state_to_record


def clock_state(bound, hr, period):
    return (hr, period)


def test_state_identity_deterministic(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 3})
    s1 = (1, 0, 0, "", True, False, False)
    s2 = (1, 0, 0, "", True, False, False)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert graph.index[s1] == graph.index[s2] == graph.initial[0]


def test_state_identity_differs_on_any_field(clock_src):
    bound, graph = build_graph(clock_src)
    assert (1, "am") != (1, "pm")
    assert (1, "am") != (2, "am")
    assert graph.index[(1, "am")] != graph.index[(1, "pm")]
    assert graph.index[(1, "am")] != graph.index[(2, "am")]


def test_all_clock_states_have_distinct_keys(clock_src):
    # brute-force product of both init sets
    bound, graph = build_graph(clock_src)
    states = [(hr, p) for hr in range(1, 13) for p in ("am", "pm")]
    assert len(set(states)) == 24
    assert sorted(graph.index[s] for s in states) == list(range(24))


def test_math_initial_record(math_src):
    bound, graph = build_graph(math_src, {"max_num_q": 5})
    rec = state_to_record(graph.states[graph.initial[0]], bound.spec)
    assert rec == {
        "num": 1,
        "count_right": 0,
        "count_wrong": 0,
        "result": "",
        "input_enabled": True,
        "check_enabled": False,
        "new_question_enabled": False,
    }


def test_clock_record_order(clock_src):
    bound = build(clock_src)
    rec = state_to_record((12, "pm"), bound.spec)
    assert list(rec.items()) == [("hr", 12), ("period", "pm")]


def test_record_key_consistency(clock_src):
    bound, graph = build_graph(clock_src)
    spec = bound.spec
    states = [(hr, p) for hr in range(1, 13) for p in ("am", "pm")]
    for a, b in itertools.combinations(states, 2):
        same_record = state_to_record(a, spec) == state_to_record(b, spec)
        same_key = graph.index[a] == graph.index[b]
        assert same_record == same_key == (a == b)


def test_key_injective_on_reachable_corpus_states(clock_src, math_src, buggy_src):
    for src, consts in (
        (clock_src, {}),
        (math_src, {"max_num_q": 3}),
        (buggy_src, {"max_num_q": 3}),
    ):
        bound, graph = build_graph(src, consts)
        keys = set(graph.index)
        records = {tuple(state_to_record(s, bound.spec).items()) for s in graph.states}
        assert len(keys) == len(graph.states) == len(records)
        assert [graph.index[s] for s in graph.states] == list(range(len(graph.states)))


@given(
    st.lists(
        st.one_of(
            st.booleans(),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.text(max_size=6),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.one_of(
            st.booleans(),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.text(max_size=6),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_key_equality_matches_structural_equality(a, b):
    # A state tuple is its own key.  Validation fixes each slot's kind, so
    # two states of one spec agree in kind slot by slot, and then tuple
    # equality (which alone would take True == 1) is structural equality.
    # Align b's kinds to a's: keep b's value where the kinds already agree,
    # and take a's value where they do not.
    from spacheck.model import value_kind

    def structurally_equal(xs, ys):
        return len(xs) == len(ys) and all(
            value_kind(x) == value_kind(y) and x == y for x, y in zip(xs, ys)
        )

    b = [y if value_kind(y) == value_kind(x) else x for x, y in zip(a, b)] + b[len(a):]
    same = structurally_equal(a, b)
    assert (tuple(a) == tuple(b)) == same
    assert ({tuple(a): 0}.get(tuple(b)) == 0) == same
    if same:
        assert hash(tuple(a)) == hash(tuple(b))

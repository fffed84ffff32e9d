"""The exit-code contract under malformed input: mutated table, image and
multiset documents, drawn ``search scan`` arguments and drawn arguments of
the commands that read no file never raise out of the CLI, nor reach the
catch-all that reports an unexpected exception as an ``internal error:``
line.  Every run ends with its contract exit code, and exit 2 or 3 prints
exactly one line to stderr and nothing to stdout."""
import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrecon.cli import main
from fsrecon.radon import forward, random_table


def _doc(table):
    return json.loads(table.to_json())


DOCUMENTS = {
    "table": (["radon", "forward"], _doc(random_table(3, 2, random.Random(0)))),
    "image": (["radon", "invert"], _doc(forward(random_table(2, 2, random.Random(1))))),
    "multiset": (["fs"], {"group": {"moduli": [4, 0]}, "elements": [[[1, -2], 1], [[2, 5], 3]]}),
}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1/0", "3/4", "-2", "1.5", "abc", ""]),
    st.lists(st.integers(-3, 3), max_size=3),
    # Fresh containers: mutate() may edit junk it inserted, and a shared
    # st.just value would carry those edits into later draws.
    st.builds(lambda: [[1]]),
    st.builds(dict),
)


def _slots(node, out):
    """Every (container, key) pair in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def mutate(doc, data):
    """Apply one to three mutations: drop a key or list item, swap a value
    for junk, insert junk into a list, or shuffle a list (the rows of a
    document among them).  Swapping the root replaces the whole document."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [(None, None)])
        node, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["drop", "swap", "insert", "shuffle"]))
        if node is None:
            doc = data.draw(JUNK)
            if not isinstance(doc, (dict, list)):
                return doc
        elif action == "drop":
            del node[key]
        elif action == "insert" and isinstance(node, list):
            node.insert(key, data.draw(JUNK))
        elif action == "shuffle" and isinstance(node[key], list):
            node[key] = data.draw(st.permutations(node[key]))
        else:
            node[key] = data.draw(JUNK)
    return doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(tmp_path_factory, kind, data):
    argv, doc = DOCUMENTS[kind]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.json"
    path.write_text(json.dumps(mutate(doc, data)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--in", str(path)])
    assert "internal error:" not in err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""


# One draw in four is malformed text; the rest are moduli lists.
GROUP_TEXT = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from(["", "{", "[]", '{"moduli": 5}', '{"moduli": [2.0]}'])
    if k == 0
    else st.lists(st.integers(-1, 6), max_size=2).map(lambda m: json.dumps({"moduli": m}))
)


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    group=GROUP_TEXT,
    max_size=st.integers(-1, 3),
    bound=_option("--bound", st.integers(-1, 2)),
    budget=_option("--budget", st.integers(-1, 40)),
)
def test_drawn_scan_arguments_keep_the_exit_contract(group, max_size, bound, budget):
    out, err = io.StringIO(), io.StringIO()
    argv = ["search", "scan", "--group", group, "--max-size", str(max_size), *bound, *budget]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error:" not in err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""


# Sizes stay small enough that one run takes milliseconds: cyclo ranks
# builds an SVD over phi(n) x n entries, and radon verify n^(d+1) entries.
# The commands that take N also draw values past their caps, which they
# refuse before doing any work; no draw lets counterexample build near
# n = 10^6, which takes about 30 s.
N = st.integers(-2, 50) | st.sampled_from([1009, 16777215, 10**9, 10**18 + 3])


def _command(words, n, extra=st.just([])):
    return st.tuples(n, extra).map(lambda t: [*words, str(t[0]), *t[1]])


def _kernel_test(n):
    """A vector of length n, of any length up to 22, or text that is no
    vector at all; its entries are small, up to 10^4 or up to 10^13 in size,
    the last far past the cap on a unit word's exponent mass."""
    entry = st.integers(-2, 2) | st.integers(-10**4, 10**4) | st.integers(-10**13, 10**13)
    exact = st.lists(entry, min_size=max(n, 0), max_size=max(n, 0))
    vector = (exact | st.lists(entry, max_size=22)).map(
        lambda v: ",".join(map(str, v))
    )
    junk = st.sampled_from(["", "a,b", "1,,2", "1.5"])
    return (vector | junk).map(lambda v: ["cyclo", "kernel-test", str(n), f"--vector={v}"])


ARGUMENTS = st.one_of(
    _command(["ofs", "test"], N, st.sampled_from([[], ["--brute"]])),
    _command(["ofs", "list"], N, st.sampled_from([[], ["--complement"]])),
    _command(["counterexample"], N, st.sampled_from([[], ["--mode", "totient"]])),
    _command(["cyclo", "dist"], N),
    st.integers(-2, 21).flatmap(_kernel_test),
    _command(["cyclo", "ranks"], st.integers(-2, 21) | st.just(47)),
    st.tuples(st.integers(-1, 12), st.integers(-1, 3)).map(
        lambda nd: ["radon", "verify", "--n", str(nd[0]), "--d", str(nd[1])]
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(json_flag=st.sampled_from([[], ["--json"]]), argv=ARGUMENTS)
def test_drawn_command_arguments_keep_the_exit_contract(json_flag, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*json_flag, *argv])
    assert "internal error:" not in err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""

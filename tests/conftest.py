from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from time import perf_counter

import pytest

from racdraw import (
    GraphInput,
    ValidationMode,
    draw_complete,
    dumps_drawing,
    loads_drawing,
    validate,
)


@pytest.fixture(scope="session")
def k16():
    return draw_complete(16)


@pytest.fixture(scope="session")
def k81():
    return draw_complete(81)


@pytest.fixture(scope="session")
def k16_filtered(k16):
    start = perf_counter()
    report = validate(k16, ValidationMode.FILTERED)
    return report, perf_counter() - start


@pytest.fixture(scope="session")
def k16_brute(k16):
    start = perf_counter()
    report = validate(k16, ValidationMode.BRUTE_FORCE)
    return report, perf_counter() - start


@pytest.fixture(scope="session")
def k81_filtered(k81):
    start = perf_counter()
    report = validate(k81, ValidationMode.FILTERED)
    return report, perf_counter() - start


def random_graph(rng: random.Random, max_n: int = 81, max_m: int = 100) -> GraphInput:
    n = rng.randint(2, max_n)
    pool = list(combinations(range(n), 2))
    rng.shuffle(pool)
    m = rng.randint(0, min(max_m, len(pool)))
    return GraphInput(n=n, edges=tuple(pool[:m]))


def pair_payload(result):
    """``segment_pair``'s result in the oracle's (tag, payload) form."""
    if result is None:
        return None, None
    tag, *ints = result
    if tag == "proper":
        xn, yn, den = ints
        return tag, (Fraction(xn, den), Fraction(yn, den))
    if tag == "overlap":
        return tag, frozenset(((ints[0], ints[1]), (ints[2], ints[3])))
    return tag, tuple(ints)


def doc_of(d):
    """The document of drawing ``d`` as a JSON tree, for a test to edit."""
    return json.loads(dumps_drawing(d))


def canonical_text(doc) -> str:
    """A JSON tree written as ``dumps_drawing`` writes a document: sorted
    keys and separators "," and ":"."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_doc(doc):
    return loads_drawing(canonical_text(doc))

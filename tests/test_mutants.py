"""Mutants of the fast paths, each pinned to an oracle check that kills it.

A mutant is one function's source with one fragment replaced.  ``mutate``
reads the source with ``inspect.getsource``, requires the fragment to
occur exactly once (a refactor that moves or removes it fails loudly
instead of testing nothing), execs the edited source in the function's
module namespace and monkeypatches the result in.  Every oracle check
passes on the real code and must fail on its mutant.  A known survivor is
a strict xfail: the test that first kills it turns into an XPASS."""

import dataclasses
import inspect
import textwrap

import pytest
from test_groups import assert_closure_matches_generic
from test_properties import (SECTION_FAILURES, definitional_p_abelian,
                             reference_section_report)

from submult import groups, properties
from submult.families import cyclic_generator
from submult.groups import FiniteGroup, close, direct_product
from submult.monomial import MonomialCodec
from submult.properties import has_p1, has_p2
from submult.suites import corpus


def mutate(monkeypatch, owner, name, fragment, replacement):
    """Patch ``owner.name`` (a module function, a method or a cached
    property) with its source edited at ``fragment``."""
    original = vars(owner)[name]
    func = getattr(original, "func", original)  # a cached_property's function
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(fragment) == 1, f"{fragment!r} not once in {name}"
    namespace = dict(vars(inspect.getmodule(func)))
    exec(source.replace(fragment, replacement), namespace)
    mutant = namespace[name]
    if hasattr(mutant, "__set_name__"):  # set by a class body, not by setattr
        mutant.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, mutant)


def section_failures_are_literal():
    # built afresh, so no p_abelian is cached from an earlier test
    for make in SECTION_FAILURES.values():
        g = make()
        for prop, decide in (("p1", has_p1), ("p2", has_p2)):
            assert decide(g).to_json() == reference_section_report(g, prop)


def corpus_p_abelian_is_definitional():
    for entry in corpus().values():
        g = dataclasses.replace(entry).group  # a fresh closure
        assert g.p_abelian is definitional_p_abelian(g)


def products_p_abelian_is_definitional():
    # C_p x G for the corpus's p-groups G of order up to 27: the first
    # generator is C_p's, central, so it alone passes (x s)**p = x**p s**p
    for entry in corpus().values():
        if len(entry.group) <= 27:
            p, _ = entry.group.p_group_base()
            g = direct_product(close(cyclic_generator(p)), entry.group)
            assert g.p_abelian is definitional_p_abelian(g)


def closures_match_generic():
    # the monomial corpus groups up to order 27; heisenberg3 and
    # induced_b321 are not diagonal, so a rank byte read in the wrong row,
    # or a right permutation derived in the wrong order, shows
    for entry in corpus().values():
        if entry.is_monomial and len(entry.group) <= 27:
            assert_closure_matches_generic(entry.gens)


ONE_GENERATOR = ("self._right.items()", "list(self._right.items())[:1]")

MUTANTS = [
    pytest.param(properties, "_section_scan", "if g.p_abelian:", "if True:",
                 section_failures_are_literal, id="law-without-its-guard"),
    pytest.param(FiniteGroup, "p_abelian", *ONE_GENERATOR,
                 corpus_p_abelian_is_definitional, id="p-abelian-one-generator-corpus",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "every non-p-abelian corpus group fails the p-th power "
                     "identity at each of its generators"))),
    pytest.param(FiniteGroup, "p_abelian", *ONE_GENERATOR,
                 products_p_abelian_is_definitional, id="p-abelian-one-generator"),
    pytest.param(groups, "_right_perms", "r[y] = lp[r[x]]", "r[y] = r[lp[x]]",
                 closures_match_generic, id="right-perms-factors-swapped"),
    pytest.param(MonomialCodec, "left", "n + perm[i] * m", "n + i * m",
                 closures_match_generic, id="rank-bytes-tagged-by-column"),
]


@pytest.mark.parametrize("owner, name, fragment, replacement, oracle", MUTANTS)
def test_mutant_is_killed(owner, name, fragment, replacement, oracle, monkeypatch):
    oracle()
    mutate(monkeypatch, owner, name, fragment, replacement)
    with pytest.raises(AssertionError):
        oracle()

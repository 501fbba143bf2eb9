"""JSON boundaries: round trips of matrices, group files and reports, and
fuzzed input files, on which the CLI exits 0, 1 or 2 and never raises."""

import contextlib
import functools
import io
import json
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_groups import KERNEL_SETTINGS, monomial_groups

from submult import families, monomial, properties
from submult.cli import CHECK_PROPERTIES, main
from submult.cyclotomic import CyclotomicUnit
from submult.families import (GroupFamilySpec, cyclic_generator,
                              group_file_payload, load_group_file,
                              write_group_file)
from submult.groups import ClosureCapExceeded
from submult.monomial import MonomialMatrix
from submult.properties import HOLDS_CAPPED, PropertyReport, has_property_s

FUZZ_SETTINGS = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(n)))
    units = st.builds(CyclotomicUnit, st.integers(-20, 20), st.integers(1, 12))
    entries = draw(st.lists(units, min_size=n, max_size=n))
    return MonomialMatrix(n, tuple(perm), tuple(entries))


def simple_specs():
    """Valid recipes of every family but direct_product, all small."""
    small_prime = st.sampled_from((2, 3))
    vectors = st.integers(1, 3).flatmap(lambda w: st.lists(
        st.lists(st.integers(0, 5), min_size=w, max_size=w),
        min_size=1, max_size=2))
    basic = small_prime.flatmap(lambda p: st.fixed_dictionaries(
        {"p": st.just(p), "c": st.integers(1, p), "e": st.integers(1, 2)}))
    induced = small_prime.flatmap(lambda p: st.integers(0, p).flatmap(
        lambda c: st.fixed_dictionaries({
            "p": st.just(p), "c": st.just(c), "e": st.just(1),
            "character": st.lists(st.integers(0, p - 1),
                                  min_size=c, max_size=c)})))
    return st.one_of(
        st.builds(GroupFamilySpec, st.just("cyclic"),
                  st.fixed_dictionaries({"m": st.integers(1, 12)})),
        st.builds(GroupFamilySpec, st.sampled_from(("heisenberg", "wreath_cp_cp")),
                  st.fixed_dictionaries({"p": st.sampled_from((3, 5))})),
        st.builds(GroupFamilySpec, st.sampled_from(("quaternion8", "dihedral8")),
                  st.just({})),
        st.builds(GroupFamilySpec, st.just("diagonal_abelian"),
                  st.fixed_dictionaries({"m": st.integers(1, 6),
                                         "vectors": vectors})),
        st.builds(GroupFamilySpec, st.just("basic"), basic),
        st.builds(GroupFamilySpec, st.just("induced_rep"), induced))


def specs():
    monomial = simple_specs().filter(lambda s: s.carrier == "monomial")
    product = st.lists(monomial, min_size=2, max_size=2).map(
        lambda fs: GroupFamilySpec("direct_product",
                                   {"factors": [f.to_json() for f in fs]}))
    return st.one_of(simple_specs(), product)


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 5)
                | st.floats(-10, 10) | st.just(float("inf"))
                | st.text(max_size=3))
JSON_KEYS = st.sampled_from(("n", "perm", "entries", "num", "den", "family",
                             "params", "generators", "m", "p", "c", "e",
                             "vectors", "character", "factors")) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=6)


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_matrix(self, m):
        again = MonomialMatrix.from_json(json.loads(json.dumps(m.to_json())))
        assert again == m and again.key() == m.key()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs())
    def test_group_file(self, tmp_path_factory, spec):
        path = tmp_path_factory.mktemp("spec") / "g.json"
        write_group_file(spec, path)
        text = path.read_text()
        loaded = load_group_file(path)
        assert loaded == spec
        assert loaded.carrier == spec.carrier
        write_group_file(loaded, path)
        assert path.read_text() == text

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from((True, False, HOLDS_CAPPED)),
           st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=4),
           st.dictionaries(st.text(max_size=8), st.integers(0, 10 ** 9),
                           max_size=4),
           st.lists(st.text(max_size=8), max_size=3))
    def test_report(self, holds, witness, counters, caps):
        report = PropertyReport("p", holds,
                                witness=witness if holds is False else None,
                                counters=counters, caps=caps)
        data = json.loads(json.dumps(report.to_json()))
        assert PropertyReport.from_json(data).to_json() == report.to_json()

    @KERNEL_SETTINGS
    @given(monomial_groups(max_order=64))
    def test_decider_report(self, g):
        report = has_property_s(g)
        again = PropertyReport.from_json(json.loads(json.dumps(report.to_json())))
        assert again == report


# -- fuzzed input files ---------------------------------------------------------------

def base_documents():
    docs = [group_file_payload(GroupFamilySpec(family, params)) for family, params in (
        ("cyclic", {"m": 9}), ("heisenberg", {"p": 3}), ("quaternion8", {}),
        ("basic", {"p": 3, "c": 2, "e": 1}),
        ("diagonal_abelian", {"m": 3, "vectors": [[1, 2, 0], [0, 1, 2]]}),
        ("induced_rep", {"p": 3, "c": 2, "e": 1, "character": [1, 2]}),
        ("direct_product", {"factors": [{"family": "cyclic", "params": {"m": 2}},
                                        {"family": "quaternion8", "params": {}}]}))]
    matrix = MonomialMatrix(3, (1, 2, 0), (CyclotomicUnit(1, 3), CyclotomicUnit(0),
                                           CyclotomicUnit(2, 9)))
    return docs + [matrix.to_json()]


def paths(doc, prefix=()):
    """Every path to a value inside a JSON document, the root included.
    A group file's stored generators count as one value: the recipe, not
    the generators it is compared with, is what gets parsed."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in children:
        if k == "generators":
            yield prefix + (k,)
        else:
            yield from paths(v, prefix + (k,))


def set_at(doc, path, value):
    if not path:
        return value
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


def delete_at(doc, path):
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    del parent[path[-1]]
    return doc


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(base_documents()))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        if path and draw(st.booleans()):
            doc = delete_at(doc, path)
        else:
            doc = set_at(doc, path, draw(JSON_VALUES))
    return doc


def assert_exit_code(path):
    for argv in (["spectrum", str(path)], ["check", "s", str(path)]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv


def group_file(family, params, **changes):
    """The group file of a valid recipe, its params then updated with
    ``changes``."""
    doc = group_file_payload(GroupFamilySpec(family, params))
    doc["params"].update(changes)
    return doc


def value_at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def integer_paths(doc):
    """The paths of ``paths`` that end at an integer."""
    return [path for path in paths(doc) if type(value_at(doc, path)) is int]


def documents_with_integers():
    """A group file of each family with integer parameters (all but
    quaternion8 and dihedral8), one with nested factors, and a matrix file."""
    docs = base_documents() + [group_file(family, params) for family, params in (
        ("wreath_cp_cp", {"p": 3}),
        ("direct_product", {"factors": [
            {"family": "heisenberg", "params": {"p": 3}},
            {"family": "diagonal_abelian", "params": {"m": 2, "vectors": [[1]]}}]}))]
    docs = [d for d in docs if integer_paths(d)]
    assert {d.get("family") for d in docs} == \
        set(families.FAMILIES) - {"quaternion8", "dihedral8"} | {None}
    return docs


@st.composite
def documents_with_a_non_integer(draw):
    """A document with one integer replaced by a float, a numeric string or
    a bool, none of which a JSON integer field accepts."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents_with_integers()))))
    path = draw(st.sampled_from(integer_paths(doc)))
    value = value_at(doc, path)
    return set_at(doc, path, draw(st.sampled_from(
        (3.5, 3.0, float(value), str(value), bool(value), not value))))


def documents_of_every_family():
    """A group file of each family, and a matrix file."""
    docs = base_documents() + [group_file(family, params) for family, params in (
        ("wreath_cp_cp", {"p": 3}), ("dihedral8", {}))]
    assert {d.get("family") for d in docs} == set(families.FAMILIES) | {None}
    return docs


@st.composite
def documents_with_a_key_added_or_dropped(draw):
    """A document with one key added to, or dropped from, one of its JSON
    objects: the tool writes each object with exactly its keys."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents_of_every_family()))))
    objects = [path for path in paths(doc) if isinstance(value_at(doc, path), dict)]
    obj = value_at(doc, draw(st.sampled_from(objects)))
    if obj and draw(st.booleans()):
        del obj[draw(st.sampled_from(sorted(obj)))]
    else:
        obj[draw(JSON_KEYS.filter(lambda k: k not in obj))] = draw(JSON_VALUES)
    return doc


class TestFuzzedFiles:
    @FUZZ_SETTINGS
    @given(mutated_documents())
    def test_mutated_documents(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "f.json"
        path.write_text(json.dumps(doc))
        assert_exit_code(path)

    @FUZZ_SETTINGS
    @given(documents_with_a_non_integer())
    def test_non_integer_fields_exit_two(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "f.json"
        path.write_text(json.dumps(doc))
        for argv in (["spectrum", str(path)], ["check", "s", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                assert main(argv) == 2, (argv, doc)
            assert "Traceback" not in err.getvalue()

    @FUZZ_SETTINGS
    @given(documents_with_a_key_added_or_dropped())
    def test_added_or_dropped_keys_exit_two(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "f.json"
        path.write_text(json.dumps(doc))
        for argv in (["spectrum", str(path)], ["check", "s", str(path)],
                     ["analyze", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                assert main(argv) == 2, (argv, doc)
            if argv[0] != "check":  # check puts the error in its report
                assert err.getvalue().startswith("error: "), (argv, doc)
                assert err.getvalue().count("\n") == 1, (argv, doc)

    @FUZZ_SETTINGS
    @given(st.binary(max_size=40) | JSON_VALUES.map(
        lambda v: json.dumps(v).encode()))
    def test_random_files(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "f.json"
        path.write_bytes(raw)
        assert_exit_code(path)

    @pytest.mark.parametrize("doc", [
        pytest.param({"family": "cyclic", "params": {"m": [3]}}, id="m-list"),
        pytest.param({"family": "cyclic", "params": {"m": None}}, id="m-null"),
        pytest.param({"family": "diagonal_abelian",
                      "params": {"m": 3, "vectors": 5}}, id="vectors-int"),
        pytest.param({"family": "diagonal_abelian",
                      "params": {"m": 3, "vectors": [[[1]]]}}, id="vectors-nested"),
        pytest.param({"family": "diagonal_abelian",
                      "params": {"m": 3, "vectors": {"n": 1}}}, id="vectors-dict"),
        pytest.param({"family": "direct_product", "params": {"factors": 5}},
                     id="factors-int"),
        pytest.param({"family": "direct_product", "params": {"factors": []},
                      "generators": []}, id="factors-empty"),
        pytest.param({"family": "direct_product", "params": {"factors": [
            {"family": "cyclic", "params": {"m": 2}}]},
            "generators": [g.to_json() for g in cyclic_generator(2)]},
            id="factors-one"),
        pytest.param({"family": "induced_rep", "params": {
            "p": 3, "c": 1, "e": 1, "character": 5}}, id="character-int"),
        pytest.param({"family": "induced_rep", "params": {
            "p": 2, "c": 3, "e": 1, "character": [1, 1, 1]}}, id="induced-c-above-p"),
        pytest.param({"family": "induced_rep", "params": {
            "p": 3, "c": 1, "e": -1, "character": [1]}}, id="induced-e-negative"),
        pytest.param({"family": "heisenberg", "params": {"p": 4}}, id="p-not-prime"),
        pytest.param({"family": "heisenberg", "params": {"p": float("inf")}},
                     id="p-infinite"),
        pytest.param({"family": "basic", "params": {"p": 3, "c": 2}}, id="basic-no-e"),
        pytest.param({"n": 1, "perm": [0], "entries": [
            {"num": 1, "den": float("inf")}]}, id="den-infinite"),
        pytest.param({"n": 2, "perm": [0, 0], "entries": [{"num": 0, "den": 1}] * 2},
                     id="perm-not-bijective"),
        pytest.param({"n": 1, "perm": [0], "entries": [{"num": 1, "den": 0}]},
                     id="den-zero"),
        pytest.param({"n": 1, "perm": [0], "entries": [{"num": 1, "den": -3}]},
                     id="den-negative"),
        pytest.param({"n": 1, "perm": [0], "entries": [5]}, id="entry-int"),
        # int() reads each of these as the stored recipe's own value
        *(pytest.param(group_file("heisenberg", {"p": 3}, p=p), id=f"p-{p!r}")
          for p in (3.5, 3.9, 3.0, "3")),
        *(pytest.param(group_file("cyclic", {"m": int(m)}, m=m), id=f"m-{m!r}")
          for m in (3.7, "3", True)),
        *(pytest.param(group_file("diagonal_abelian", {"m": 3, "vectors": [[1, 0]]},
                                  vectors=[[v, 0]]), id=f"vector-{v!r}")
          for v in (1.2, "1")),
        pytest.param(group_file("induced_rep", {"p": 3, "c": 1, "e": 1, "character": [1]},
                                character=[1.5]), id="character-1.5"),
        pytest.param({"n": 1, "perm": [0], "entries": [{"num": 1.5, "den": 3}]},
                     id="num-1.5"),
        pytest.param({"n": 1, "perm": [0.7], "entries": [{"num": 1, "den": 3}]},
                     id="perm-0.7"),
        pytest.param({"n": "1", "perm": [0], "entries": [{"num": 1, "den": 3}]},
                     id="n-string"),
        # stored generators compare type-strictly: 3.0 is not 3, false not 0
        pytest.param(set_at(group_file("heisenberg", {"p": 3}),
                            ("generators", 0, "n"), 3.0), id="generator-n-3.0"),
        pytest.param(set_at(group_file("heisenberg", {"p": 3}),
                            ("generators", 0, "entries", 0, "num"), False),
                     id="generator-num-false"),
        # a stored carrier that is not the recipe's
        *(pytest.param({**group_file("heisenberg", {"p": 3}), "carrier": carrier},
                       id=f"carrier-{carrier!r}") for carrier in ("affine", 5)),
        pytest.param({k: v for k, v in group_file("heisenberg", {"p": 3}).items()
                      if k != "carrier"}, id="carrier-missing"),
        pytest.param({**group_file("basic", {"p": 3, "c": 2, "e": 1}),
                      "carrier": "monomial"}, id="basic-carrier-monomial"),
        # params must be an object of exactly the family's parameters
        pytest.param(group_file("heisenberg", {"p": 3}, q=1.5), id="param-foreign"),
        pytest.param({**group_file("heisenberg", {"p": 3}), "params": [["p", 3]]},
                     id="params-pairs"),
        # only the keys the tool writes: at the top of a group file, in a
        # factor recipe, in a matrix and in its entries
        pytest.param({**group_file("heisenberg", {"p": 3}), "extra": 1},
                     id="group-file-extra-key"),
        pytest.param(set_at(group_file("direct_product", {"factors": [
            {"family": "cyclic", "params": {"m": 2}},
            {"family": "cyclic", "params": {"m": 3}}]}),
            ("params", "factors", 1, "extra"), 0), id="factor-extra-key"),
        pytest.param({"n": 1, "perm": [0], "entries": [{"num": 1, "den": 3}], "more": 2},
                     id="matrix-extra-key"),
        pytest.param({"n": 1, "perm": [0], "entries": [{"num": 1, "den": 3, "junk": 0}]},
                     id="entry-extra-key"),
        pytest.param([1, 2], id="top-list"), pytest.param(7, id="top-int"),
        pytest.param("perm", id="top-string"), pytest.param(None, id="top-null"),
    ])
    def test_known_malformed_files_exit_two(self, doc, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        for argv in (["spectrum", str(path)], ["check", "s", str(path)],
                     ["analyze", str(path)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if argv[0] != "check":  # check puts the error in its report
                assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_huge_prime_rejected_before_primality_test(self, tmp_path,
                                                        monkeypatch):
        def refuse(n):
            raise AssertionError(f"is_prime({n}) ran")

        monkeypatch.setattr(families, "is_prime", refuse)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"family": "heisenberg",
                                    "params": {"p": 100000000000031}}))
        for argv in (["spectrum", str(path)], ["check", "s", str(path)]):
            assert main(argv) == 2, argv

    @pytest.mark.parametrize("family, params, extra", [
        ("basic", {}, []),
        ("induced_rep", {"character": [1]}, ["--character", "1"]),
    ])
    @pytest.mark.parametrize("e", [16, 10 ** 6])
    def test_large_p_power_rejected_before_any_build(self, family, params, extra,
                                                     e, tmp_path, monkeypatch,
                                                     capsys):
        # the builders loop over all p**e exponents, so p**e past the
        # closure cap is refused before any of them runs
        def refuse(*args, **kwargs):
            raise AssertionError("a builder ran")

        monkeypatch.setattr(families, "AffineContext", refuse)
        monkeypatch.setattr(families, "induced_rep_generators", refuse)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"family": family,
                                    "params": {"p": 3, "c": 1, "e": e, **params}}))
        construct = ["construct", family, "--p", "3", "--c", "1", "--e", str(e),
                     *extra, "-o", str(tmp_path / "out.json")]
        for argv in (["spectrum", str(path)], ["check", "s", str(path)], construct):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert f"recipes take p**e <= 4096, got p=3, e={e}" in captured.out + captured.err

    @pytest.mark.parametrize("argv, message", [
        (["check", "s", "{}/b101"], "needs a monomial carrier"),
        (["check", "wp2", "{}/b61"], "closure exceeded cap 4096"),
        (["check", "s-hat", "{}/b13"], "closure exceeded cap 4096"),
        (["construct", "basic", "--p", "61", "--c", "60", "--e", "1",
          "-o", "{}/out"], "closure exceeded cap 4096")])
    def test_large_basic_group_refused_before_any_build(self, argv, message,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        # a basic group of order p**(e(c+1)) past the closure cap is refused
        # before its p**e matrix powers, its characters or a closure are
        # computed, and loading its file computes none of them either
        for p in (101, 61, 13):
            write_group_file(GroupFamilySpec("basic", {"p": p, "c": p - 1, "e": 1}),
                             tmp_path / f"b{p}")

        def refuse(*args, **kwargs):
            raise AssertionError("a builder ran")

        for module, name in ((families, "AffineContext"), (families, "close"),
                             (properties, "all_characters"),
                             (properties, "induced_rep_generators"),
                             (properties, "close")):
            monkeypatch.setattr(module, name, refuse)
        argv = [a.format(tmp_path) for a in argv]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert message in captured.out + captured.err

    @pytest.mark.parametrize("family, m", [("cyclic", 10 ** 9), ("diagonal_abelian", 10 ** 9),
                                           ("cyclic", 4097)])
    def test_large_modulus_refused_without_tables(self, family, m, tmp_path,
                                                  monkeypatch, capsys):
        # roots of unity of order m past the cap: the closure is refused at
        # cap + 1 elements, with no codec, whose tables have m entries, built
        def refuse(*args):
            raise AssertionError("a codec was built")

        monkeypatch.setattr(monomial.MonomialCodec, "__init__", refuse)
        argv = ["construct", family, "--m", str(m), "-o", str(tmp_path / "out")]
        assert main(argv + (["--vector", "1"] if family == "diagonal_abelian" else [])) == 2
        assert "closure exceeded cap 4096" in capsys.readouterr().err

    @pytest.mark.parametrize("p, c, e", [(3, 2, 2), (2, 1, 10 ** 6), (4093, 2, 1)])
    def test_basic_order_past_cap_refused(self, p, c, e):
        # the check clips the exponent at the cap's bit length, so a huge e
        # forms no huge power
        with pytest.raises(ClosureCapExceeded):
            families.check_basic_order(p, c, e, 728)

    def test_basic_order_at_cap_accepted(self):
        families.check_basic_order(3, 2, 2, 729)
        assert len(families.basic_group(3, 2, 2, cap=729)) == 729

    @pytest.mark.parametrize("p, e, ok", [(2, 12, True), (2, 13, False),
                                          (4093, 1, True), (67, 2, False),
                                          (3, 7, True), (3, 8, False)])
    def test_p_power_bound_is_the_closure_cap(self, p, e, ok):
        if ok:
            GroupFamilySpec("basic", {"p": p, "c": 1, "e": e})
        else:
            with pytest.raises(ValueError, match=r"p\*\*e <= 4096"):
                GroupFamilySpec("basic", {"p": p, "c": 1, "e": e})


# -- fuzzed command lines ---------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Group files of orders 1, 8 and 27, and the basic group B_3(2,1)."""
    folder = tmp_path_factory.mktemp("cli")
    files = []
    for family, args in (("diagonal_abelian", ["--m", "3", "--vector", "0,0"]),
                         ("quaternion8", []), ("heisenberg", ["--p", "3"]),
                         ("basic", ["--p", "3", "--c", "2", "--e", "1"])):
        path = folder / f"{family}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", family, *args, "-o", str(path)]) == 0
        files.append(str(path))
    return files


# Zero, negative and out-of-range values.  --cap stays at most 4096: a
# larger one lets v-regular build the cube of an order-27 group.
CAPS = st.integers(-3, 5) | st.sampled_from((26, 27, 728, 729, 4096))
COUNTS = st.integers(-3, 5) | st.sampled_from((27, 10 ** 9))
DEPTHS = st.integers(-3, 5) | st.just(50)
CHECK_OPTIONS = {"--cap": CAPS, "--section-cap": COUNTS, "--powers": COUNTS,
                 "--k": DEPTHS, "--j": DEPTHS}


@st.composite
def command_lines(draw, files):
    path = draw(st.sampled_from(files))
    command = draw(st.sampled_from(("analyze",) + CHECK_PROPERTIES))
    if command == "analyze":
        argv, options = ["analyze", path], {"--cap": CAPS}
    else:
        argv, options = ["check", command, path], CHECK_OPTIONS
    for flag, values in options.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


class TestFuzzedCommandLines:
    @FUZZ_SETTINGS
    @given(st.data())
    def test_exit_code_contract(self, cli_files, data):
        argv = data.draw(command_lines(cli_files))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()

"""CLI integration: subcommands, exit codes, and text/structured mirroring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import submult
from submult import cli
from submult.cli import main
from submult.config import RunConfig
from submult.families import (FAMILY_TABLE, build_group, load_group_file,
                              write_group_file)
from submult.groups import FiniteGroup
from submult.properties import PropertyReport, is_engel


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    assert main(["construct", "heisenberg", "--p", "3", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def w3_file(tmp_path):
    path = tmp_path / "w3.json"
    assert main(["construct", "wreath_cp_cp", "--p", "3", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def w3xc27_file(tmp_path, w3_file):
    """wreath3 x C27, order 2187."""
    c27 = tmp_path / "c27.json"
    assert main(["construct", "cyclic", "--m", "27", "-o", str(c27)]) == 0
    path = tmp_path / "w3xc27.json"
    assert main(["construct", "direct_product", "--factor", str(w3_file),
                 "--factor", str(c27), "-o", str(path)]) == 0
    return path


@pytest.fixture()
def b321_file(tmp_path):
    path = tmp_path / "b321.json"
    assert main(["construct", "basic", "--p", "3", "--c", "2", "--e", "1",
                 "-o", str(path)]) == 0
    return path


class TestWithoutTable:
    """The power-structure questions on B_3(2,2), order 729, read power
    maps, generated subgroups and conjugation along the spanning tree, so
    they answer as before with no Cayley table."""

    ANALYZE = {"family": "basic", "params": {"p": 3, "c": 2, "e": 2},
               "order": 729, "exponent": 9, "class": 2,
               "lower_central_orders": [729, 9, 1], "center_order": 9,
               "abelian": False, "metabelian": True,
               "power_structure": [
                   {"k": 1, "order_dividing_set": 27, "omega_subgroup": 27,
                    "power_image_set": 27, "agemo_subgroup": 27},
                   {"k": 2, "order_dividing_set": 729, "omega_subgroup": 729,
                    "power_image_set": 1, "agemo_subgroup": 1}]}
    CAPPED = ["|G| = 729 exceeds section cap 256; only the group itself was checked"]

    def test_b322(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "b322.json"
        assert main(["construct", "basic", "--p", "3", "--c", "2", "--e", "2",
                     "-o", str(path)]) == 0

        def no_table(self):
            raise AssertionError("a Cayley table was built")

        monkeypatch.setattr(FiniteGroup, "full_table", no_table)
        capsys.readouterr()
        assert main(["analyze", str(path), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out) == self.ANALYZE
        expected = {"wp2": (0, True, None, {"elements_checked": 729}, []),
                    "p1": (2, "holds-capped", None, {"sections_checked": 1}, self.CAPPED),
                    "p2": (2, "holds-capped", None, {"sections_checked": 1}, self.CAPPED)}
        for prop, (code, holds, witness, counters, caps) in expected.items():
            assert main(["check", prop, str(path), "--format", "structured"]) == code
            report = json.loads(capsys.readouterr().out)["report"]
            assert report == {"property": prop, "holds": holds, "witness": witness,
                              "counters": counters, "caps": caps}


class TestConstruct:
    def test_heisenberg_file_shape(self, h3_file):
        data = json.loads(h3_file.read_text())
        assert data["family"] == "heisenberg"
        assert data["carrier"] == "monomial"
        assert len(data["generators"]) == 2
        assert all(g["n"] == 3 for g in data["generators"])

    def test_basic_is_affine(self, b321_file):
        data = json.loads(b321_file.read_text())
        assert data["carrier"] == "affine"
        assert data["generators"][0] == {"v": [1, 0], "t": 0}

    def test_cyclic_one_by_one(self, tmp_path):
        path = tmp_path / "c9.json"
        assert main(["construct", "cyclic", "--m", "9", "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["generators"] == [
            {"n": 1, "perm": [0], "entries": [{"num": 1, "den": 9}]}]

    def test_idempotent(self, tmp_path):
        path = tmp_path / "q8.json"
        assert main(["construct", "quaternion8", "-o", str(path)]) == 0
        first = path.read_text()
        assert main(["construct", "quaternion8", "-o", str(path)]) == 0
        assert path.read_text() == first

    def test_diagonal_abelian(self, tmp_path):
        path = tmp_path / "d.json"
        assert main(["construct", "diagonal_abelian", "--m", "3",
                     "--vector", "1,2,0", "--vector", "0,1,2",
                     "-o", str(path)]) == 0

    def test_direct_product_of_files(self, tmp_path, h3_file):
        c9 = tmp_path / "c9.json"
        main(["construct", "cyclic", "--m", "9", "-o", str(c9)])
        out = tmp_path / "prod.json"
        assert main(["construct", "direct_product", "--factor", str(h3_file),
                     "--factor", str(c9), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["family"] == "direct_product"

    def test_invalid_params(self, tmp_path, capsys):
        code = main(["construct", "heisenberg", "--p", "4",
                     "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestFamilyContract:
    """Every family of ``FAMILY_TABLE`` is constructed from the command
    line by the flags of its parameters, and refuses a recipe without one."""

    FLAGS = {
        "cyclic": ["--m", "9"],
        "heisenberg": ["--p", "3"],
        "wreath_cp_cp": ["--p", "2"],
        "basic": ["--p", "3", "--c", "2", "--e", "1"],
        "quaternion8": [],
        "dihedral8": [],
        "diagonal_abelian": ["--m", "3", "--vector", "1,2,0", "--vector", "0,1,2"],
        "direct_product": ["--factor", "{q8}", "--factor", "{c9}"],
        "induced_rep": ["--p", "3", "--c", "2", "--e", "1", "--character", "1,2"],
    }
    # the repeatable flags, whose lists the recipe's own checks read
    LIST_FLAGS = {"vectors": ("--vector", "diagonal_abelian needs at least one --vector"),
                  "factors": ("--factor", "direct_product needs a list of at least "
                                          "two factors, got []")}

    @pytest.fixture()
    def factors(self, tmp_path):
        paths = {name: tmp_path / f"{name}.json" for name in ("q8", "c9")}
        assert main(["construct", "quaternion8", "-o", str(paths["q8"])]) == 0
        assert main(["construct", "cyclic", "--m", "9", "-o", str(paths["c9"])]) == 0
        return paths

    def flags(self, family, factors):
        return [arg.format(**factors) for arg in self.FLAGS[family]]

    def test_choices_are_the_table(self):
        assert set(self.FLAGS) == set(FAMILY_TABLE)
        construct = cli.build_parser()._subparsers._group_actions[0].choices["construct"]
        (family,) = [a for a in construct._actions if a.dest == "family"]
        assert tuple(family.choices) == tuple(FAMILY_TABLE)

    @pytest.mark.parametrize("family", list(FAMILY_TABLE))
    def test_round_trip(self, family, factors, tmp_path):
        path = tmp_path / "g.json"
        assert main(["construct", family, *self.flags(family, factors),
                     "-o", str(path)]) == 0
        spec = load_group_file(path)
        assert (spec.family, tuple(spec.params)) == (family, FAMILY_TABLE[family].params)
        assert len(build_group(spec)) > 1
        again = tmp_path / "again.json"
        write_group_file(spec, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("family", list(FAMILY_TABLE))
    def test_each_parameter_is_required(self, family, factors, tmp_path, capsys):
        argv = self.flags(family, factors)
        for param in FAMILY_TABLE[family].params:
            flag, message = self.LIST_FLAGS.get(
                param, (f"--{param}", f"construct {family} needs --{param}"))
            kept = [arg for t, arg in enumerate(argv)
                    if flag not in (arg, argv[t - 1] if t else None)]
            assert len(kept) < len(argv)
            capsys.readouterr()
            out = tmp_path / "g.json"
            assert main(["construct", family, *kept, "-o", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_flags_are_the_parameters(self):
        params = {key for family in FAMILY_TABLE.values() for key in family.params}
        assert params == set(cli.CONSTRUCT_FLAGS)

    @pytest.mark.parametrize("family", list(FAMILY_TABLE))
    def test_foreign_flag_is_refused(self, family, factors, tmp_path, capsys):
        # a flag of a parameter the family lacks is an input error, refused
        # before any factor file is read
        foreign = [(key, flag) for key, (flag, _, _) in cli.CONSTRUCT_FLAGS.items()
                   if key not in FAMILY_TABLE[family].params]
        out = tmp_path / "g.json"
        for key, flag in foreign:
            value = str(tmp_path / "nonexist.json") if key == "factors" else "3"
            capsys.readouterr()
            assert main(["construct", family, *self.flags(family, factors),
                         flag, value, "-o", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: construct {family} takes no {flag}\n"
            assert not out.exists()

    def test_quaternion_with_prime_and_factor(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        assert main(["construct", "quaternion8", "--p", "3", "--factor",
                     str(tmp_path / "nonexist.json"), "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: construct quaternion8 takes no --p, --factor\n"
        assert not out.exists()


class TestAnalyze:
    def test_heisenberg(self, h3_file, capsys):
        assert main(["analyze", str(h3_file)]) == 0
        out = capsys.readouterr().out
        assert "order: 27" in out
        assert "exponent: 3" in out
        assert "class: 2" in out
        assert "center_order: 3" in out

    def test_wreath_structured(self, w3_file, capsys):
        assert main(["analyze", str(w3_file), "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 81
        assert data["exponent"] == 9
        assert data["class"] == 3

    def test_cyclic(self, tmp_path, capsys):
        path = tmp_path / "c9.json"
        main(["construct", "cyclic", "--m", "9", "-o", str(path)])
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "order: 9" in out and "class: 1" in out

    @pytest.mark.parametrize("fixture", ["w3_file", "b321_file"])
    def test_builds_no_subgroup_as_group(self, fixture, request, monkeypatch, capsys):
        # metabelian is decided on the parent's table: the group the file
        # describes is the only one built
        path = request.getfixturevalue(fixture)
        capsys.readouterr()
        built, init = [], FiniteGroup.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(FiniteGroup, "__init__", counting)
        assert main(["analyze", str(path), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["metabelian"] is True
        assert len(built) == 1, built


class TestCheck:
    def test_s_pass_exit_zero(self, h3_file, capsys):
        assert main(["check", "s", str(h3_file)]) == 0
        assert "holds: true" in capsys.readouterr().out

    def test_regular_fail_exit_one(self, w3_file, capsys):
        assert main(["check", "regular", str(w3_file)]) == 1
        out = capsys.readouterr().out
        assert "holds: false" in out
        assert "witness" in out

    def test_capped_exit_two(self, b321_file):
        assert main(["check", "v-regular", str(b321_file)]) == 2

    def test_v_regular_abelian_exit_zero(self, tmp_path, capsys):
        # every direct power of an abelian group is abelian, hence regular
        path = tmp_path / "c2.json"
        assert main(["construct", "cyclic", "--m", "2", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "v-regular", str(path)]) == 0
        out = capsys.readouterr().out
        assert "holds: true" in out and "powers_checked: 1" in out

    def test_section_cap_exit_two(self, h3_file, capsys):
        assert main(["check", "p2", str(h3_file), "--section-cap", "16"]) == 2
        assert "holds-capped" in capsys.readouterr().out

    def test_s_on_affine_carrier_rejected(self, b321_file, capsys):
        assert main(["check", "s", str(b321_file)]) == 2
        assert "monomial" in capsys.readouterr().out

    def test_s_hat_on_basic_exhaustive(self, b321_file, capsys):
        assert main(["check", "s-hat", str(b321_file)]) == 0
        assert "reps_checked: 9" in capsys.readouterr().out

    def test_engel_default_depth(self, b321_file):
        assert main(["check", "engel", str(b321_file)]) == 0

    @pytest.mark.parametrize("construct, klass", [
        (["heisenberg", "--p", "5"], 2), (["wreath_cp_cp", "--p", "3"], 3)],
        ids=["h5", "w3"])
    def test_engel_any_depth_settled_by_class(self, construct, klass, tmp_path,
                                              capsys, monkeypatch):
        # a depth at or above the nilpotency class passes from the lower
        # central series alone, however deep: no table, no k-level scan
        path = tmp_path / "g.json"
        assert main(["construct", *construct, "-o", str(path)]) == 0

        def no_table(self):
            raise AssertionError("a Cayley table was built")

        monkeypatch.setattr(FiniteGroup, "full_table", no_table)
        capsys.readouterr()
        assert main(["check", "engel", str(path), "--k", "1000000000",
                     "--format", "structured"]) == 0
        counters = json.loads(capsys.readouterr().out)["report"]["counters"]
        assert counters["class"] == klass and counters["pairs_evaluated"] == 0

    @pytest.mark.parametrize("construct, code", [
        (["heisenberg", "--p", "3"], 0),
        (["diagonal_abelian", "--m", "3", "--vector", "1,2,0",
          "--vector", "0,1,2"], 1)], ids=["h3", "diagonal"])
    def test_irreducible_exit_codes(self, construct, code, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["construct", *construct, "-o", str(path)]) == 0
        assert main(["check", "irreducible", str(path)]) == code

    @pytest.mark.parametrize("construct, flags, error", [
        (["heisenberg", "--p", "3"], ["--j", "-1"], "j must be nonnegative"),
        (["diagonal_abelian", "--m", "2", "--vector", "1,0,0,1"], [],
         "degree 4 is not prime")], ids=["j-negative", "degree-4"])
    def test_chi_containment_input_errors(self, construct, flags, error, tmp_path,
                                          capsys):
        path = tmp_path / "g.json"
        assert main(["construct", *construct, "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "chi-containment", str(path), *flags,
                     "--format", "structured"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == error

    def test_structured_report_round_trips(self, w3_file, capsys):
        main(["check", "s", str(w3_file), "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        report = PropertyReport.from_json(payload["report"])
        assert report.holds is False
        assert payload["config"]["seed"] == 0

    def test_text_mirrors_structured(self, h3_file, capsys):
        main(["check", "wp2", str(h3_file), "--format", "structured"])
        structured = json.loads(capsys.readouterr().out)
        main(["check", "wp2", str(h3_file)])
        text = capsys.readouterr().out
        assert f"report.holds: {json.dumps(structured['report']['holds'])}" in text
        for counter, value in structured["report"]["counters"].items():
            assert f"report.counters.{counter}: {value}" in text

    @pytest.mark.parametrize("prop", ["p-abelian", "regular", "wp2"])
    def test_order_2187_fails_with_witness(self, w3xc27_file, capsys, prop):
        # a 2187 x 2187 Cayley table
        capsys.readouterr()
        assert main(["check", prop, str(w3xc27_file),
                     "--format", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["holds"] is False
        assert report["witness"]

    def test_larger_section_cap_keeps_the_witness(self, w3xc27_file, capsys):
        # Above the section cap only the group itself is probed.  A cap that
        # admits the group scans its sections, and the first, G/1, fails
        # with the same element.
        witnesses = []
        for cap in ("256", "4096"):
            capsys.readouterr()
            assert main(["check", "p2", str(w3xc27_file), "--section-cap", cap,
                         "--format", "structured"]) == 1
            report = json.loads(capsys.readouterr().out)["report"]
            assert report["counters"] == {"sections_checked": 1}
            witnesses.append(report["witness"])
        capped, scanned = witnesses
        assert scanned["subgroup_order"] == 2187 and scanned["kernel_order"] == 1
        assert (scanned["k"], scanned["element_index"]) == \
            (capped["k"], capped["element_index"])
        assert scanned["element"] == {"coset_rep": capped["element"]}

    def test_missing_file(self, capsys):
        assert main(["check", "s", "/nonexistent/g.json"]) == 2

    def test_output_to_file(self, h3_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "s", str(h3_file), "--format", "structured",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["holds"] is True


RECORDED_WITNESSES = Path(__file__).parent / "data" / "witnesses"
WITNESS_GROUPS = {
    "b331": ["basic", "--p", "3", "--c", "3", "--e", "1"],
    "b221": ["basic", "--p", "2", "--c", "2", "--e", "1"],
    "w3": ["wreath_cp_cp", "--p", "3"],
    "q8": ["quaternion8"],
    "d8": ["dihedral8"],
}


class TestRecordedWitnesses:
    """``check --format structured`` prints, byte for byte, the report
    recorded in ``tests/data/witnesses/<property>_<group>.json``: every
    witness index, serialized element, spectrum and counter.  Each request
    fails its property (exit 1), so each output carries a witness; the
    affine ones (b331) decode affine codes, the others monomial codes."""

    @pytest.mark.parametrize("recorded", sorted(RECORDED_WITNESSES.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_check_prints_recorded_report(self, recorded, tmp_path, capsys):
        prop, group = recorded.stem.rsplit("_", 1)
        path = tmp_path / f"{group}.json"
        assert main(["construct", *WITNESS_GROUPS[group], "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", prop, str(path), "--format", "structured"]) == 1
        assert capsys.readouterr().out == recorded.read_text(encoding="utf-8")

    def test_requests_cover_both_carriers(self):
        names = {path.stem for path in RECORDED_WITNESSES.glob("*.json")}
        assert {"regular_b331", "s_w3", "p-abelian_w3", "regular_w3", "s_q8",
                "s-hat_b221"} <= names


class TestRepeatedMain:
    """The parser is built once per process; consecutive calls of ``main``
    must not see each other's options."""

    def test_engel_depth_returns_to_default(self, tmp_path, capsys):
        # Q8 has class 2: it passes the 2-Engel identity and fails the
        # default depth p - 1 = 1
        path = tmp_path / "q8.json"
        assert main(["construct", "quaternion8", "-o", str(path)]) == 0
        assert main(["check", "engel", str(path), "--k", "2"]) == 0
        capsys.readouterr()
        assert main(["check", "engel", str(path), "--format", "structured"]) == 1
        assert json.loads(capsys.readouterr().out)["report"]["witness"]["depth"] == 1

    def test_output_file_then_stdout(self, h3_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["check", "s", str(h3_file), "--format", "structured",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["check", "s", str(h3_file), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())


def test_parser_defaults_are_run_config_defaults():
    # check reads the section cap and verify the seed; neither takes the other
    check = cli.build_parser().parse_args(["check", "s", "g.json"])
    verify = cli.build_parser().parse_args(["verify"])
    assert RunConfig(closure_cap=check.cap, section_cap=check.section_cap,
                     power_cap=check.powers, output=check.format,
                     seed=verify.seed) == RunConfig()
    assert (verify.cap, verify.powers, verify.format) == (check.cap, check.powers,
                                                          check.format)
    for command in (["construct", "cyclic", "-o", "g.json"], ["analyze", "g.json"]):
        assert cli.build_parser().parse_args(command).cap == RunConfig().closure_cap


class TestSpectrum:
    def test_matrix_file(self, tmp_path, capsys):
        from submult.families import big_cycle
        path = tmp_path / "p9.json"
        path.write_text(json.dumps(big_cycle(3, 2).to_json()))
        assert main(["spectrum", str(path), "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 9
        assert len(data["spectrum"]) == 9

    def test_group_file(self, h3_file, capsys, monkeypatch):
        reads, read_text = [], Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda path, *args, **kwargs:
                            reads.append(path) or read_text(path, *args, **kwargs))
        assert main(["spectrum", str(h3_file), "--format", "structured"]) == 0
        assert reads == [h3_file]  # the file is read and parsed once
        data = json.loads(capsys.readouterr().out)
        assert len(data["generators"]) == 2
        assert len(data["generators"][0]["spectrum"]) == 3


class TestVerify:
    def test_single_suite(self, capsys):
        assert main(["verify", "T2"]) == 0
        out = capsys.readouterr().out
        assert "T2 [PASS]" in out
        assert "seed: 0" in out

    def test_seeded_suite_structured(self, capsys):
        assert main(["verify", "T1", "--seed", "7", "--format",
                     "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["config"]["seed"] == 7

    def test_unknown_suite(self, capsys):
        assert main(["verify", "T99"]) == 2

    @pytest.mark.parametrize("fmt", ["structured", "text"])
    def test_output_to_file(self, fmt, tmp_path, capsys):
        out = tmp_path / "t2.out"
        assert main(["verify", "T2", "--format", fmt, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify", "T2", "--format", fmt]) == 0
        printed = capsys.readouterr().out
        if fmt == "structured":
            written, printed = json.loads(out.read_text()), json.loads(printed)
            for data in (written, printed):
                assert data["passed"] is True
                for suite in data["suites"]:
                    suite.pop("elapsed_seconds")
            assert written == printed
        else:
            assert out.read_text().splitlines()[1:] == printed.splitlines()[1:]
            assert out.read_text().startswith("T2 [PASS]")


@pytest.mark.parametrize("argv", [
    ["verify", "T2", "--section-cap", "16"], ["check", "s", "g.json", "--seed", "1"]],
    ids=["verify-section-cap", "check-seed"])
def test_options_only_where_read(argv, capsys):
    # verify runs no section scan and no check samples: neither takes the flag
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err



class TestArgvDispatch:
    """``main`` hands a known subcommand's arguments to that subcommand's
    parser alone and falls back to the full parser otherwise: every argv
    gives the exit code, output and namespace of the full parser."""

    ARGVS = {
        "construct": ["construct", "cyclic", "--m", "3", "-o", "c3.json"],
        "analyze": ["analyze", "g.json", "--cap", "64"],
        "check": ["check", "engel", "g.json", "--k", "2", "--format", "structured"],
        "spectrum": ["spectrum", "m.json", "-o", "out.txt"],
        "verify": ["verify", "T1", "T2", "--seed", "3"],
        "verify-all": ["verify"],
        "after-double-dash": ["check", "s", "--", "g.json"],
        "missing-positional": ["check", "s"],
        "missing-required": ["construct", "cyclic", "--m", "3"],
        "bad-choice": ["check", "t", "g.json"],
        "bad-family": ["construct", "nope", "-o", "x.json"],
        "bad-type": ["check", "s", "g.json", "--cap", "many"],
        "unknown-command": ["frobnicate", "g.json"],
        "no-command": [],
        "option-first": ["--format", "text", "check", "s", "g.json"],
        "extra-argument": ["check", "s", "g.json", "extra"],
        "extra-option": ["analyze", "g.json", "--bogus"],
        "help": ["-h"],
        "check-help": ["check", "-h"],
        "verify-help": ["verify", "T1", "--help"],
    }

    @pytest.fixture()
    def recorded(self):
        """Each subcommand's ``func`` replaced by one that records the
        namespace it is called with and returns 0."""
        cli.build_parser()
        seen = []
        originals = {name: sub.get_default("func") for name, sub in cli.COMMANDS.items()}
        for sub in cli.COMMANDS.values():
            sub.set_defaults(func=lambda args: seen.append(args) or 0)
        yield seen
        for name, func in originals.items():
            cli.COMMANDS[name].set_defaults(func=func)

    @staticmethod
    def outcome(call, capsys):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, capsys.readouterr()

    @pytest.mark.parametrize("name", sorted(ARGVS))
    def test_same_as_full_parser(self, name, recorded, capsys):
        argv = self.ARGVS[name]
        full, full_io = self.outcome(lambda: cli.build_parser().parse_args(argv), capsys)
        result, io = self.outcome(lambda: main(argv), capsys)
        assert io == full_io
        if isinstance(full, tuple):
            assert result == full and not recorded
        else:
            assert result == 0 and recorded == [full]
            assert full.command == argv[0]


class TestTrivialGroup:
    """The order-1 group is a p-group for every prime: every power and
    pair identity holds on it."""

    @pytest.fixture()
    def trivial_file(self, tmp_path):
        path = tmp_path / "trivial.json"
        assert main(["construct", "diagonal_abelian", "--m", "3",
                     "--vector", "0,0", "-o", str(path)]) == 0
        return path

    @pytest.mark.parametrize("prop", ["regular", "v-regular", "p-abelian",
                                      "engel", "wp2", "p1", "p2"])
    def test_check_holds(self, prop, trivial_file, capsys):
        assert main(["check", prop, str(trivial_file),
                     "--format", "structured"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["holds"] is True and report["caps"] == []

    def test_engel_default_depth_one(self, trivial_file, monkeypatch):
        depths = []

        def recording(g, k):
            depths.append(k)
            return is_engel(g, k)

        monkeypatch.setattr(cli, "is_engel", recording)
        assert main(["check", "engel", str(trivial_file)]) == 0
        assert depths == [1]

    def test_analyze(self, trivial_file, capsys):
        assert main(["analyze", str(trivial_file), "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["order"], data["exponent"], data["class"]) == (1, 1, 0)
        assert data["power_structure"] == []


class TestMalformedInput:
    """Input errors exit 2 with a one-line message, never a traceback."""

    def assert_input_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def assert_check_input_error(self, path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self.assert_input_error(
            ["check", "s", str(path), "--format", "structured",
             "-o", str(out)], capsys) == ""
        error = json.loads(out.read_text())["error"]
        assert error.startswith("malformed group recipe") and "\n" not in error

    @pytest.mark.parametrize("command", [
        ["check", "s"], ["check", "regular"], ["spectrum"], ["analyze"],
        ["construct", "direct_product", "-o", "{tmp}/out.json", "--factor"]],
        ids=["check-s", "check-regular", "spectrum", "analyze", "construct"])
    def test_deeply_nested_json(self, command, tmp_path, capsys):
        # too deep for the JSON parser's recursion: an input error, not a
        # RecursionError traceback with exit 1 ("fails with a witness")
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        argv = [arg.format(tmp=tmp_path) for arg in command] + [str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "nested too deeply" in out + err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", [
        ["check", "s"], ["spectrum"], ["analyze"],
        ["construct", "direct_product", "-o", "{tmp}/out.json", "--factor"]],
        ids=["check-s", "spectrum", "analyze", "construct"])
    def test_deeply_nested_recipe(self, command, tmp_path, capsys):
        # JSON that parses, but a recipe too deep to build: an input error
        recipe = {"family": "cyclic", "params": {"m": 2}}
        for _ in range(280):
            recipe = {"family": "direct_product",
                      "params": {"factors": [recipe, {"family": "cyclic",
                                                      "params": {"m": 2}}]}}
        text = json.dumps({**recipe, "carrier": "monomial", "generators": []})
        json.loads(text)
        path = tmp_path / "nested.json"
        path.write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in command] + [str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "nested too deeply to build" in out + err
        assert not (tmp_path / "out.json").exists()

    def test_matrix_file_without_n(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"perm": [0], "entries": [{"num": 0, "den": 1}]}))
        err = self.assert_input_error(["spectrum", str(path)], capsys)
        assert err.startswith("error: malformed matrix") and err.count("\n") == 1

    @pytest.mark.parametrize("top_level", [5, True, None, "perm"])
    def test_spectrum_file_not_an_object(self, top_level, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(top_level))
        err = self.assert_input_error(["spectrum", str(path)], capsys)
        assert err == f"error: {path} is neither a matrix nor a group file\n"

    def test_group_file_without_family(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"params": {}, "generators": []}))
        self.assert_check_input_error(path, tmp_path, capsys)

    def test_group_file_top_level_list(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"family": "heisenberg"}]))
        self.assert_check_input_error(path, tmp_path, capsys)

    def test_construct_basic_without_c(self, tmp_path, capsys):
        err = self.assert_input_error(["construct", "basic", "--p", "3",
                                       "--e", "1", "-o", str(tmp_path / "b.json")],
                                      capsys)
        assert err == "error: construct basic needs --c\n"


SRC = Path(submult.__file__).resolve().parent.parent


def run_python(script: str, *args: str, block_numpy: bool = False
               ) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``submult``; ``block_numpy`` makes every ``import numpy`` raise, as if
    numpy were not installed."""
    if block_numpy:
        script = "import sys\nsys.modules['numpy'] = None\n" + script
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


class TestWithoutNumpy:
    """Only verify's T1 oracle reads numpy, and it imports numpy when it
    runs: the other commands neither load it nor need it installed."""

    MAIN = "import sys\nfrom submult.cli import main\nsys.exit(main(sys.argv[1:]))\n"

    @pytest.fixture()
    def q8_file(self, tmp_path):
        path = tmp_path / "q8.json"
        assert main(["construct", "quaternion8", "-o", str(path)]) == 0
        return path

    def test_check_path_loads_no_numpy(self, q8_file):
        done = run_python(
            "import sys\nimport submult.cli\n"
            "code = submult.cli.main(['check', 's', sys.argv[1]])\n"
            "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n", str(q8_file))
        assert done.returncode == 1, done.stderr
        assert done.stderr == "numpy loaded: False\n"

    @pytest.mark.parametrize("argv, code", [
        (["check", "s", "{q8}"], 1),
        (["check", "p-abelian", "{h3}"], 0),
        (["verify", "T4"], 0),
    ])
    def test_runs_without_numpy(self, argv, code, q8_file, h3_file):
        argv = [a.format(q8=q8_file, h3=h3_file) for a in argv]
        done = run_python(self.MAIN, *argv, block_numpy=True)
        assert done.returncode == code, done.stderr
        assert done.stderr == ""

    @pytest.mark.parametrize("suites", [["T1"], [], ["all"]])
    def test_verify_t1_names_the_oracle_extra(self, suites):
        done = run_python(self.MAIN, "verify", *suites, block_numpy=True)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert "pip install 'submult[oracle]'" in done.stderr


class TestImportCost:
    """Importing the command line loads only what a check needs."""

    def test_cli_import_loads_no_fractions(self):
        # fractions pulls in decimal; T1 rounds phases on integers instead
        done = run_python(
            "import sys\nimport submult.cli\n"
            "print('fractions loaded:', 'fractions' in sys.modules)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "fractions loaded: False\n"

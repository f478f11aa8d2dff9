"""CLI surface: subcommands, exit codes, and byte-identical output."""

import json

import pytest

from strata_kit.cli import main

TOWER = {"base_q": 3, "levels": [{"f": 1, "e": 2, "twist": [1]}]}
ELT = {"field": 1, "digits": [[-4, [1]], [-1, [1]]], "prec": None}
STRATUM = {"tower": TOWER, "beta": ELT,
           "order": {"m": 2, "d": 1, "e_A": 2, "b_maximal": True}, "r": 0}


def run(capsys, monkeypatch, argv, stdin_obj=None):
    import io, sys
    if stdin_obj is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_obj)))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schema_flag(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["--schema"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "strata-kit/v1"


def test_expand(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["expand"],
                       {"tower": TOWER, "element": ELT})
    assert code == 0
    doc = json.loads(out)
    assert doc["val"] == -4 and doc["ord"] == "-2/1"


def test_sr_and_determinism(capsys, monkeypatch):
    doc_in = {"tower": TOWER,
              "element": {"field": 1, "digits": [[-3, [1]], [-1, [1]]],
                          "prec": None}}
    code, out1, _ = run(capsys, monkeypatch, ["sr"], doc_in)
    assert code == 0
    code, out2, _ = run(capsys, monkeypatch, ["sr"], doc_in)
    assert out1 == out2                       # byte-identical
    doc = json.loads(out1)
    assert doc["sr"]["digits"] == [[-3, [1]]]
    assert doc["ord_gap"] == "-1/2"


def test_minimal_and_factorize(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["minimal"],
                       {"tower": TOWER,
                        "element": {"field": 1, "digits": [[-1, [1]]],
                                    "prec": None}})
    assert code == 0 and json.loads(out)["minimal"] is True
    code, out, _ = run(capsys, monkeypatch, ["factorize"],
                       {"tower": TOWER, "element": ELT})
    doc = json.loads(out)
    assert code == 0 and doc["certified"] and doc["jumps"] == ["-1/2", "-2/1"]


def test_embeddings(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["embeddings"], {"tower": TOWER})
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 2


def test_generic(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["generic", "--small", "0"],
                       {"tower": TOWER,
                        "element": {"field": 1, "digits": [[-1, [1]]],
                                    "prec": None}})
    doc = json.loads(out)
    assert code == 0 and doc["generic"] and doc["equivalence_holds"]


def test_generic_takes_an_element_below_the_top_level(capsys, monkeypatch):
    # the element lives in level 1 of GF(3) -> f=2 -> e=2; generic rewrites
    # it in the top field, as minimal and factorize do
    doc_in = {"tower": {"base_q": 3, "levels": [{"f": 2, "e": 1, "twist": [1]},
                                                 {"f": 1, "e": 2, "twist": [1]}]},
              "element": {"field": 1, "digits": [[-1, [0, 1]]], "prec": None}}
    code, out, _ = run(capsys, monkeypatch, ["generic", "--big", "1"], doc_in)
    assert code == 0 and json.loads(out)["generic"] is True
    # against the top level, 64 digits do not separate the embeddings
    code, out, err = run(capsys, monkeypatch, ["generic"], doc_in)
    assert code == 3 and out == "" and err.startswith("precision exhausted")


def test_stratum_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["stratum2yu"], STRATUM)
    assert code == 0
    yu = json.loads(out)
    assert yu["depths"] == ["1/2", "2/1"]
    code, out, _ = run(capsys, monkeypatch, ["yu2stratum"], yu)
    assert code == 0
    st = json.loads(out)
    assert st["n"] == 4 and st["kind"] == "simple"
    code, out, _ = run(capsys, monkeypatch, ["groups"], STRATUM)
    doc = json.loads(out)
    assert code == 0
    assert all(pair["equal"] for pair in doc["pairs"].values())
    code, out, _ = run(capsys, monkeypatch, ["indices"], STRATUM)
    doc = json.loads(out)
    assert code == 0 and doc["factchar"][1]["t_i"] == 2


def test_fuzz_deterministic(capsys, monkeypatch):
    code, out1, _ = run(capsys, monkeypatch, ["fuzz", "--seed", "3",
                                              "--count", "4"])
    assert code == 0
    code, out2, _ = run(capsys, monkeypatch, ["fuzz", "--seed", "3",
                                              "--count", "4"])
    assert out1 == out2


@pytest.mark.parametrize("suite", ["sr", "minimal", "factorize", "filtration",
                                   "presentations", "roundtrip", "oracle"])
def test_verify_suite(capsys, monkeypatch, suite):
    code, out, _ = run(capsys, monkeypatch,
                       ["verify", "--suite", suite, "--seed", "1",
                        "--count", "10"])
    doc = json.loads(out)
    assert code == 0 and doc["failure_count"] == 0


def test_exit_code_schema_error(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["minimal"], {"bogus": True})
    assert code == 1 and "schema error" in err


def test_exit_code_domain_error(capsys, monkeypatch):
    bad = dict(STRATUM)
    bad["beta"] = {"field": 1, "digits": [[2, [1]]], "prec": None}
    code, _, err = run(capsys, monkeypatch, ["stratum2yu"], bad)
    assert code == 2 and "domain error" in err


def test_prec_env(capsys, monkeypatch):
    monkeypatch.setenv("STRATA_KIT_PREC", "32")
    doc_in = {"tower": TOWER,
              "element": {"field": 1, "digits": [[-1, [1]]]}}   # no prec
    code, out, _ = run(capsys, monkeypatch, ["expand"], doc_in)
    assert code == 0
    assert json.loads(out)["element"]["prec"] == 32


@pytest.mark.parametrize("doc", [
    {"tower": {"base_q": 3, "levels": [{"f": "x", "e": 2}]}, "element": ELT},
    {"tower": TOWER, "element": {"field": 1, "digits": [[-1, ["a"]]], "prec": None}},
    {"tower": TOWER, "element": {"field": True, "digits": [[-1, [1]]], "prec": None}},
    *({"tower": TOWER, "element": {"field": 1, "digits": [[-1, [1]]], "prec": prec}}
      for prec in (float("nan"), float("-inf"), float("inf"), 2.5)),
])
def test_malformed_values_are_schema_errors(capsys, monkeypatch, doc):
    code, out, err = run(capsys, monkeypatch, ["expand"], doc)
    assert code == 1 and out == ""
    assert err.startswith("schema error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, count", [
    *(({"tower": TOWER,
        "element": {"field": 1, "digits": [[-1, coords]], "prec": None}}, len(coords))
      for coords in ([0, 1], [1, 5, 7])),
    ({"tower": {"base_q": 3, "levels": [{"f": 1, "e": 2, "twist": [1, 2]}]},
      "element": ELT}, 2),
])
def test_residue_coordinates_longer_than_f_are_schema_errors(capsys, monkeypatch, doc,
                                                            count):
    code, out, err = run(capsys, monkeypatch, ["expand"], doc)
    assert code == 1 and out == ""
    assert err == f"schema error: {count} residue coordinates exceed f = 1\n"


def test_short_residue_coordinates_are_padded(capsys, monkeypatch):
    tower = {"base_q": 3, "levels": [{"f": 2, "e": 1, "twist": [1]}]}
    code, out, _ = run(capsys, monkeypatch, ["expand"],
                       {"tower": tower,
                        "element": {"field": 1, "digits": [[-1, [2]]], "prec": None}})
    assert code == 0
    assert json.loads(out)["element"]["digits"] == [[-1, [2, 0]]]


def test_integral_float_prec_reads_as_int(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["expand"],
                       {"tower": TOWER,
                        "element": {"field": 1, "digits": [[-1, [1]]], "prec": 3.0}})
    assert code == 0 and json.loads(out)["element"]["prec"] == 3


def test_huge_base_q_is_domain_error(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["expand"],
                       {"tower": {"base_q": 2147483647},
                        "element": {"field": 0, "digits": [[0, [1]]]}})
    assert code == 2 and "size cap" in err


@pytest.mark.parametrize("levels", [["--small", "-1"],
                                    ["--small", "-2", "--big", "-1"],
                                    ["--small", "5"]])
def test_generic_level_index_out_of_range(capsys, monkeypatch, levels):
    code, out, err = run(capsys, monkeypatch, ["generic", *levels],
                         {"tower": TOWER,
                          "element": {"field": 1, "digits": [[-1, [1]]],
                                      "prec": None}})
    assert code == 1 and out == ""
    assert err == "schema error: level index out of range\n"


def test_minimal_dump_returns_witnesses(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["minimal", "--dump"],
                       {"tower": TOWER,
                        "element": {"field": 1, "digits": [[-1, [1]]],
                                    "prec": None}})
    doc = json.loads(out)
    assert code == 0 and doc["witnesses"]["crit1"] == \
        "{'v': -1, 'e_rel': 2, 'f_rel': 1, 'residue_degree': 1}"


NOT_MINIMAL = [
    # (tower, element, the crit3_violations witness)
    ({"base_q": 5, "levels": [{"f": 2, "e": 3, "twist": [3, 1]}]},
     {"field": 1, "digits": [[-4, [1, 1]], [-1, [0, 1]]], "prec": None},
     "[{'pair': (0, 5), 'ord': '-1/3', 'expected': '-4/3'}, "
     "{'pair': (1, 3), 'ord': '-1/3', 'expected': '-4/3'}, "
     "{'pair': (2, 4), 'ord': '-1/3', 'expected': '-4/3'}]"),
    ({"base_q": 9, "levels": [{"f": 1, "e": 4, "twist": [1, 1]}]},
     {"field": 1, "digits": [[-6, [1, 2]], [-5, [2, 2]], [-1, [0, 1]]], "prec": None},
     "[{'pair': (0, 2), 'ord': '-5/4', 'expected': '-3/2'}, "
     "{'pair': (1, 3), 'ord': '-5/4', 'expected': '-3/2'}]"),
    ({"base_q": 5, "levels": [{"f": 3, "e": 1, "twist": [3, 4, 3]},
                              {"f": 1, "e": 2, "twist": [0, 1, 4]}]},
     {"field": 2, "digits": [[-6, [1, 1, 2]], [-2, [1, 3, 2]], [-1, [0, 3, 1]]],
      "prec": None},
     "[{'pair': (0, 1), 'ord': '-1/2', 'expected': '-3'}, "
     "{'pair': (2, 3), 'ord': '-1/2', 'expected': '-3'}, "
     "{'pair': (4, 5), 'ord': '-1/2', 'expected': '-3'}]"),
    ({"base_q": 3, "levels": [{"f": 3, "e": 2, "twist": [2, 2, 2]}]},
     {"field": 1, "digits": [[-4, [0, 1, 1]], [-3, [1, 1, 1]], [0, [0, 0, 1]]],
      "prec": 6},
     "[{'pair': (0, 1), 'ord': '-3/2', 'expected': '-2'}, "
     "{'pair': (2, 3), 'ord': '-3/2', 'expected': '-2'}, "
     "{'pair': (4, 5), 'ord': '-3/2', 'expected': '-2'}]"),
]


@pytest.mark.parametrize("tower, element, violations", NOT_MINIMAL)
def test_minimal_dump_prints_crit3_violations_as_ords(capsys, monkeypatch, tower,
                                                      element, violations):
    # criterion 3 compares valuations in the ambient field's units; the
    # witness still prints each as a reduced ord, ord(c) = v / e_abs
    code, out, _ = run(capsys, monkeypatch, ["minimal", "--dump"],
                       {"tower": tower, "element": element})
    doc = json.loads(out)
    assert code == 0 and doc["criteria"] == [False, False, False]
    assert doc["witnesses"]["crit3_violations"] == violations


@pytest.mark.parametrize("argv", [["factorize", "--dump"],
                                  ["fuzz", "--in", "x"],
                                  ["verify", "--suite", "sr", "--in", "x"]])
def test_unread_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fuzz", "--count", "-3"],
                                  ["fuzz", "--count", "10001"],
                                  ["verify", "--suite", "sr", "--count", "-1"],
                                  ["verify", "--suite", "oracle",
                                   "--count", str(10 ** 12)]])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --count: must be an integer from 0 to 10000" in \
        capsys.readouterr().err


def test_count_bounds_are_accepted(capsys):
    from strata_kit.cli import MAX_COUNT, build_parser
    assert main(["fuzz", "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["strata"] == []
    # the largest count parses; its run is not started here
    parser, _ = build_parser()
    assert parser.parse_args(["fuzz", "--count", str(MAX_COUNT)]).count == MAX_COUNT


HOSTILE_JSON = {"deep": b"[" * 100000, "not_utf8": b'{"a": "\xff"}',
                "truncated": b'{"tower": '}


@pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("via_file", [True, False])
def test_hostile_json_is_a_schema_error(capsys, monkeypatch, tmp_path, name,
                                        via_file):
    import io, sys
    raw = HOSTILE_JSON[name]
    if via_file:
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        argv = ["expand", "--in", str(path)]
    else:
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        argv = ["groups"]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("schema error: invalid JSON input:")
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


def datum(capsys, monkeypatch, stratum_doc):
    code, out, _ = run(capsys, monkeypatch, ["stratum2yu"], stratum_doc)
    assert code == 0
    return json.loads(out)


MINIMAL_STRATUM = dict(STRATUM, beta={"field": 1, "digits": [[-1, [1]]],
                                      "prec": None})
DEPTH_ZERO_STRATUM = {"tower": {"base_q": 5},
                      "beta": {"field": 0, "digits": [[0, [2]]], "prec": None}}


@pytest.mark.parametrize("stratum_doc,edits", [
    (MINIMAL_STRATUM, {"depths": ["1/7", "1/7"], "depth_zero": True}),
    (DEPTH_ZERO_STRATUM, {"depths": ["1/3"]}),
])
def test_depth_zero_datum_depths_are_checked(capsys, monkeypatch, stratum_doc,
                                             edits):
    yu = datum(capsys, monkeypatch, stratum_doc)
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], {**yu, **edits})
    assert code == 2 and out == ""
    assert err.startswith("domain error [depth_mismatch]:")


@pytest.mark.parametrize("edits", [
    {"chunks": 7},
    {"depths": 5},
    {"depths": [1, 2]},
    {"tower_degrees": 5},
    {"tower_degrees": ["a", 1]},
    {"trivial_top": "no"},
    {"depth_zero": 1},
])
def test_malformed_datum_is_schema_error(capsys, monkeypatch, edits):
    yu = datum(capsys, monkeypatch, STRATUM)
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], {**yu, **edits})
    assert code == 1 and out == ""
    assert err.startswith("schema error:") and "Traceback" not in err


def test_negative_datum_length_is_domain_error(capsys, monkeypatch):
    yu = datum(capsys, monkeypatch, STRATUM)
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"],
                         {**yu, "d": -1, "depths": [], "tower_degrees": [],
                          "chunks": []})
    assert code == 2 and out == ""
    assert err.startswith("domain error [negative_d]:")


@pytest.mark.parametrize("cmd", ["groups", "indices", "stratum2yu"])
def test_b_maximal_must_be_boolean(capsys, monkeypatch, cmd):
    order = dict(STRATUM["order"], b_maximal="no")
    code, out, err = run(capsys, monkeypatch, [cmd], dict(STRATUM, order=order))
    assert code == 1 and out == ""
    assert err == "schema error: b_maximal must be true or false, not 'no'\n"
    del order["b_maximal"]          # a missing key keeps its default, true
    code, _, _ = run(capsys, monkeypatch, [cmd], dict(STRATUM, order=order))
    assert code == 0


@pytest.mark.parametrize("cmd", ["groups", "indices", "stratum2yu"])
def test_negative_r_is_domain_error(capsys, monkeypatch, cmd):
    code, out, err = run(capsys, monkeypatch, [cmd], dict(STRATUM, r=-1))
    assert code == 2 and out == ""
    assert err == "domain error [negative_r]: stratum requires r >= 0, not -1\n"


@pytest.mark.parametrize("edits,clause", [
    ({"tower_degrees": [7, 1]}, "tower_degrees_mismatch"),
    ({"N": 99}, "degree_not_dividing_N"),
    ({"depth_zero": True}, "depth_zero_mismatch"),
])
def test_datum_keys_are_checked_against_chunks(capsys, monkeypatch, edits,
                                               clause):
    yu = datum(capsys, monkeypatch, STRATUM)
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], {**yu, **edits})
    assert code == 2 and out == ""
    assert err.startswith(f"domain error [{clause}]:")


#: an order with m = 2 [E:F], so that the centralizer of E is M_2(E)
WIDE_STRATUM = dict(MINIMAL_STRATUM, order=dict(STRATUM["order"], m=4))


def test_datum_of_a_wider_order_round_trips(capsys, monkeypatch):
    """yu2stratum rebuilds the order of M_N(F) from the datum's N, so the
    datum that stratum2yu prints for m > [E:F] gives back its stratum."""
    yu = datum(capsys, monkeypatch, WIDE_STRATUM)
    assert yu["N"] == 4
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], yu)
    assert (code, err) == (0, "")
    st = json.loads(out)
    assert (st["order"], st["n"], st["r"], st["kind"]) == \
        (WIDE_STRATUM["order"], 1, 0, "simple")
    assert st["tower"] == TOWER
    assert st["beta"]["digits"] == WIDE_STRATUM["beta"]["digits"]
    assert datum(capsys, monkeypatch, st) == yu


def test_fractional_numbers_are_schema_errors(capsys, monkeypatch):
    yu = datum(capsys, monkeypatch, STRATUM)
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], {**yu, "d": 1.5})
    assert code == 1 and out == ""
    assert err == "schema error: d must be an integer, not 1.5\n"
    code, out, err = run(capsys, monkeypatch, ["groups"], dict(STRATUM, r=0.7))
    assert code == 1 and out == ""
    assert err == "schema error: r must be an integer, not 0.7\n"
    # integral numbers keep their output
    for cmd, doc, edited in (("yu2stratum", yu, {**yu, "d": 1.0}),
                             ("groups", STRATUM, dict(STRATUM, r=0.0))):
        assert run(capsys, monkeypatch, [cmd], edited) == \
            run(capsys, monkeypatch, [cmd], doc)


@pytest.mark.parametrize("edits,clause", [
    ({"n": 1000000000}, "n_mismatch"),
    ({"kind": "pure"}, "kind_mismatch"),
    ({"order": dict(STRATUM["order"], m=8, e_A=400000000)},
     "period_not_dividing_N"),
])
def test_stated_stratum_data_is_checked(capsys, monkeypatch, edits, clause):
    code, out, err = run(capsys, monkeypatch, ["groups"], {**STRATUM, **edits})
    assert code == 2 and out == ""
    assert err.startswith(f"domain error [{clause}]:")


def test_stated_stratum_data_that_agrees_is_accepted(capsys, monkeypatch):
    stated = dict(STRATUM, n=4, kind="simple")
    assert run(capsys, monkeypatch, ["groups"], stated) == \
        run(capsys, monkeypatch, ["groups"], STRATUM)
    code, out, err = run(capsys, monkeypatch, ["groups"], dict(STRATUM, kind=3))
    assert code == 1 and out == ""
    assert err == "schema error: kind must be a string, not 3\n"


UNRAMIFIED_STRATUM = {"tower": {"base_q": 3, "levels": [{"f": 2, "e": 1, "twist": [1]}]},
                      "beta": {"field": 1, "digits": [[-1, [0, 1]]], "prec": None},
                      "order": {"m": 2, "d": 1, "e_A": 2}}


def test_order_must_be_pure(capsys, monkeypatch):
    # e_A / e(E/F) = 2 does not divide N / [E:F] = 1
    code, out, err = run(capsys, monkeypatch, ["groups"], UNRAMIFIED_STRATUM)
    assert code == 2 and out == ""
    assert err.startswith("domain error [order_not_pure]:")
    pure = dict(UNRAMIFIED_STRATUM, order=dict(UNRAMIFIED_STRATUM["order"], e_A=1))
    code, out, _ = run(capsys, monkeypatch, ["groups"], pure)
    assert code == 0 and out


@pytest.mark.parametrize("count,code", [(256, 0), (257, 2)])
def test_element_digit_count_is_capped(capsys, monkeypatch, count, code):
    element = {"field": 1, "digits": [[v, [1]] for v in range(count)], "prec": None}
    got, out, err = run(capsys, monkeypatch, ["expand"],
                        {"tower": TOWER, "element": element})
    assert got == code
    if code:
        assert out == "" and err.startswith("domain error [too_many_digits]:")


@pytest.mark.parametrize("second", [[2], [0]])
def test_repeated_valuation_is_refused(capsys, monkeypatch, second):
    # the last pair used to win silently: [2] printed a digit 2, [0] a zero
    twice = {"field": 1, "digits": [[-1, [1]], [-1, second]], "prec": None}
    want = "schema error: digits name valuation -1 twice\n"
    code, out, err = run(capsys, monkeypatch, ["expand"],
                         {"tower": TOWER, "element": twice})
    assert (code, out, err) == (1, "", want)
    code, out, err = run(capsys, monkeypatch, ["groups"], dict(STRATUM, beta=twice))
    assert (code, out, err) == (1, "", want)
    yu = datum(capsys, monkeypatch, STRATUM)
    chunks = [dict(c, digits=c["digits"] + c["digits"][:1]) for c in yu["chunks"]]
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], {**yu, "chunks": chunks})
    assert code == 1 and out == ""
    assert err.startswith("schema error: digits name valuation ")


def test_datum_digit_count_is_capped_over_all_chunks(capsys, monkeypatch):
    yu = datum(capsys, monkeypatch, STRATUM)
    chunks = [dict(c, digits=c["digits"] + [[v, [1]] for v in range(100, 229)])
              for c in yu["chunks"]]
    assert all(len(c["digits"]) <= 256 for c in chunks)
    assert sum(len(c["digits"]) for c in chunks) > 256
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], {**yu, "chunks": chunks})
    assert code == 2 and out == ""
    assert err.startswith("domain error [too_many_digits]:")


@pytest.mark.parametrize("value", ["abc", "0", "-3", "100000000"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_bad_precision_setting_is_schema_error(capsys, monkeypatch, source, value):
    argv = ["expand"]
    if source == "flag":
        argv = ["--prec", value] + argv
    else:
        monkeypatch.setenv("STRATA_KIT_PREC", value)
    code, out, err = run(capsys, monkeypatch, argv, {"tower": TOWER, "element": ELT})
    assert code == 1 and out == ""
    assert err == ("schema error: --prec / STRATA_KIT_PREC must be an integer "
                   f"from 1 to 4096, got {value!r}\n")


@pytest.mark.parametrize("value", ["1", "4096"])
def test_precision_setting_within_cap(capsys, monkeypatch, value):
    doc_in = {"tower": TOWER, "element": {"field": 1, "digits": [[-1, [1]]]}}
    code, out, _ = run(capsys, monkeypatch, ["--prec", value, "expand"], doc_in)
    assert code == 0
    assert json.loads(out)["element"]["prec"] == int(value)


@pytest.mark.parametrize("cmd", ["groups", "stratum2yu"])
def test_non_split_order_is_refused(capsys, monkeypatch, cmd):
    # M_2(D) with D of index 2: no d > 1 answer is checked by the oracle
    doc = dict(STRATUM, order=dict(STRATUM["order"], d=2))
    code, out, err = run(capsys, monkeypatch, [cmd], doc)
    assert code == 2 and out == ""
    assert err.startswith("domain error [non_split_order]:")


def test_trivial_final_step_needs_a_step_before_it(capsys, monkeypatch):
    doc = {"schema": "strata-kit/v1", "tower": {"base_q": 5, "levels": []},
           "tower_degrees": [1], "depths": ["0/1"],
           "chunks": [{"field": 0, "digits": [[0, [4]]], "prec": None}],
           "d": 0, "e_A": 1, "N": 1, "trivial_top": True, "depth_zero": True}
    code, out, err = run(capsys, monkeypatch, ["yu2stratum"], doc)
    assert code == 2 and out == ""
    assert err == ("domain error [trivial_top_depth]: a trivial final step "
                   "needs a step before it\n")


#: a valid datum for STRATUM's beta
DATUM = {"tower": TOWER, "tower_degrees": [2, 1], "depths": ["1/2", "2/1"],
         "chunks": [{"field": 1, "digits": [[-1, [1]]], "prec": None},
                    {"field": 1, "digits": [[-4, [1]]], "prec": None}],
         "d": 1, "e_A": 2, "N": 2}


def test_datum_is_valid(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["yu2stratum"], DATUM)
    assert code == 0 and json.loads(out)["n"] == 4


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("cmd,doc,code,prefix", [
    ("yu2stratum", dict(DATUM, depths=["1/2"]), 2, "domain error [datum_length]:"),
    ("yu2stratum", dict(DATUM, tower_degrees=[2, 2]), 2,
     "domain error [tower_not_at_base]:"),
    ("yu2stratum", dict(DATUM, trivial_top=True), 2,
     "domain error [trivial_top_depth]:"),
    ("expand", {"tower": {}, "element": ELT}, 1,
     "schema error: tower document needs base_q"),
    ("expand", {"tower": {"base_q": 3, "levels": 5}, "element": ELT}, 1,
     "schema error: tower levels must be a list"),
    ("expand", {"tower": {"base_q": 3, "levels": [{"f": 1}]}, "element": ELT}, 1,
     "schema error: tower level needs f and e"),
    ("expand", {"tower": {"base_q": 3, "levels": [{"f": 1, "e": 2, "twist": 1}]},
                "element": ELT}, 1,
     "schema error: residue coordinates must be a list"),
    ("expand", {"tower": TOWER, "element": {"field": 1}}, 1,
     "schema error: element document needs digits"),
    ("expand", {"tower": TOWER, "element": {"field": 1, "digits": 5}}, 1,
     "schema error: digits must be [valuation, coords] pairs"),
    ("groups", [], 1, "schema error: stratum document must be an object"),
    ("groups", dict(STRATUM, schema="v0"), 1, "schema error: unknown schema tag 'v0'"),
    ("groups", {"tower": TOWER}, 1, "schema error: stratum document needs tower and beta"),
    ("groups", dict(STRATUM, order=5), 1, "schema error: order must be an object"),
    ("yu2stratum", [], 1, "schema error: datum document must be an object"),
    ("yu2stratum", dict(DATUM, schema="v0"), 1, "schema error: unknown schema tag 'v0'"),
    *(("yu2stratum", without(DATUM, key), 1, f"schema error: datum document needs {key}")
      for key in ("tower", "depths", "chunks", "d", "e_A", "N")),
])
def test_refusals_write_one_line(capsys, monkeypatch, cmd, doc, code, prefix):
    got, out, err = run(capsys, monkeypatch, [cmd], doc)
    assert got == code and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")

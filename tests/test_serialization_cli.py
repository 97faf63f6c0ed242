"""Description files, round-trips, and the command-line interface."""

import argparse
import contextlib
import io
import json
import pickle
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptlab import acceptance_prob, distribution, querylab
from gptlab.afftm import acceptance_weight, norm_trace
from gptlab.cli import build_parser, main
from gptlab.errors import GptLabError, MachineValidationError, ParseError
from gptlab.serialization import (
    circuit_to_json,
    family_to_json,
    machine_to_json,
    parse_circuit,
    parse_family,
    parse_machine,
    parse_number,
    parse_theory,
    theory_to_json,
)

from conftest import random_machine, time_limit


def data_path(name: str) -> str:
    return str(resources.files("gptlab") / "data" / name)


def test_parse_bundled_rebit_theory():
    theory = parse_theory(data_path("theory_rebit.json"))
    assert theory.name == "real-quantum-2"
    assert theory.system().dim == 3
    assert theory.composite_rule.composite([theory.system()] * 2).dim == 10


def test_theory_round_trip():
    for name in ("theory_rebit.json", "theory_classical2.json",
                 "theory_qubit.json", "theory_gbit.json"):
        theory = parse_theory(data_path(name))
        again = parse_theory(theory_to_json(theory))
        assert again.name == theory.name
        assert sorted(again.gates) == sorted(theory.gates)


def test_parse_theory_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_theory('{"builtin": "no-such-theory"}')
    with pytest.raises(ParseError):
        parse_theory('{"params": {}}')
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ParseError):
        parse_theory(str(empty))
    with pytest.raises(ParseError):
        parse_theory('{"builtin": "classical", "params": {"wrong": 1}}')


def test_parse_bundled_circuits():
    coin, acceptor = parse_circuit(data_path("circuit_coin.json"))
    assert acceptor is not None
    assert acceptance_prob(coin, acceptor) == pytest.approx(0.5)

    bell, acceptor = parse_circuit(data_path("circuit_rebit_bell.json"))
    assert acceptor is None
    dist = {str(z): p for z, p in distribution(bell).items()}
    assert dist["prep=0,t=0,m=first"] == pytest.approx(1.0, abs=1e-12)
    # its rebit rule pickles to its theory and passthroughs alone, and evaluates alike
    again = pickle.loads(pickle.dumps(bell))
    assert set(vars(again.theory.composite_rule)) == {"theory", "_passthroughs"}
    assert [(str(z), p.hex()) for z, p in distribution(again).items()] == \
        [(z, p.hex()) for z, p in dist.items()]


def test_circuit_round_trip_identical_results():
    circuit, acceptor = parse_circuit(data_path("circuit_coin.json"))
    doc = circuit_to_json(circuit, acceptor)
    again, acceptor2 = parse_circuit(json.dumps(doc))
    d1 = {str(z): p for z, p in distribution(circuit).items()}
    d2 = {str(z): p for z, p in distribution(again).items()}
    assert d1 == d2  # bit-identical probabilities
    assert acceptance_prob(circuit, acceptor) == acceptance_prob(again, acceptor2)

    bell, _ = parse_circuit(data_path("circuit_rebit_bell.json"))
    again, _ = parse_circuit(json.dumps(circuit_to_json(bell)))
    d1 = {str(z): p for z, p in distribution(bell).items()}
    d2 = {str(z): p for z, p in distribution(again).items()}
    assert d1 == d2


def test_parse_circuit_errors():
    with pytest.raises(ParseError):
        parse_circuit(json.dumps({
            "theory": {"builtin": "classical", "params": {"d": 2}},
            "instances": [{"id": "a", "gate": "no-such-gate"}],
        }))
    with pytest.raises(ParseError):  # open port
        parse_circuit(json.dumps({
            "theory": {"builtin": "classical", "params": {"d": 2}},
            "instances": [{"id": "a", "gate": "prep_0"}],
            "wires": [],
        }))


def test_parse_bundled_machines():
    branch = parse_machine(data_path("machine_branch.json"))
    assert acceptance_weight(branch, "", 4) == 1.0
    parity = parse_machine(data_path("machine_parity.json"))
    assert acceptance_weight(parity, "101", 10) == 0.0
    assert acceptance_weight(parity, "100", 10) == 1.0
    coin = parse_machine(data_path("machine_coin.json"))
    assert acceptance_weight(coin, "", 3) == 0.5


def test_machine_weight_sum_error_names_the_key():
    doc = {
        "states": ["q0", "acc", "rej"], "initial": "q0", "accept": "acc",
        "reject": "rej", "blank": "_", "alphabet": ["_"],
        "transitions": [{"state": "q0", "read": "_", "branches": [
            {"next": "acc", "write": "_", "move": "S", "weight": "1"},
            {"next": "rej", "write": "_", "move": "S", "weight": "1/2"},
        ]}],
    }
    with pytest.raises(MachineValidationError) as err:
        parse_machine(json.dumps(doc))
    assert "q0" in str(err.value) and "3/2" in str(err.value)


def test_machine_round_trip():
    machine = parse_machine(data_path("machine_parity.json"))
    again = parse_machine(json.dumps(machine_to_json(machine)))
    for x in ("", "0", "110", "10101"):
        assert acceptance_weight(machine, x, 10) == acceptance_weight(again, x, 10)


def _run_bits(fn):
    """A run's value as exact bits, or the error it raised."""
    try:
        value = fn()
    except GptLabError as exc:
        return type(exc), str(exc)
    if hasattr(value, "norms"):
        return [float.hex(n) for n in value.norms], value.flagged_steps
    return float(value).hex()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.text(alphabet="01_", max_size=3))
def test_machine_json_round_trip_keeps_every_bit(seed, x):
    machine = random_machine(np.random.default_rng(seed))
    again = parse_machine(json.dumps(machine_to_json(machine)))
    assert again.transitions == machine.transitions
    assert [float.hex(b.weight) for bs in again.transitions.values() for b in bs] == \
        [float.hex(b.weight) for bs in machine.transitions.values() for b in bs]
    for fn in (acceptance_weight, norm_trace):
        assert _run_bits(lambda: fn(again, x, 6)) == _run_bits(lambda: fn(machine, x, 6))


def test_rational_and_decimal_weights_accepted():
    doc = {
        "states": ["q0", "acc", "rej"], "initial": "q0", "accept": "acc",
        "reject": "rej", "blank": "_", "alphabet": ["_"],
        "transitions": [{"state": "q0", "read": "_", "branches": [
            {"next": "acc", "write": "_", "move": "S", "weight": "0.25"},
            {"next": "rej", "write": "_", "move": "S", "weight": "3/4"},
        ]}],
    }
    machine = parse_machine(json.dumps(doc))
    assert acceptance_weight(machine, "", 2) == 0.25


def _exact_reading(text: str) -> float | None:
    """The float nearest the exact rational a string spells, or None."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


# Exponents stay at three digits so the exact reference finishes quickly.
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.from_regex(r"\A\s?[-+]?\d{0,20}\.?\d{0,20}(?:[eE][-+]?\d{1,3})?\s?\Z"),
    st.from_regex(r"\A[-+]?0*\.0*(?:[eE][-+]?\d{1,3})?\Z"),
    st.from_regex(r"\A[-+]?\d{1,20}/\d{1,20}\Z"),
    st.text(alphabet="0123456789.eE+-_/ infatyx\x1c", max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(NUMBER_TEXT)
def test_parse_number_reads_a_string_as_its_exact_value(text):
    want = _exact_reading(text)
    if want is None:
        with pytest.raises(ParseError):
            parse_number(text, "entry")
    else:  # float.hex tells -0.0 from +0.0
        assert parse_number(text, "entry").hex() == want.hex()


def test_parse_number_edge_strings():
    for text, want in (("-0.0", 0.0), ("-0", 0.0), ("-1e-400", -0.0), ("1e-400", 0.0),
                       ("1/3", 1 / 3), ("-5e-324", -5e-324), (" 2.5\n", 2.5)):
        assert parse_number(text, "entry").hex() == want.hex()
    for text in ("inf", "-Infinity", "nan", "0x10", "1e400", "-1e400", "1/0", "", "1.5.2"):
        with pytest.raises(ParseError):
            parse_number(text, "entry")
    for value in (True, None, [1.0]):
        with pytest.raises(ParseError):
            parse_number(value, "entry")


def _two_branch_machine(weights) -> dict:
    return {
        "states": ["q0", "acc", "rej"], "initial": "q0", "accept": "acc",
        "reject": "rej", "blank": "_", "alphabet": ["_"],
        "transitions": [{"state": "q0", "read": "_", "branches": [
            {"next": nxt, "write": "_", "move": "S", "weight": w}
            for nxt, w in zip(("acc", "rej"), weights)]}],
    }


def test_huge_decimal_exponents_read_at_once(tmp_path, capsys):
    # Fraction would build 10**999999999 for these; they read at once, as the
    # float nearest their exact value
    for text, want in (("1_0e-999999999", 0.0), ("-1_0e-999999999", -0.0),
                       ("0_0e999999999", 0.0), ("\u0661e-999999999", 0.0),
                       ("1_0e-400", 0.0), ("-2_5e-500", -0.0), (" 1_5E+0_3 ", 15000.0)):
        assert parse_number(text, "entry").hex() == want.hex()
    for text in ("1_0e999999999", "-1_0e+999999999", "9_9e400"):
        with pytest.raises(ParseError, match="not a finite float"):
            parse_number(text, "entry")
    # the same readings as Fraction's, where it is quick
    assert [_exact_reading(t) for t in ("1_0e-400", "-2_5e-500", "9_9e400")] == [0.0, -0.0, None]
    # a weight beyond the float range reads as 0.0 and is checked as 0.0
    machine = parse_machine(json.dumps(_two_branch_machine(["1", "1e-999999999"])))
    assert [b.weight for b in machine.transitions[("q0", "_")]] == [1.0, 0.0]
    for weights, exit_code in ((["1", "1e-999999999"], 0), (["1", "1_0e-999999999"], 0),
                               (["1", "1_0e999999999"], 2), (["1", "1e999999999"], 2)):
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(_two_branch_machine(weights)))
        code, _, err = run_cli(capsys, "afftm", "run", "--machine", str(path),
                               "--input", "", "--max-steps", "2")
        assert code == exit_code, weights
        assert "Traceback" not in err


def test_family_parse_and_round_trip():
    family = parse_family(data_path("family_qutrit.json"))
    assert family.n_slits == 3
    again = parse_family(json.dumps(family_to_json(family)))
    for key, mat in family.projectors.items():
        assert np.array_equal(mat, again.projectors[key])


def test_family_invariant_errors_at_parse():
    bad = {"n_slits": 1, "projectors": {"0": [[0.0]], "1": [[0.5]]}}
    with pytest.raises(ParseError):
        parse_family(json.dumps(bad))
    # a valid one-slit family, but with a boolean slit count
    with pytest.raises(ParseError, match="n_slits"):
        parse_family(json.dumps({"n_slits": True, "projectors": {"0": [[0.0]], "1": [[1.0]]}}))
    # an entry beyond the float range is an input error, not an OverflowError
    for entry in ("1e400", "1" + "0" * 400 + "/3"):
        with pytest.raises(ParseError, match="not a finite float"):
            parse_family(json.dumps({"n_slits": 1, "projectors": {"0": [["0"]], "1": [[entry]]}}))


def qutrit_doc() -> dict:
    return json.loads((resources.files("gptlab") / "data" / "family_qutrit.json").read_text())


def test_family_entries_read_as_parse_number_reads_each():
    doc = qutrit_doc()
    family = parse_family(json.dumps(doc))
    for mask, rows in doc["projectors"].items():
        subset = frozenset(i for i in range(3) if int(mask) >> i & 1)
        want = np.array([[parse_number(x, "") for x in row] for row in rows])
        assert family.projectors[subset].tobytes() == want.tobytes(), mask


@pytest.mark.parametrize("entry, match", [
    (True, "expected a number"), (False, "expected a number"), (None, "expected a number"),
    (10**400, "not a finite float"), ([], "expected a number"), ("1/0", "cannot read")])
def test_a_bad_family_entry_raises_where_it_stands(entry, match):
    # every other entry of the bundled family is a string; "0.0" and "1" are read
    # before the bad entry, which is not taken for either of them
    doc = qutrit_doc()
    last = list(doc["projectors"])[-1]
    doc["projectors"][last][4][4] = entry
    with pytest.raises(ParseError, match=match) as info:
        parse_family(json.dumps(doc))
    assert info.value.location == f"family.projectors[{last!r}]"


def test_the_first_bad_family_entry_in_document_order_raises():
    doc = qutrit_doc()
    masks = list(doc["projectors"])
    doc["projectors"][masks[2]][0][1] = "bad"
    doc["projectors"][masks[5]][0][0] = "bad"
    doc["projectors"][masks[1]][8][8] = True
    with pytest.raises(ParseError, match="expected a number") as info:
        parse_family(json.dumps(doc))
    assert info.value.location == f"family.projectors[{masks[1]!r}]"


def test_family_shapes_are_checked_before_any_entry_is_read():
    doc = qutrit_doc()
    masks = list(doc["projectors"])
    doc["projectors"][masks[0]][0][0] = "bad"
    doc["projectors"][masks[-1]][2] = doc["projectors"][masks[-1]][2][:-1]
    with pytest.raises(ParseError, match="list of rows") as info:
        parse_family(json.dumps(doc))
    assert info.value.location == f"family.projectors[{masks[-1]!r}]"


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_circuit_eval(capsys):
    code, out, _ = run_cli(capsys, "circuit", "eval", "--circuit", data_path("circuit_coin.json"))
    assert code == 0
    assert "u=0,r=0: 0.5" in out


def test_cli_table_acceptor_accepting_nothing_prints_a_float(capsys):
    rows = [{"z": {"u": "0", "r": r}, "a": 1} for r in "01"]
    circuit = coin_where("acceptor", value={"kind": "table", "table": rows})
    code, out, _ = run_cli(capsys, "--json", "circuit", "accept", "--circuit", circuit)
    assert code == 0
    p = json.loads(out)["acceptance_probability"]
    assert type(p) is float and p == 0.0


def test_cli_json_reports_are_deterministic(capsys):
    args = ("--json", "circuit", "eval", "--circuit", data_path("circuit_coin.json"))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["distribution"]["u=0,r=0"] == 0.5
    assert "timing" not in doc


def test_cli_seeded_determinism_across_runs(capsys):
    args = ("--json", "--seed", "11", "query", "parity", "--n", "6")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("GPTLAB_SEED", "99")
    _, out1, _ = run_cli(capsys, "--json", "query", "parity", "--n", "6")
    monkeypatch.setenv("GPTLAB_SEED", "100")
    _, out2, _ = run_cli(capsys, "--json", "query", "parity", "--n", "6")
    assert json.loads(out1)["table"] != json.loads(out2)["table"]


def test_cli_rejects_a_negative_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("GPTLAB_SEED", "-3")
    for argv in (["query", "grover", "--n", "4"], ["--json", "query", "parity", "--n", "4"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "input error: env: seed must be >= 0" in err and "Traceback" not in err


def test_cli_tomo_check(capsys):
    code, out, _ = run_cli(capsys, "--json", "tomo", "check",
                           "--theory", data_path("theory_rebit.json"),
                           "--systems", "2", "--locality", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["defect"] == 1 and doc["span_dim"] == 9


def test_cli_afftm_run_and_norms(capsys):
    code, out, _ = run_cli(capsys, "afftm", "run",
                           "--machine", data_path("machine_branch.json"),
                           "--input", "", "--max-steps", "5")
    assert code == 0 and "1.0" in out
    code, out, _ = run_cli(capsys, "--json", "afftm", "norms",
                           "--machine", data_path("machine_branch.json"),
                           "--input", "", "--max-steps", "5")
    assert code == 0
    assert json.loads(out)["flagged_steps"] == [1]


def test_cli_halting_violation_exit_code(capsys, tmp_path):
    doc = {
        "states": ["q0", "acc", "rej"], "initial": "q0", "accept": "acc",
        "reject": "rej", "blank": "_", "alphabet": ["_"],
        "transitions": [{"state": "q0", "read": "_", "branches": [
            {"next": "q0", "write": "_", "move": "R", "weight": 1}]}],
    }
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "afftm", "run", "--machine", str(path),
                           "--input", "", "--max-steps", "4")
    assert code == 1
    assert "halt" in err.lower() or "running" in err.lower()


def test_cli_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "circuit", "eval", "--circuit", "/no/such/file.json")
    assert code == 2
    assert "input error" in err

    code, _, err = run_cli(capsys, "circuit", "eval", "--cap", "-3",
                           "--circuit", data_path("circuit_coin.json"))
    assert code == 2 and "--cap" in err

    # an unknown option such as --rank-tol is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["tomo", "check", "--rank-tol", "2.0", "--theory", data_path("theory_rebit.json"),
              "--systems", "2", "--locality", "1"])
    assert exc.value.code == 2 and "rank-tol" in capsys.readouterr().err


def parity_with(**change) -> str:
    """The bundled parity machine, as JSON, with its first branch changed."""
    doc = json.loads((resources.files("gptlab") / "data" / "machine_parity.json").read_text())
    doc["transitions"][0]["branches"][0].update(change)
    return json.dumps(doc)


def bundled_where(name, *path, value) -> str:
    """A bundled description, as JSON, with the entry at `path` replaced."""
    doc = json.loads((resources.files("gptlab") / "data" / name).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


def parity_where(*path, value) -> str:
    return bundled_where("machine_parity.json", *path, value=value)


def coin_where(*path, value) -> str:
    return bundled_where("circuit_coin.json", *path, value=value)


def qutrit_where(*path, value) -> str:
    return bundled_where("family_qutrit.json", *path, value=value)


def coin_table(z, a, *more_z) -> str:
    """The bundled coin circuit with a table acceptor: row z -> a, then each of
    ``more_z`` -> 0, then the coin's other outcome -> 0."""
    rows = [{"z": z, "a": a}, *({"z": m, "a": 0} for m in more_z),
            {"z": {"u": "0", "r": "1"}, "a": 0}]
    return coin_where("acceptor", value={"kind": "table", "table": rows})


def one_slit_family(extra_key: str, empty: bool = True) -> str:
    """A valid one-slit family (the empty projector optional) plus ``extra_key``."""
    projectors = {"1": [[1.0]], extra_key: [[1.0]]}
    if empty:
        projectors["0"] = [[0.0]]
    return json.dumps({"n_slits": 1, "projectors": projectors})


@pytest.mark.parametrize("argv", [
    ["tomo", "check", "--theory", data_path("theory_rebit.json"), "--locality", "3",
     "--systems", "2"],
    ["tomo", "count", "--k", "0", "--systems", "2", "--locality", "1"],
    ["tomo", "count", "--k", "1", "--systems", "2", "--locality", "3"],
    ["query", "grover", "--marked", "9", "--n", "4"],
    ["query", "grover", "--marked", "-1", "--n", "4"],
    ["query", "grover", "--n", "0"],
    ["query", "grover", "--n", "4", "--marked", "1", "--iters", "-1"],
    ["query", "parity", "--table", "012"],
    ["query", "parity", "--table", ""],
    ["query", "parity", "--n", "0"],
    ["query", "bounds", "--problem", "search", "--n", "0", "--k", "2"],
    ["query", "bounds", "--problem", "parity", "--n", "4", "--k", "0"],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"), "--vector", "[1,0]",
     "--order", "2"],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"), "--vector", "[1,",
     "--order", "2"],
    ["afftm", "run", "--machine", data_path("machine_branch.json"), "--max-steps", "-1"],
    ["theory", "info", "--theory", '{"builtin": "quantum", "params": {"d": 1}}'],
    ["theory", "info", "--theory", '{"builtin": "classical", "params": {"d": 0}}'],
    ["theory", "info", "--theory", '{"builtin": "real-quantum", "params": {"d": 3}}'],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"),
     "--vector", json.dumps([1.0] + [0.0] * 8), "--order", "-2"],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"),
     "--vector", json.dumps([1.0] + [0.0] * 8), "--order", "0"],
    ["afftm", "run", "--machine", parity_with(write="Q"), "--input", "0", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_with(next="nowhere"), "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", data_path("machine_parity.json"), "--input", "012",
     "--max-steps", "5"],
    ["afftm", "check", "--machine", data_path("machine_parity.json"), "--inputs", "0,x",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_with(next=[1]), "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("states", 1, value=["odd"]), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("transitions", 0, "read", value=[0]),
     "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("transitions", 0, "state", value=["even"]),
     "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_with(write=[0]), "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_with(move=["R"]), "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("alphabet", 0, value=0), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("alphabet", value=5), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("initial", value=["even"]), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("accept", value=["acc"]), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("reject", value={"rej": 1}), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("blank", value=["_"]), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("transitions", value=5), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("transitions", 0, "branches", value=5),
     "--input", "", "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("transitions", 0, value=5), "--input", "",
     "--max-steps", "5"],
    ["afftm", "run", "--machine", parity_where("transitions", 0, "branches", value=[5]),
     "--input", "", "--max-steps", "5"],
    ["circuit", "eval", "--circuit", coin_where("instances", value=5)],
    ["circuit", "eval", "--circuit", coin_where("instances", value=[5])],
    ["circuit", "eval", "--circuit", coin_where("wires", value=5)],
    ["circuit", "eval", "--circuit", coin_where("wires", value=[5])],
    ["circuit", "eval", "--circuit", coin_where("theory", value=5)],
    ["circuit", "accept", "--circuit", coin_where("acceptor", value=5)],
    ["circuit", "eval", "--circuit", coin_where("instances", 0, "id", value=[1])],
    ["circuit", "eval", "--circuit", coin_where("instances", 0, "gate", value=[1])],
    ["interfere", "order", "--family", qutrit_where("projectors", value=5)],
    ["interfere", "order", "--family", qutrit_where("n_slits", value="x")],
    ["theory", "info", "--theory", '{"builtin": "quantum", "params": {"d": 100000}}'],
    ["theory", "info", "--theory", '{"builtin": "classical", "params": {"d": 100000}}'],
    ["query", "bounds", "--problem", "search", "--n", "9" * 400, "--k", "2"],
    ["query", "bounds", "--problem", "parity", "--n", "9" * 400, "--k", "2"],
    ["--json", "query", "parity", "--n", "4", "--seed", "-1"],
    ["query", "grover", "--n", "4", "--seed", "-1"],
    ["--json", "interfere", "decompose", "--family", data_path("family_qutrit.json"),
     "--vector", "[NaN,0,0,0,0,0,0,0,0]", "--order", "2"],
    ["--json", "interfere", "decompose", "--family", data_path("family_qutrit.json"),
     "--vector", "[Infinity,0,0,0,0,0,0,0,0]", "--order", "2"],
    ["query", "parity", "--n", "70000"],
    ["query", "parity", "--table", "01" * 35000],
    ["query", "grover", "--n", "10000000000"],
    ["query", "grover", "--n", str(querylab.MAX_ITEMS + 1), "--marked", "0"],
    ["query", "grover", "--n", "16", "--marked", "3", "--iters", "1000000000"],
    ["query", "grover", "--n", "16", "--marked", "3", "--iters", str(querylab.MAX_ITEMS + 1)],
    # counts past tomography.MAX_COUNT_DIGITS digits, rejected before math.comb runs
    ["tomo", "count", "--k", "1", "--systems", "20000", "--locality", "10000"],
    ["tomo", "count", "--k", "1", "--systems", "2000000", "--locality", "1000000"],
    ["circuit", "eval", "--circuit", coin_where("wires", 0, "from", value=[["u"], 0])],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": "0"}, "x")],
    ["afftm", "run", "--machine", parity_with(move="X"), "--input", "", "--max-steps", "5"],
    ["interfere", "order", "--family", json.dumps({"n_slits": 2, "projectors": {}})],
    ["circuit", "eval", "--circuit", coin_where("wires", 0, "from", value=["u", 0.5])],
    ["circuit", "eval", "--circuit", coin_where("wires", 0, "to", value=["r", "0"])],
    ["circuit", "eval", "--circuit", coin_where("wires", 0, "from", value=["u", False])],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": "0"}, 7)],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": "0"}, 0, {"u": "0", "r": "0"})],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": "2"}, 0)],
    ["interfere", "order", "--family", one_slit_family("2")],
    ["interfere", "order", "--family", one_slit_family("-1", empty=False)],
    ["interfere", "order", "--family", one_slit_family("0x1")],
    *(["interfere", "order", "--family", json.dumps({"n_slits": n, "projectors": {"0": [[0.0]]}})]
      for n in (0, -1)),
    ["interfere", "order", "--family", qutrit_where("n_slits", value=10**9)],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": "0", "typo": "1"}, 1)],
    # a negative port index raised IndexError in validation, and a label that is
    # not a string a TypeError in the table acceptor's lookup
    ["circuit", "eval", "--circuit", coin_where("wires", 0, "to", value=["r", -10**9])],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": ["0"]}, 0)],
    ["circuit", "accept", "--circuit", coin_table({"u": "0", "r": {"0": 1}}, 0)],
])
def test_cli_rejects_out_of_range_arguments(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "input error" in err and "Traceback" not in err


def test_cli_rejects_unreadable_numbers_and_rows_in_one_line(capsys):
    # an integer past the float range raised OverflowError in float(), a ragged
    # matrix a ValueError in np.array, and a row of text read one entry per character
    with pytest.raises(ParseError, match="401 digits is not a finite float"):
        parse_number(10**400, "entry")
    digits = "1" * 5000  # past Python's int-to-text limit, so json.loads fails on it
    argvs = [["afftm", "run", "--machine", parity_with(weight=10**400), "--input", "",
              "--max-steps", "3"],
             ["interfere", "order", "--family",
              '{"n_slits": 1, "projectors": {"0": [[1, 0], [0]]}}'],
             ["interfere", "order", "--family",
              '{"n_slits": 1, "projectors": {"0": [[0]], "1": [[%s]]}}' % digits]]
    for projector in ([[10**400]], [[1, 0], [0, 1, 0]], [[1], 0], ["1"], [1], {"0": [1]}, "1"):
        argvs.append(["interfere", "order", "--family",
                      json.dumps({"n_slits": 1, "projectors": {"0": [[0]], "1": projector}})])
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("input error") and err.count("\n") == 1, err


def test_cli_query_cap_is_inclusive(capsys):
    for argv in (["query", "grover", "--n", str(querylab.MAX_ITEMS), "--marked", "0"],
                 ["query", "parity", "--n", str(querylab.MAX_ITEMS)]):
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0 and json.loads(out)["n"] == querylab.MAX_ITEMS


def _subcommands(parser):
    """A parser's subcommand table (name -> parser), or None if it has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return None


def _help_pages() -> list[list[str]]:
    """The argv prefix of every help page of the full tree: top level, groups, commands."""
    pages = [[]]
    for group, group_parser in _subcommands(build_parser()).items():
        pages.append([group])
        pages.extend([group, command] for command in _subcommands(group_parser))
    return pages


TOMO_COUNT = ["tomo", "count", "--k", "1", "--systems", "2", "--locality", "1"]


@pytest.mark.parametrize("argv", [
    *([*page, flag] for page in _help_pages() for flag in ("-h", "--help")),
    [],
    ["nosuch"],
    ["circuit"],
    ["circuit", "nosuch"],
    ["circuit", "eval"],
    [*TOMO_COUNT, "extra"],
    ["--seed", "x", *TOMO_COUNT],
    ["--seed", "circuit", *TOMO_COUNT],
    ["--seed=circuit", "circuit", "eval"],
], ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_cli_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        out = capsys.readouterr()
        return result, out.out, out.err

    assert outcome(main) == outcome(build_parser().parse_args)


# Every README command, plus `afftm check` and `interfere decompose`, on the bundled data
BUNDLED_COMMANDS = [
    ["theory", "info", "--theory", data_path("theory_rebit.json")],
    ["circuit", "eval", "--circuit", data_path("circuit_rebit_bell.json")],
    ["circuit", "accept", "--circuit", data_path("circuit_coin.json")],
    ["afftm", "run", "--machine", data_path("machine_branch.json"), "--input", "",
     "--max-steps", "5"],
    ["afftm", "norms", "--machine", data_path("machine_branch.json"), "--input", "",
     "--max-steps", "5"],
    ["afftm", "check", "--machine", data_path("machine_parity.json"),
     "--inputs", "0,1,0110,111", "--max-steps", "10"],
    ["interfere", "order", "--family", data_path("family_qutrit.json")],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"),
     "--vector", "[1,0,0,0,0,0,0,0,0.5]", "--order", "2"],
    ["tomo", "check", "--theory", data_path("theory_rebit.json"), "--systems", "2",
     "--locality", "1"],
    ["tomo", "count", "--k", "3", "--systems", "4", "--locality", "2"],
    ["query", "parity", "--table", "0110"],
    ["query", "grover", "--n", "16", "--marked", "3"],
    ["query", "bounds", "--problem", "search", "--n", "100", "--k", "2"],
]


GOLDEN_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli.json"
GOLDEN_DATA = "src/gptlab/data/"  # the golden argvs name the bundled files by this path


def _golden_by_argv() -> dict:
    golden = json.loads(GOLDEN_CLI.read_text())
    return {tuple(data_path(a[len(GOLDEN_DATA):]) if a.startswith(GOLDEN_DATA) else a
                  for a in entry["argv"]): entry for entry in golden.values()}


@pytest.mark.parametrize("argv", BUNDLED_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_bundled_commands_keep_the_golden_bytes(capsys, argv):
    """Every value of the stored golden output, byte for byte through
    json.dumps(..., sort_keys=True), as the cli-bundled benchmark checks it:
    among them the rebit Bell circuit's -4.930380657631324e-32."""
    want = _golden_by_argv()[tuple(argv)]
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == want["exit_code"]
    got = json.loads(out)
    for key, value in want["output"].items():
        assert json.dumps(got[key], sort_keys=True) == json.dumps(value, sort_keys=True), key


def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert len(_help_pages()) == 20  # top level, six groups, 13 commands
    argvs = [["--json", *argv] for argv in BUNDLED_COMMANDS]
    argvs += [["circuit", "nosuch"], ["query", "parity", "--help"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    first = {tuple(argv): outcome(argv) for argv in argvs}
    second = {tuple(argv): outcome(argv) for argv in reversed(argvs)}
    assert second == first
    assert [first[tuple(argv)][0] for argv in argvs] == [0] * 13 + [("exit", 2), ("exit", 0)]


def test_cli_circuit_accept(capsys):
    code, out, _ = run_cli(capsys, "--json", "circuit", "accept",
                           "--circuit", data_path("circuit_coin.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["acceptance_probability"] == 0.5
    assert doc["decision"] == "inconclusive"
    # a circuit without an acceptor is an input error for `accept`
    code, _, err = run_cli(capsys, "circuit", "accept",
                           "--circuit", data_path("circuit_rebit_bell.json"))
    assert code == 2 and "acceptor" in err


def test_cli_interfere_decompose(capsys):
    vector = json.dumps([1.0] + [0.0] * 8)  # a diagonal carrier vector
    code, out, _ = run_cli(capsys, "--json", "interfere", "decompose",
                           "--family", data_path("family_qutrit.json"),
                           "--vector", vector, "--order", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-12
    assert set(doc["components"]) == {"{0}", "{1}", "{2}"}


# Weights of +-1e200 cancel in acceptance but overflow the squared norms:
# the acceptance weight is NaN and the norms from step 1 on are infinite.
OVERFLOWING_MACHINE = json.dumps({
    "states": ["q0", "q1", "q2", "acc", "rej"], "initial": "q0", "accept": "acc",
    "reject": "rej", "blank": "_", "alphabet": ["_", "a", "b"],
    "transitions": [{"state": s, "read": "_", "branches": [
        {"next": nxt, "write": "a", "move": "R", "weight": 1e200},
        {"next": nxt, "write": "b", "move": "R", "weight": -1e200},
        {"next": nxt, "write": "_", "move": "R", "weight": 1.0}]}
        for s, nxt in (("q0", "q1"), ("q1", "q2"))]
    + [{"state": "q2", "read": "_", "branches": [
        {"next": "acc", "write": "_", "move": "S", "weight": 1.0}]}]})


@pytest.mark.parametrize("argv", [
    ["afftm", "run", "--machine", OVERFLOWING_MACHINE, "--max-steps", "5"],
    ["afftm", "norms", "--machine", OVERFLOWING_MACHINE, "--max-steps", "5"],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"), "--order", "2",
     "--vector", json.dumps([1e308] * 9)],
])
def test_a_result_json_cannot_write_is_a_domain_failure(capsys, argv):
    """Strict JSON has no NaN or infinity: such a --json report is exit 1, with
    one stderr line and nothing on stdout."""
    code, out, err = run_cli(capsys, "--json", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("domain failure: ") and err.count("\n") == 1


def test_human_output_refuses_a_result_that_is_not_finite(capsys):
    """The exit code does not depend on the output mode: without --json too a
    result that is not finite is exit 1, with one stderr line and nothing on
    stdout."""
    for command in ("run", "norms"):
        code, out, err = run_cli(capsys, "afftm", command, "--machine", OVERFLOWING_MACHINE,
                                 "--max-steps", "5")
        assert (code, out) == (1, "")
        assert err.startswith("domain failure: ") and err.count("\n") == 1
    with warnings.catch_warnings():  # the overflow is the error's to report, not numpy's
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "interfere", "decompose",
                               "--family", data_path("family_qutrit.json"), "--order", "2",
                               "--vector", json.dumps([1e308] * 9))
    assert code == 1 and err == "domain failure: components up to size 2 miss the input by inf\n"


def test_decompose_at_an_order_past_the_slits_returns_at_once(capsys):
    argv = ["--json", "interfere", "decompose", "--family", data_path("family_qutrit.json"),
            "--vector", "[1,0,0,0,0,0,0,0,0]", "--order"]
    with time_limit(10):
        code, out, _ = run_cli(capsys, *argv, "100000000")
    _, want, _ = run_cli(capsys, *argv, "3")
    assert code == 0 and json.loads(out)["order"] == 100000000
    assert json.dumps(json.loads(out)["components"]) == json.dumps(json.loads(want)["components"])


def test_first_outcome_is_0_on_a_circuit_without_instances(capsys):
    circuit = json.dumps({"theory": {"builtin": "classical", "params": {"d": 2}},
                          "instances": [], "acceptor": {"kind": "first-outcome-is-0"}})
    code, out, err = run_cli(capsys, "circuit", "accept", "--circuit", circuit)
    assert (code, out) == (1, "")
    assert err == ("error: acceptor first-outcome-is-0 has no instance to read: "
                   "the circuit has none\n")


def test_cli_theory_info_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "theory", "info",
                           "--theory", data_path("theory_gbit.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["system_types"] == {"gbit": 5}
    assert "prep_pr" in doc["gates"]


def test_cli_interfere_and_query(capsys):
    code, out, _ = run_cli(capsys, "--json", "interfere", "order",
                           "--family", data_path("family_qutrit.json"))
    assert code == 0 and json.loads(out)["order"] == 2

    code, out, _ = run_cli(capsys, "--json", "query", "grover", "--n", "4", "--marked", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == 1 and doc["queries"] == 1

    code, out, _ = run_cli(capsys, "--json", "query", "bounds",
                           "--problem", "search", "--n", "100", "--k", "2")
    assert code == 0 and json.loads(out)["asymptotic"] is True

    code, out, _ = run_cli(capsys, "--json", "tomo", "count",
                           "--k", "3", "--systems", "4", "--locality", "2")
    assert code == 0 and json.loads(out)["count"] == 18


# ---------------------------------------------------------------------------
# the input contract: exit 0, 1 or 2, no traceback, at most one line on stderr


DEEP = "[" * 1000 + "]" * 1000  # past the recursion limit, where json.loads raised RecursionError


def assert_one_line(capsys, argv, code: int, prefix: str):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, ""), (argv, err)
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["theory", "info", "--theory", DEEP],
    ["circuit", "eval", "--circuit", DEEP],
    ["afftm", "run", "--machine", DEEP, "--max-steps", "3"],
    ["interfere", "order", "--family", DEEP],
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"), "--vector", DEEP,
     "--order", "2"],
    ["interfere", "order", "--family", qutrit_where("name", value=[1])],
    ["interfere", "order", "--family", qutrit_where("synthetic", value="yes")],
    ["interfere", "order", "--family", qutrit_where("synthetic", value=1)],
    # an integer past the float range in --vector raised OverflowError
    ["interfere", "decompose", "--family", data_path("family_qutrit.json"),
     "--vector", "[%d, 0, 0, 0, 0, 0, 0, 0, 0]" % 10**400, "--order", "2"],
    # a directory read as a description file raised IsADirectoryError
    ["theory", "info", "--theory", data_path("")],
    # a message naming a value with a newline printed two lines
    ["theory", "info", "--theory", '{"builtin": "a\\nb"}'],
], ids=["theory", "circuit", "machine", "family", "vector", "name", "synthetic", "synthetic-int",
        "huge-vector", "directory", "newline"])
def test_unreadable_input_is_one_input_error_line(capsys, argv):
    assert_one_line(capsys, argv, 2, "input error")


def test_a_file_that_is_not_utf8_text_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "theory.json"
    path.write_bytes(b'{"builtin": "\xff"}')
    assert_one_line(capsys, ["theory", "info", "--theory", str(path)], 2, "input error")


def test_family_name_and_synthetic_flag_read_as_given():
    assert parse_family(qutrit_where("synthetic", value=True)).synthetic is True
    family = parse_family(qutrit_where("synthetic", value=False))
    assert family.synthetic is False and family.name == "quantum-3"


@pytest.mark.parametrize("systems", ["13", "20000", "1000000000", "9" * 400])
def test_tomo_check_refuses_past_its_cap_before_listing_systems(capsys, systems):
    # 2^N > 4096 coordinates: at 20000 systems the composite dimension has
    # more digits than int-to-text allows, and 10**9 systems ran out of memory
    argv = ["tomo", "check", "--theory", data_path("theory_classical2.json"),
            "--systems", systems, "--locality", "1"]
    assert_one_line(capsys, argv, 1, "domain failure")
    code, out, _ = run_cli(capsys, "--json", *argv[:5], "12", "--locality", "1")
    assert code == 0 and json.loads(out)["composite_dim"] == 4096


def test_tomo_check_refuses_a_cap_past_memory_before_allocating(capsys):
    # 2^100 coordinates are under a cap of 10^40, but no array holds them
    argv = ["tomo", "check", "--theory", data_path("theory_classical2.json"),
            "--systems", "100", "--locality", "1", "--cap", str(10**40)]
    assert_one_line(capsys, argv, 1, "domain failure")


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 512. MiB"), "Unable to allocate 512. MiB"),
])
def test_running_out_of_memory_is_one_domain_failure_line(capsys, monkeypatch, error, line):
    # a wide greedy circuit or a deep branching writer can outgrow memory
    # before any cap catches it; numpy raises a MemoryError subclass
    def allocate(*args, **kwargs):
        raise error

    monkeypatch.setattr("gptlab.circuits.distribution", allocate)
    code, out, err = run_cli(capsys, "--json", "circuit", "eval",
                             "--circuit", data_path("circuit_coin.json"))
    assert (code, out, err) == (1, "", f"domain failure: {line}\n")


class Dup(list):
    """A JSON object written with a repeated key: a list of (key, value) pairs."""


class Deep:
    """A value wrapped in ``depth`` JSON arrays, written without recursion."""

    def __init__(self, depth: int, inner):
        self.depth, self.inner = depth, inner


def encode(node) -> str:
    if isinstance(node, Deep):
        return "[" * node.depth + encode(node.inner) + "]" * node.depth
    if isinstance(node, Dup):
        return "{" + ",".join(f"{json.dumps(k)}:{encode(v)}" for k, v in node) + "}"
    if isinstance(node, dict):
        return encode(Dup(node.items()))
    if isinstance(node, list):
        return "[" + ",".join(map(encode, node)) + "]"
    return json.dumps(node)


def json_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, path + (key,))


HUGE = [10**9, 2**63, 10**18 + 1, 10**309, 10**400, 10**4299]
SWAPS = [None, True, False, 0, -1, 2.5, float("nan"), float("inf"), "", "x", "a\nb", "/", "nan",
         "1e999", "1/0", [], {}, [1], {"a": 1}, [[1, 2], [3]]]
MUTATIONS = ("drop", "duplicate", "swap", "ragged", "deep", "huge")


def mutated(doc, data) -> str:
    """``doc`` as JSON text, with one entry dropped, duplicated, swapped for a value of
    another type, made ragged, nested deeply or made a huge integer."""
    root = [json.loads(json.dumps(doc))]  # a copy, in a holder so the whole document can change
    path = (0, *data.draw(st.sampled_from(list(json_paths(root[0]))), label="path"))
    chain = [root]  # the containers along the path
    for k in path[:-1]:
        chain.append(chain[-1][k])
    parent, key = chain[-1], path[-1]
    node = parent[key]
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if kind == "drop" and parent is not root:
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, dict):
        pairs = list(parent.items())
        pairs.insert(list(parent).index(key), (key, node))
        chain[-2][path[-2]] = Dup(pairs)
    elif kind == "duplicate" and parent is not root:
        parent.insert(key, node)
    elif kind == "swap":
        parent[key] = data.draw(st.sampled_from(SWAPS), label="value")
    elif kind == "ragged":
        if isinstance(node, list) and node and isinstance(node[-1], list):
            node[-1] = node[-1][:-1] if data.draw(st.booleans()) else node[-1] + node[-1][:1]
        else:
            parent[key] = [node, [node]]
    elif kind == "deep":
        parent[key] = Deep(data.draw(st.sampled_from([10, 500, 985, 990, 995, 1000, 3000])), node)
    elif kind == "huge":
        parent[key] = data.draw(st.sampled_from(HUGE)) * data.draw(st.sampled_from([1, -1]))
    return encode(root[0])


DATA_FILES = {path.name: json.loads(path.read_text())
              for path in Path(data_path("")).glob("*.json")}
# the integer options whose values the property replaces with huge ones
HUGE_OPTIONS = ("--systems", "--n", "--k", "--cap", "--max-steps", "--order", "--marked")
# the commands that take --cap, which the bundled commands leave at its default
CAP_COMMANDS = (["circuit", "eval"], ["circuit", "accept"], ["tomo", "check"])


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from(BUNDLED_COMMANDS), st.booleans(), st.data())
def test_no_input_escapes_the_exit_codes(argv, as_json, data):
    """Every bundled document mutated in one place, in each command that reads
    its kind, and each command's integer options made huge (a --cap added where
    a command takes one): ``main`` returns 0, 1 or 2 and writes at most one
    line to stderr."""
    argv = list(argv)
    if argv[:2] in CAP_COMMANDS and data.draw(st.booleans()):
        argv += ["--cap", "4096"]
    for k, arg in enumerate(argv):
        name = Path(arg).name
        if name in DATA_FILES:
            kind = name.split("_")[0]
            doc = data.draw(st.sampled_from(sorted(n for n in DATA_FILES if n.startswith(kind))))
            argv[k] = mutated(DATA_FILES[doc], data)
        elif argv[k - 1] == "--vector":
            argv[k] = mutated(json.loads(arg), data)
        elif argv[k - 1] in HUGE_OPTIONS and data.draw(st.booleans()):
            argv[k] = str(data.draw(st.sampled_from(HUGE + [0, -1, 100])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main((["--json"] if as_json else []) + argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    if as_json and out.getvalue():  # strict JSON: no NaN, Infinity or -Infinity
        json.loads(out.getvalue(), parse_constant=refuse_constant)


def refuse_constant(name):
    raise AssertionError(f"--json output holds {name}, which strict JSON lacks")

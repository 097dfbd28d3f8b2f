"""The record-file contract under fuzzing: one field of one line of a valid
JSONL record file is set to a value of the wrong type or out of its range.
``analyze --records`` and ``dynamics`` exit 1 with a message that names the
file, the line and the field, and neither creates its output directory. A
``dynamics`` directory holds a good file beside the bad one, so reading the
good one first must not write its table either."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eaftlab import cli
from eaftlab import landscape as ls

N_LINES = 6
RECORDS = ls.RecordTable.of(
    source_id="probe",
    position=np.arange(N_LINES),
    token_id=np.array([3, 1, 4, 1, 5, 9]),
    token_text=np.array(["c", "a", "d", "a", "e", "i"], dtype=object),
    p_target=np.array([0.9, 0.1, 0.5, 0.05, 0.7, 0.3]),
    entropy_full=np.array([0.1, 2.5, 1.0, 3.0, 0.2, 2.2]),
    entropy_topk=np.array([0.1, 2.0, 0.9, 2.5, 0.2, 1.8]),
    gate=np.array([0.03, 0.7, 0.3, 0.8, 0.07, 0.6]),
    weight=np.array([0.03, 0.7, 0.3, 0.8, 0.07, 0.6]),
    grad_norm=np.array([0.1, 0.9, 0.5, 1.0, 0.2, 0.8]),
    step=np.array([0, 0, 0, 10, 10, 10]),
)

# JSON texts of the wrong type for each field type; null is left out, since
# a null optional field is an absent one
WRONG_TYPE = {
    str: ["5", "1.5", "true", "[]", "{}"],
    int: ['"x"', '"1"', "2.5", "1.0", "true", "[]", "{}", "NaN"],
    float: ['"x"', '"0.5"', "true", "[]", "{}", "NaN", "Infinity", "-Infinity"],
}
OUT_OF_RANGE = {
    **dict.fromkeys(("position", "token_id", "step"), ["-1", str(2**63), str(2**70)]),
    **dict.fromkeys(("p_target", "gate", "weight"), ["-0.5", "1.5", "1e400"]),
    **dict.fromkeys(("entropy_full", "entropy_topk", "grad_norm"), ["-0.5", "-1e-300", "1e400"]),
}
MUTATIONS = st.sampled_from(
    [(f, text) for f, kind in ls.RECORD_FIELDS.items() for text in WRONG_TYPE[kind] + OUT_OF_RANGE.get(f, [])]
)

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def write_records(path, line=None, field=None, text=None) -> None:
    """The records as JSONL; with ``line`` given, that line's ``field`` holds
    the JSON ``text``."""
    ls.export_records(RECORDS, path)
    if line is None:
        return
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line - 1])
    doc[field] = "@"
    lines[line - 1] = json.dumps(doc).replace('"@"', text)
    path.write_text("\n".join(lines) + "\n")


def check_rejected(code: int, err: str, path, line: int, field: str) -> None:
    assert code == 1, err
    assert str(path) in err and f"line {line}: " in err and field in err, err


def test_unmutated_files_are_read(tmp_path):
    write_records(tmp_path / "records.jsonl")
    assert cli.main(["analyze", str(tmp_path / "a"), "--records", str(tmp_path / "records.jsonl")]) == 0
    assert cli.main(["dynamics", str(tmp_path), str(tmp_path / "d")]) == 0


@FUZZ
@given(mutation=MUTATIONS, line=st.integers(1, N_LINES))
def test_analyze_records_contract(tmp_path_factory, capsys, mutation, line):
    field, text = mutation
    tmp_path = tmp_path_factory.mktemp("analyze")
    path = tmp_path / "records.jsonl"
    write_records(path, line, field, text)
    out = tmp_path / "out"
    code = cli.main(["analyze", str(out), "--records", str(path)])
    check_rejected(code, capsys.readouterr().err, path, line, field)
    assert not out.exists()


@FUZZ
@given(mutation=MUTATIONS, line=st.integers(1, N_LINES), bad_first=st.booleans())
def test_dynamics_contract(tmp_path_factory, capsys, mutation, line, bad_first):
    field, text = mutation
    tmp_path = tmp_path_factory.mktemp("dynamics")
    records = tmp_path / "records"
    records.mkdir()
    good, bad = (records / "b.jsonl", records / "a.jsonl") if bad_first else (records / "a.jsonl", records / "b.jsonl")
    write_records(good)
    write_records(bad, line, field, text)
    out = tmp_path / "out"
    code = cli.main(["dynamics", str(records), str(out)])
    check_rejected(code, capsys.readouterr().err, bad, line, field)
    assert not out.exists()


def test_non_utf8_line_rejected(tmp_path, capsys):
    # each line is decoded on its own, so the bad byte is named by its line
    records = tmp_path / "records"
    records.mkdir()
    path = records / "records.jsonl"
    write_records(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"token_text": "a"', b'"token_text": "\xff"')
    path.write_bytes(b"".join(lines))
    for argv in (["analyze", str(tmp_path / "out"), "--records", str(path)],
                 ["dynamics", str(records), str(tmp_path / "out")]):
        code = cli.main(argv)
        check_rejected(code, capsys.readouterr().err, path, 4, "UTF-8")
        assert not (tmp_path / "out").exists()

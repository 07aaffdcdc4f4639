"""Command-line front end: exit codes, output formats, seed determinism.

Everything below drives ``main(argv)`` in process; one subprocess test at
the end checks the ``python -m pltkit`` entry point.  Usage errors must
exit 2 (argparse), protocol failures must exit 1 with the error type's
name on stderr, and a --tcp run against servers seeded like the local run
must write an identical transcript.
"""

import json
import random
import subprocess
import sys

import pytest

from pltkit.cli import main
from pltkit.engine import (Database, build_query, derive_rng, recover_demand,
                           required_symbols)
from pltkit.fields import field_new
from pltkit.grs import Demand
from pltkit.wire import PltServer, client_run


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["capacity", "--n", "2", "--k", "4"],          # missing --d
    ["run", "--servers", "2", "--messages", "4"],  # missing --support, --q
    ["run", "--servers", "2", "--messages", "4", "--support", "3",
     "--q", "5", "--tcp", "localhost"],            # addr without port
    ["capacity", "--n", "2", "--k", "4", "--d", "3", "--format", "yaml"],
    ["audit"],                                     # subcommand required
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,name", [
    (["run", "--servers", "2", "--messages", "4", "--support", "3",
      "--q", "6"], "NotPrime"),
    (["run", "--servers", "2", "--messages", "7", "--support", "6",
      "--q", "5"], "FieldTooSmall"),
    (["run", "--servers", "2", "--messages", "4", "--support", "3",
      "--q", "5", "--demand", "1,2"], "ValueError"),
    (["run", "--servers", "2", "--messages", "3", "--support", "2",
      "--q", "5", "--tcp", "127.0.0.1:9"], "ValueError"),
    (["serve", "--random", "--q", "5"], "ValueError"),
])
def test_protocol_errors_exit_1_with_error_name(capsys, argv, name):
    code, _, err = run_main(capsys, argv)
    assert code == 1
    assert err.startswith(name + ":")


def test_connection_failure_exits_1(capsys):
    argv = ["run", "--servers", "2", "--messages", "3", "--support", "2",
            "--q", "5", "--tcp", "127.0.0.1:1,127.0.0.1:1"]
    code, _, err = run_main(capsys, argv)
    assert code == 1
    assert err.startswith("ConnectionFailed:")


# -------------------------------------------------------------- capacity

def test_capacity_text(capsys):
    code, out, _ = run_main(capsys, ["capacity", "--n", "2", "--k", "4", "--d", "3"])
    assert code == 0
    assert out.splitlines()[0] == "2/3"


def test_capacity_text_upper_bound_for_wider_demand(capsys):
    code, out, _ = run_main(
        capsys, ["capacity", "--n", "2", "--k", "4", "--l", "2", "--d", "3"])
    assert code == 0
    assert out.splitlines()[0] == "4/5"


def test_capacity_csv(capsys):
    code, out, _ = run_main(
        capsys, ["capacity", "--n", "2", "--k", "4", "--d", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scheme,value,kind,formula"
    assert lines[1] == "plt,2/3,exact-capacity,one-combination"


def test_capacity_json_with_baselines(capsys):
    code, out, _ = run_main(
        capsys, ["capacity", "--n", "2", "--k", "4", "--d", "3",
                 "--baselines", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["plt"]["value"] == {"num": 2, "den": 3}
    assert by_scheme["plt"]["kind"] == "exact-capacity"
    assert {"mm-pir", "pc-full", "mpir-then-combine"} <= set(by_scheme)
    # combining dominates recovering messages one by one
    combine = by_scheme["mpir-then-combine"]["value"]
    assert combine["num"] * 3 < combine["den"] * 2


# ------------------------------------------------------------------- run

RUN_ARGS = ["run", "--servers", "2", "--messages", "4", "--support", "3",
            "--q", "5", "--seed", "7"]


def test_run_local_text(capsys):
    code, out, _ = run_main(capsys, RUN_ARGS)
    assert code == 0
    assert "recovery check: PASS" in out
    assert "rate = 2/3" in out


def test_run_local_json(capsys):
    code, out, _ = run_main(capsys, RUN_ARGS + ["--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["recovery_check"] is True
    assert blob["transcript"]["params"]["q"] == 5
    assert blob["transcript"]["rate"] == {"num": 2, "den": 3}
    assert len(blob["demand"]["support"]) == 3


def test_run_transcript_appends_jsonl(capsys, tmp_path):
    path = tmp_path / "runs.jsonl"
    for _ in range(2):
        code, _, _ = run_main(capsys, RUN_ARGS + ["--transcript", str(path)])
        assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == lines[1]  # same seed, same transcript
    json.loads(lines[0])


def test_run_seed_changes_demand(capsys):
    _, out_a, _ = run_main(capsys, RUN_ARGS + ["--format", "json"])
    _, out_b, _ = run_main(capsys, RUN_ARGS[:-1] + ["8", "--format", "json"])
    a, b = json.loads(out_a), json.loads(out_b)
    assert a != b


def test_run_tcp_matches_local_transcript(capsys, tmp_path):
    # servers spawned from the same seed hold the database the local run
    # would derive, so the two transcripts must be byte-identical
    seed, k, d, n, q = 7, 3, 2, 2, 5
    field = field_new(q)
    s = required_symbols(n, k, d)
    db = Database.random(field, k, s, derive_rng(seed, "db", 0))
    base = ["run", "--servers", str(n), "--messages", str(k),
            "--support", str(d), "--q", str(q), "--seed", str(seed)]
    local_path = tmp_path / "local.jsonl"
    tcp_path = tmp_path / "tcp.jsonl"

    code, out, _ = run_main(capsys, base + ["--transcript", str(local_path)])
    assert code == 0 and "recovery check: PASS" in out

    with PltServer(db) as one, PltServer(db) as two:
        addrs = ",".join(f"{h}:{p}" for h, p in (one.address, two.address))
        code, out, _ = run_main(
            capsys, base + ["--tcp", addrs, "--transcript", str(tcp_path)])
    assert code == 0
    assert "recovery check: skipped (remote database)" in out
    assert tcp_path.read_text() == local_path.read_text()


def test_serve_db_file_answers_for_the_reduced_messages(tmp_path):
    """Two ``plt serve --db`` processes over a JSON database holding a
    negative and an unreduced entry serve its messages reduced mod q."""
    q, k, s = 5, 3, 8
    messages = [[(3 * j + i) % q for i in range(s)] for j in range(k)]
    messages[0][1], messages[2][5] = -3, 14
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"q": q, "messages": messages}))
    demand = Demand((1, 3), (2, 4), field_new(q))
    bundle = build_query(demand, k, 2, random.Random(4))
    servers = []
    try:
        addresses = []
        for _ in range(2):
            servers.append(subprocess.Popen(
                [sys.executable, "-m", "pltkit", "serve", "--db", str(path),
                 "--bind", "127.0.0.1:0"], stdout=subprocess.PIPE, text=True))
            line = servers[-1].stdout.readline()
            assert line.startswith("serving on "), line
            host, _, port = line.split()[2].rpartition(":")
            addresses.append((host, int(port)))
        recovered = recover_demand(bundle, client_run(addresses, bundle))
    finally:
        for proc in servers:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
    assert recovered == [(2 * (a % q) + 4 * (b % q)) % q
                         for a, b in zip(messages[0], messages[2])]


# ----------------------------------------------------------------- audit

def test_audit_structure(capsys):
    code, out, _ = run_main(
        capsys, ["audit", "structure", "--messages", "4", "--support", "3",
                 "--q", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_audit_shape(capsys):
    code, out, _ = run_main(
        capsys, ["audit", "shape", "--servers", "2", "--functions", "3",
                 "--rank", "2", "--seeds", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_audit_rate(capsys):
    code, out, _ = run_main(
        capsys, ["audit", "rate", "--servers", "2", "--messages", "4",
                 "--support", "3", "--q", "5"])
    assert code == 0
    assert "achieves_capacity: True" in out
    assert out.splitlines()[-1] == "PASS"


def test_audit_tv_honest(capsys):
    # few samples, generous threshold: this checks plumbing, not the bound
    code, out, _ = run_main(
        capsys, ["audit", "tv", "--samples", "600", "--threshold", "0.5",
                 "--seed", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_audit_tv_mutant_detected(capsys):
    code, out, _ = run_main(
        capsys, ["audit", "tv", "--mutant", "constant-alpha",
                 "--samples", "600", "--threshold", "0.3", "--seed", "3",
                 "--format", "json"])
    assert code == 0  # detection of a broken client is the expected outcome
    assert json.loads(out)["passes"] is False


# -------------------------------------------------------------- example1

def test_example1_golden(capsys):
    code, out, _ = run_main(capsys, ["example1"])
    assert code == 0
    assert "Q_1 = [1, 2, 4, 2]" in out
    assert "Q_2 = [0, 2, 3, 1]" in out
    assert "star scalar = 2" in out
    assert "rate = 2/3" in out
    assert out.splitlines()[-1] == "PASS"


# ----------------------------------------------------------- module form

def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pltkit", "capacity", "--n", "2", "--k", "4",
         "--d", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2/3"
